//! The simulated client swarm: seeded load generation and
//! retry-until-acked on the virtual clock, around one
//! [`ClientCore`] per client — the state machine `CsmClient` ships.
//!
//! Clients are transport endpoints `cluster..cluster + clients`; each
//! command is a `Submit` broadcast to every node, acknowledged once
//! `b + 1` distinct nodes return the same `(round, output)` for the
//! `(client, seq)` (one of them is then honest, which is what the S2
//! checks lean on). Unacked commands rebroadcast on a retry timer; the
//! reply cache and dedup horizons on the node side make the retries
//! idempotent. SimNet does not authenticate, so the swarm verifies each
//! reply's MAC before its core sees it, as a transport would.

use crate::chaos::runner::ChaosConfig;
use crate::chaos::token;
use csm_client::{Accepted, ClientCore, Ticket};
use csm_network::auth::KeyRegistry;
use csm_network::NodeId;
use csm_transport::sim::SimNet;
use csm_transport::{Frame, Payload};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Client retries give up after this many rebroadcasts.
const MAX_CLIENT_RETRIES: u32 = 30;

/// Generates the command vector for `(stream, shard, input_dim)` — a
/// plain fn pointer so swarms stay `Debug` and runs stay replayable (the
/// stream value is derived from the schedule seed).
pub type CommandGen = fn(u64, usize, usize) -> Vec<u64>;

/// Small-value command generator that suits every shipped machine: each
/// coordinate is a seeded value in `1..=16` (bank deposits, interest
/// rates, KV selectors-and-values all stay well inside the field).
pub fn small_commands(stream: u64, _shard: usize, input_dim: usize) -> Vec<u64> {
    let mut x = stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..input_dim)
        .map(|i| {
            x = x
                .wrapping_add(i as u64 + 1)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            1 + ((x >> 33) % 16)
        })
        .collect()
}

/// Bank deposits that name their shard: every coordinate is
/// `1000 · (shard + 1)`. From the chaos genesis balance `1 + shard`, a
/// balance of shard `s` stays `≡ 1 + s (mod 1000)`, so an acknowledged
/// output says which shard committed it, and the shard's acknowledged
/// balances must climb by exactly its deposit — a lost, replayed or
/// misrouted command breaks the chain.
pub fn shard_deposits(_stream: u64, shard: usize, input_dim: usize) -> Vec<u64> {
    vec![1000 * (shard as u64 + 1); input_dim]
}

/// The whole swarm, addressed by client *index* (endpoint id minus the
/// cluster size).
#[derive(Debug)]
pub(crate) struct ClientSwarm {
    cluster: usize,
    shards: usize,
    input_dim: usize,
    seed: u64,
    registry: Arc<KeyRegistry>,
    command_gen: CommandGen,
    retry_interval: u64,
    clients: Vec<ClientCore>,

    /// Acked `(client_endpoint_id, seq) → agreed output` — the S2
    /// ground truth.
    pub(crate) acked: BTreeMap<(u64, u64), Vec<u64>>,
    /// The subset of submitted `(client_endpoint_id, seq)` belonging to
    /// probe bursts (the S3 liveness obligation).
    pub(crate) probe_submitted: BTreeSet<(u64, u64)>,
}

impl ClientSwarm {
    /// `config.clients` clients of `input_dim`-wide commands, seeded by
    /// `seed`, each re-sending an unacked command every `retry_interval`
    /// ticks.
    pub(crate) fn new(
        config: &ChaosConfig,
        input_dim: usize,
        seed: u64,
        registry: Arc<KeyRegistry>,
        retry_interval: u64,
    ) -> Self {
        let clients = (config.cluster..config.cluster + config.clients)
            .map(|id| {
                ClientCore::new(
                    NodeId(id),
                    config.cluster,
                    config.faults,
                    Arc::clone(&registry),
                )
            })
            .collect();
        ClientSwarm {
            cluster: config.cluster,
            shards: config.shards,
            input_dim,
            seed,
            registry,
            command_gen: config.command_gen,
            retry_interval: retry_interval.max(1),
            clients,
            acked: BTreeMap::new(),
            probe_submitted: BTreeSet::new(),
        }
    }

    /// Arms client `idx`'s retry timer for `seq`.
    fn arm_retry(&self, net: &mut SimNet, idx: usize, seq: u64) {
        let tok = token::pack(token::K_RETRY, 0, idx as u64, seq);
        net.set_timer(self.cluster + idx, net.now() + self.retry_interval, tok);
    }

    /// Fires one burst: clients `first..first + count` each submit
    /// `commands` fresh seeded commands and arm their retry timers.
    pub(crate) fn burst(
        &mut self,
        net: &mut SimNet,
        first: usize,
        count: usize,
        commands: usize,
        probe: bool,
    ) {
        for idx in first..first + count {
            let endpoint = self.cluster + idx;
            for _ in 0..commands {
                let core = &mut self.clients[idx];
                let stream = self
                    .seed
                    .wrapping_mul(0x0100_0000_01B3)
                    .wrapping_add(((idx as u64) << 24) | core.next_seq());
                let shard = (stream >> 7) % self.shards as u64;
                let command = (self.command_gen)(stream, shard as usize, self.input_dim);
                let (seq, frame) = core.submit(shard, command);
                if probe {
                    self.probe_submitted.insert((endpoint as u64, seq));
                }
                net.broadcast_upto(endpoint, self.cluster, &frame);
                self.arm_retry(net, idx, seq);
            }
        }
    }

    /// Client `idx` broadcasts a `Submit` naming client `victim` (at the
    /// victim's next sequence number) under its own MAC.
    pub(crate) fn spoof(&mut self, net: &mut SimNet, idx: usize, victim: usize) {
        let frame = Frame::sign(
            Payload::Submit {
                shard: 0,
                client: (self.cluster + victim) as u64,
                seq: self.clients[victim].next_seq(),
                command: (self.command_gen)(self.seed, 0, self.input_dim),
            },
            &self.registry,
            NodeId(self.cluster + idx),
        );
        net.broadcast_upto(self.cluster + idx, self.cluster, &frame);
    }

    /// A frame delivered to client endpoint `owner`.
    pub(crate) fn on_frame(&mut self, owner: usize, frame: Frame) {
        if !frame.verify(&self.registry) {
            return;
        }
        let core = &mut self.clients[owner - self.cluster];
        if let Some(Accepted {
            ticket: Ticket::Submit(seq),
            output,
            ..
        }) = core.on_frame(frame)
        {
            self.acked.insert((owner as u64, seq), output);
        }
    }

    /// A retry timer fired for client endpoint `owner`: re-send the
    /// command unless it is acked, or give up on it after
    /// `MAX_CLIENT_RETRIES` — probes carry the S3 liveness-on-heal
    /// obligation, so they are re-driven until the horizon; only load
    /// traffic gives up.
    pub(crate) fn on_timer(&mut self, net: &mut SimNet, owner: usize, tok: u64) {
        let (idx, seq) = (owner - self.cluster, token::b(tok));
        let (core, ticket) = (&mut self.clients[idx], Ticket::Submit(seq));
        let Some(attempts) = core.attempts(ticket) else {
            return; // acked meanwhile
        };
        if attempts > MAX_CLIENT_RETRIES && !self.probe_submitted.contains(&(owner as u64, seq)) {
            core.give_up(ticket);
            return;
        }
        let frame = core.retry(ticket).expect("the ticket is pending");
        net.broadcast_upto(owner, self.cluster, &frame);
        self.arm_retry(net, idx, seq);
    }

    /// Probe `(client, seq)` pairs not yet acknowledged — must be empty
    /// at the horizon for the S3 liveness-on-heal check.
    pub(crate) fn unacked_probes(&self) -> Vec<(u64, u64)> {
        self.probe_submitted
            .iter()
            .filter(|key| !self.acked.contains_key(key))
            .copied()
            .collect()
    }
}
