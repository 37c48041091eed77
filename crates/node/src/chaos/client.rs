//! The simulated client swarm: seeded load generation, `b + 1`-matching
//! acknowledgement tracking, and retry-until-acked — the client side of
//! the exactly-once contract, on the virtual clock.
//!
//! Clients are transport endpoints `cluster..cluster + clients`; each
//! command is a `Submit` broadcast to every node, acknowledged once
//! `b + 1` distinct nodes return byte-identical `Reply` payloads for the
//! `(client, seq)` (one of them is then guaranteed honest, which is what
//! the S2 no-lost-ack check leans on). Unacked commands rebroadcast on a
//! retry timer; the reply cache and dedup horizons on the node side make
//! the retries idempotent.

use crate::chaos::token;
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

/// One in-flight command awaiting its `b + 1` reply quorum.
#[derive(Debug)]
struct Pending {
    shard: u64,
    command: Vec<u64>,
    probe: bool,
    /// Reply votes: identical output bytes → the distinct nodes sending
    /// them.
    votes: BTreeMap<Vec<u64>, BTreeSet<usize>>,
    retries: u32,
}

/// Per-client submission state.
#[derive(Debug, Default)]
struct ClientState {
    next_seq: u64,
    pending: BTreeMap<u64, Pending>,
}

/// The whole swarm, addressed by client *index* (endpoint id minus the
/// cluster size).
#[derive(Debug)]
pub(crate) struct ClientSwarm {
    cluster: usize,
    faults: usize,
    shards: usize,
    input_dim: usize,
    seed: u64,
    registry: Arc<KeyRegistry>,
    command_gen: CommandGen,
    retry_interval: u64,
    clients: BTreeMap<usize, ClientState>,

    /// Acked `(client_endpoint_id, seq) → agreed output` — the S2
    /// ground truth.
    pub(crate) acked: BTreeMap<(u64, u64), Vec<u64>>,
    /// The subset of submitted `(client_endpoint_id, seq)` belonging to
    /// probe bursts (the S3 liveness obligation).
    pub(crate) probe_submitted: BTreeSet<(u64, u64)>,
    /// Commands that exhausted their retries without an ack quorum.
    pub(crate) gave_up: BTreeSet<(u64, u64)>,
    /// Replies whose outputs disagreed across `b + 1` quorums — never
    /// expected; recorded for the harness.
    pub(crate) conflicting_acks: u64,
}

impl ClientSwarm {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cluster: usize,
        faults: usize,
        shards: usize,
        input_dim: usize,
        seed: u64,
        registry: Arc<KeyRegistry>,
        command_gen: CommandGen,
        retry_interval: u64,
    ) -> Self {
        ClientSwarm {
            cluster,
            faults,
            shards,
            input_dim,
            seed,
            registry,
            command_gen,
            retry_interval: retry_interval.max(1),
            clients: BTreeMap::new(),
            acked: BTreeMap::new(),
            probe_submitted: BTreeSet::new(),
            gave_up: BTreeSet::new(),
            conflicting_acks: 0,
        }
    }

    /// The transport endpoint id of client index `idx`.
    fn endpoint(&self, idx: usize) -> usize {
        self.cluster + idx
    }

    fn submit_frame(&self, idx: usize, seq: u64, shard: u64, command: &[u64]) -> Frame {
        let endpoint = self.endpoint(idx);
        Frame::sign(
            Payload::Submit {
                shard,
                client: endpoint as u64,
                seq,
                command: command.to_vec(),
            },
            &self.registry,
            NodeId(endpoint),
        )
    }

    fn broadcast_submit(
        &self,
        net: &mut SimNet,
        idx: usize,
        seq: u64,
        shard: u64,
        command: &[u64],
    ) {
        let frame = self.submit_frame(idx, seq, shard, command);
        let endpoint = self.endpoint(idx);
        net.broadcast_upto(endpoint, self.cluster, &frame);
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
            for _ in 0..commands {
                let state = self.clients.entry(idx).or_default();
                let seq = state.next_seq;
                state.next_seq += 1;
                let stream = self
                    .seed
                    .wrapping_mul(0x0100_0000_01B3)
                    .wrapping_add(((idx as u64) << 24) | seq);
                let shard = (stream >> 7) % self.shards as u64;
                let command = (self.command_gen)(stream, shard as usize, self.input_dim);
                state.pending.insert(
                    seq,
                    Pending {
                        shard,
                        command: command.clone(),
                        probe,
                        votes: BTreeMap::new(),
                        retries: 0,
                    },
                );
                if probe {
                    self.probe_submitted
                        .insert((self.endpoint(idx) as u64, seq));
                }
                self.broadcast_submit(net, idx, seq, shard, &command);
                let endpoint = self.endpoint(idx);
                net.set_timer(
                    endpoint,
                    net.now() + self.retry_interval,
                    token::pack(token::K_RETRY, 0, idx as u64, seq),
                );
            }
        }
    }

    /// Client `idx` broadcasts a `Submit` naming client `victim` (at the
    /// victim's next sequence number) under its own MAC.
    pub(crate) fn spoof(&mut self, net: &mut SimNet, idx: usize, victim: usize) {
        let seq = self.clients.get(&victim).map_or(0, |state| state.next_seq);
        let frame = Frame::sign(
            Payload::Submit {
                shard: 0,
                client: self.endpoint(victim) as u64,
                seq,
                command: (self.command_gen)(self.seed, 0, self.input_dim),
            },
            &self.registry,
            NodeId(self.endpoint(idx)),
        );
        net.broadcast_upto(self.endpoint(idx), self.cluster, &frame);
    }

    /// A frame delivered to client endpoint `owner`.
    pub(crate) fn on_frame(&mut self, owner: usize, frame: Frame) {
        if owner < self.cluster {
            return;
        }
        let idx = owner - self.cluster;
        if !frame.verify(&self.registry) {
            return;
        }
        let from = frame.sig.signer.0;
        if from >= self.cluster {
            return; // clients only trust node replies
        }
        let Payload::Reply {
            client,
            seq,
            output,
            ..
        } = frame.payload
        else {
            return;
        };
        if client != owner as u64 {
            return;
        }
        let quorum = self.faults + 1;
        let Some(state) = self.clients.get_mut(&idx) else {
            return;
        };
        let Some(pending) = state.pending.get_mut(&seq) else {
            return;
        };
        pending.votes.entry(output).or_default().insert(from);
        let agreed = pending
            .votes
            .iter()
            .find(|(_, nodes)| nodes.len() >= quorum)
            .map(|(output, _)| output.clone());
        if let Some(output) = agreed {
            if pending.votes.len() > 1 {
                // another output also collected votes — fine below b+1,
                // but two *quorums* would be a reply-integrity break
                let quorums = pending
                    .votes
                    .values()
                    .filter(|nodes| nodes.len() >= quorum)
                    .count();
                if quorums > 1 {
                    self.conflicting_acks += 1;
                }
            }
            state.pending.remove(&seq);
            self.acked.insert((owner as u64, seq), output);
        }
    }

    /// A retry timer fired for client endpoint `owner`.
    pub(crate) fn on_timer(&mut self, net: &mut SimNet, owner: usize, tok: u64) {
        if token::kind(tok) != token::K_RETRY || owner < self.cluster {
            return;
        }
        let idx = token::a(tok) as usize;
        let seq = token::b(tok);
        if idx + self.cluster != owner {
            return;
        }
        let Some(state) = self.clients.get_mut(&idx) else {
            return;
        };
        let Some(pending) = state.pending.get_mut(&seq) else {
            return; // acked meanwhile
        };
        pending.retries += 1;
        if pending.retries > MAX_CLIENT_RETRIES && !pending.probe {
            // probes carry the S3 liveness-on-heal obligation, so they
            // are re-driven until the horizon; only load traffic gives
            // up.
            state.pending.remove(&seq);
            self.gave_up.insert((owner as u64, seq));
            return;
        }
        let shard = pending.shard;
        let command = pending.command.clone();
        self.broadcast_submit(net, idx, seq, shard, &command);
        net.set_timer(
            owner,
            net.now() + self.retry_interval,
            token::pack(token::K_RETRY, 0, idx as u64, seq),
        );
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
