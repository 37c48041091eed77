//! `live_steady` / `live_byz`: real threads, the production gateway loop.
//!
//! Every node is `run_gateway` on a `MemMesh` endpoint with full-word
//! early finalisation and `batch_cap` 4 (Δ per workload, see [`Params`]);
//! every other timing and limit is `GatewayConfig::new`'s default. Each
//! block builds a fresh cluster, commits one command (set-up ends at its
//! acknowledgement), runs its fixed load, stops the cluster and checks the
//! bank balance chain and honest digest agreement.
//!
//! * `live_steady` — N = 4, K = 2, b = 1, Δ = 160 ms, all honest. One
//!   generator thread drives two client endpoints open-loop at 500
//!   commands/s each, accepts at b + 1 matching `(round, output)` replies,
//!   and times each command from when it was due.
//! * `live_byz` — N = 8, K = 4, b = 2, Δ = 40 ms, node 0 equivocates and
//!   node 1 withholds. Two generator threads, each a `CsmClient` in closed
//!   loop. The word is never full, so every exchange waits out Δ.

use crate::block::Block;
use crate::spans::Tracer;
use crate::stats::{percentile, process_cpu_ns};
use csm_algebra::{Field, Fp61};
use csm_client::{ClientConfig, CsmClient};
use csm_core::client::{accept_replies, DeliveryStatus};
use csm_core::digest::splitmix64;
use csm_core::DecoderKind;
use csm_network::auth::KeyRegistry;
use csm_node::{
    mesh_registry, run_gateway, BehaviorKind, CodedMachine, ExchangeTiming, GatewayConfig,
    GatewayReport, GatewaySpec, StagingFault,
};
use csm_statemachine::machines::bank_machine;
use csm_transport::mem::{MemMesh, MemTransport};
use csm_transport::{Frame, Payload, Transport};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// A command not accepted this long after it was due has failed.
const LIMIT: Duration = Duration::from_secs(1);

/// Shape of a live workload. N, K, b, Δ and `batch_cap` are workload
/// parameters; the rest comes from the program's defaults.
#[derive(Debug, Clone)]
pub struct Params {
    pub nodes: usize,
    pub shards: usize,
    pub faults: usize,
    pub delta: Duration,
    pub batch_cap: usize,
    /// Byzantine node ids: the first equivocates, the second withholds.
    pub byzantine: Vec<usize>,
    /// Commands each client submits in the measured phase.
    pub cmds_per_client: usize,
    /// Open-loop rate per client; `None` is closed loop.
    pub rate_per_client: Option<f64>,
}

impl Params {
    /// Δ is well above the longest stall measured on this box (threads
    /// held up for 40 to 100 ms several times a minute): at the repo's
    /// usual 40 ms a stalled honest node fail-stops about one run in ten,
    /// and the commands that then miss their limit fail the run. A full
    /// word ends the exchange at once, so Δ shows only as the idle pause
    /// (Δ/4); the rate keeps about 20 commands per client in flight over
    /// one pause, under the gateways' per-client quota.
    pub fn steady(cmds_per_client: usize) -> Self {
        Params {
            nodes: 4,
            shards: 2,
            faults: 1,
            delta: Duration::from_millis(160),
            batch_cap: 4,
            byzantine: Vec::new(),
            cmds_per_client,
            rate_per_client: Some(500.0),
        }
    }

    /// Δ is on the path here (every exchange waits it out), so it stays
    /// at the repo's usual 40 ms: a longer one would leave a block a
    /// handful of commands. A stall hurts only in the first millisecond
    /// of an exchange, before the node has read its peers' results.
    pub fn byz(cmds_per_client: usize) -> Self {
        Params {
            nodes: 8,
            shards: 4,
            faults: 2,
            delta: Duration::from_millis(40),
            byzantine: vec![0, 1],
            cmds_per_client,
            rate_per_client: None,
            ..Params::steady(0)
        }
    }

    fn behavior(&self, node: usize) -> BehaviorKind {
        match self.byzantine.iter().position(|&b| b == node) {
            Some(0) => BehaviorKind::Equivocate,
            Some(_) => BehaviorKind::Withhold,
            None => BehaviorKind::Honest,
        }
    }
}

fn initial_balance(shard: usize) -> u64 {
    100 * (shard as u64 + 1)
}

/// The seeded deposit of `client`'s `seq`-th command.
fn amount(seed: u64, client: usize, seq: u64) -> u64 {
    1 + splitmix64(seed ^ ((client as u64) << 40) ^ seq) % 97
}

/// One accepted command, as the balance-chain check needs it.
#[derive(Debug, Clone)]
struct Accepted {
    client: usize,
    seq: u64,
    round: u64,
    output: Vec<u64>,
    matching: usize,
    attempts: u32,
}

struct Cluster {
    stop: Arc<AtomicBool>,
    nodes: Vec<JoinHandle<GatewayReport<Fp61>>>,
    /// Handles kept on the node endpoints, for their delivery counters.
    endpoints: Vec<Arc<MemTransport>>,
    registry: Arc<KeyRegistry>,
    /// The gateways' per-client pending quota (the program's default).
    client_quota: usize,
}

fn spawn(p: &Params, seed: u64) -> (Cluster, Vec<MemTransport>) {
    let registry = mesh_registry(p.nodes, CLIENTS, seed);
    let mut mesh = MemMesh::build(Arc::clone(&registry));
    let clients = mesh.split_off(p.nodes);
    let machine = Arc::new(
        CodedMachine::<Fp61>::new(p.nodes, p.shards, bank_machine(), DecoderKind::default())
            .expect("workload shape fits Theorem 1"),
    );
    let initial_states: Vec<Vec<Fp61>> = (0..p.shards)
        .map(|s| vec![Fp61::from_u64(initial_balance(s))])
        .collect();
    let timing = ExchangeTiming::synchronous(p.faults, p.delta).with_full_finalize();
    let cfg = GatewayConfig::new(p.nodes, p.faults, &timing).with_batch_cap(p.batch_cap);
    let stop = Arc::new(AtomicBool::new(false));
    let endpoints: Vec<Arc<MemTransport>> = mesh.into_iter().map(Arc::new).collect();
    let nodes = endpoints
        .iter()
        .enumerate()
        .map(|(id, endpoint)| {
            let (endpoint, registry) = (Arc::clone(endpoint), Arc::clone(&registry));
            let (timing, cfg, stop) = (timing.clone(), cfg.clone(), Arc::clone(&stop));
            let spec = GatewaySpec {
                machine: Arc::clone(&machine),
                initial_states: initial_states.clone(),
                behavior: p.behavior(id),
                staging_fault: StagingFault::None,
            };
            thread::Builder::new()
                .name(format!("gw-{id}"))
                .spawn(move || run_gateway(endpoint, registry, timing, &spec, &cfg, &stop))
                .expect("spawn gateway thread")
        })
        .collect();
    let cluster = Cluster {
        stop,
        nodes,
        endpoints,
        registry,
        client_quota: cfg.client_quota,
    };
    (cluster, clients)
}

impl Cluster {
    /// Raises the stop flag and joins every gateway.
    fn stop(self) -> (Vec<GatewayReport<Fp61>>, u64) {
        self.stop.store(true, Ordering::SeqCst);
        let mut reports: Vec<GatewayReport<Fp61>> = self
            .nodes
            .into_iter()
            .map(|h| h.join().expect("gateway thread panicked"))
            .collect();
        reports.sort_by_key(|r| r.id);
        let delivered = self.endpoints.iter().map(|e| e.stats().snapshot().0).sum();
        (reports, delivered)
    }
}

/// One open-loop command in flight.
struct Pending {
    due: Instant,
    by_node: Vec<Option<(u64, Vec<u64>)>>,
}

/// The open-loop generator: one thread, [`CLIENTS`] endpoints.
struct OpenLoop<'a> {
    p: &'a Params,
    seed: u64,
    registry: &'a KeyRegistry,
    endpoints: &'a [MemTransport],
    pending: Vec<BTreeMap<u64, Pending>>,
    accepted: Vec<Accepted>,
    /// `(due, accepted at)` of every accepted command, in accept order.
    timings: Vec<(Instant, Instant)>,
    frames_in: u64,
}

impl OpenLoop<'_> {
    fn send(&mut self, client: usize, seq: u64, due: Instant) {
        let me = self.endpoints[client].local_id();
        let frame = Frame::sign(
            Payload::Submit {
                shard: (client % self.p.shards) as u64,
                client: me.0 as u64,
                seq,
                command: vec![amount(self.seed, client, seq)],
            },
            self.registry,
            me,
        );
        let _ = self.endpoints[client].broadcast_upto(self.p.nodes, &frame);
        self.pending[client].insert(
            seq,
            Pending {
                due,
                by_node: vec![None; self.p.nodes],
            },
        );
    }

    /// Counts one inbound frame toward its command's b + 1 quorum.
    fn on_frame(&mut self, client: usize, frame: Frame) {
        self.frames_in += 1;
        let node = frame.sig.signer.0;
        let Payload::Reply {
            shard,
            round,
            client: to,
            seq,
            output,
        } = frame.payload
        else {
            return;
        };
        let me = self.endpoints[client].local_id().0 as u64;
        if node >= self.p.nodes || to != me || shard != (client % self.p.shards) as u64 {
            return;
        }
        let Some(cmd) = self.pending[client].get_mut(&seq) else {
            return;
        };
        if cmd.by_node[node].is_some() {
            return;
        }
        cmd.by_node[node] = Some((round, output));
        if let DeliveryStatus::Accepted {
            value: (round, output),
            matching,
        } = accept_replies(&cmd.by_node, self.p.faults + 1)
        {
            let cmd = self.pending[client].remove(&seq).expect("present");
            self.timings.push((cmd.due, Instant::now()));
            self.accepted.push(Accepted {
                client,
                seq,
                round,
                output,
                matching,
                attempts: 1,
            });
        }
    }

    /// Drains whatever is already queued on every endpoint.
    fn drain(&mut self, tracer: &mut Tracer) {
        for client in 0..self.endpoints.len() {
            while let Ok(frame) = self.endpoints[client].recv_timeout(Duration::ZERO) {
                let s = tracer.begin("gen.recv", client as u64, None);
                self.on_frame(client, frame);
                tracer.end(s);
            }
        }
    }

    /// The measured phase: sends command `i` when it is due (`t0` plus
    /// `i` half-periods, the clients taking turns) unless its client
    /// already has `window` commands in flight, and accepts replies until
    /// every command is accepted or the last one has missed its limit.
    /// Returns how late each send was, in milliseconds.
    fn run(
        &mut self,
        t0: Instant,
        period: Duration,
        total: usize,
        window: usize,
        tracer: &mut Tracer,
    ) -> Vec<f64> {
        let clients = self.endpoints.len();
        let due = |i: usize| t0 + period.mul_f64(i as f64 / clients as f64);
        // client 0 spent its first sequence number on the set-up command
        let first_seq = |client: usize| u64::from(client == 0);
        let mut late_ms = Vec::with_capacity(total);
        let (mut sent, mut flip) = (0, 0);
        loop {
            let mut now = Instant::now();
            while sent < total && due(sent) <= now && self.pending[sent % clients].len() < window {
                let client = sent % clients;
                let s = tracer.begin("gen.send", sent as u64, None);
                self.send(
                    client,
                    first_seq(client) + (sent / clients) as u64,
                    due(sent),
                );
                tracer.end(s);
                late_ms.push((now - due(sent)).as_secs_f64() * 1e3);
                sent += 1;
                now = Instant::now();
            }
            self.drain(tracer);
            // done; or the last command has missed its limit; or the next
            // one could not even be sent within its own (the window never
            // reopened: the cluster has stopped, and what is left has failed)
            let next = sent.min(total - 1);
            if (sent == total && self.outstanding() == 0) || now > due(next) + LIMIT {
                return late_ms;
            }
            // the only wait the generator adds: until the next command is
            // due, or a reply arrives on one endpoint (they take turns)
            let until_due = due(sent.min(total - 1)).saturating_duration_since(Instant::now());
            let wait = if sent < total && !until_due.is_zero() {
                until_due
            } else {
                Duration::from_micros(500)
            };
            if let Ok(frame) = self.endpoints[flip].recv_timeout(wait) {
                let s = tracer.begin("gen.recv", flip as u64, None);
                self.on_frame(flip, frame);
                tracer.end(s);
            }
            flip = (flip + 1) % clients;
        }
    }

    fn outstanding(&self) -> usize {
        self.pending.iter().map(BTreeMap::len).sum()
    }
}

/// Runs one `live_steady` block.
fn steady_block(p: &Params, seed: u64, tracer: &mut Tracer) -> Block {
    let rate = p.rate_per_client.expect("open loop has a rate");
    let period = Duration::from_secs_f64(1.0 / rate);
    let total = p.cmds_per_client * CLIENTS;

    let setup_started = Instant::now();
    let (cluster, endpoints) = spawn(p, seed);
    let mut gen = OpenLoop {
        p,
        seed,
        registry: &cluster.registry,
        endpoints: &endpoints,
        pending: (0..CLIENTS).map(|_| BTreeMap::new()).collect(),
        accepted: Vec::with_capacity(total + 1),
        timings: Vec::with_capacity(total + 1),
        frames_in: 0,
    };
    // set-up ends when the cluster has committed and acknowledged one command
    gen.send(0, 0, Instant::now());
    while gen.accepted.is_empty() && setup_started.elapsed() < LIMIT * 10 {
        if let Ok(frame) = endpoints[0].recv_timeout(Duration::from_millis(50)) {
            gen.on_frame(0, frame);
        }
    }
    let setup_s = setup_started.elapsed().as_secs_f64();
    let warmups = gen.accepted.len();
    gen.timings.clear();
    // pipelined sequence numbers must stay under the nodes' per-client
    // quota: a command refused there can never commit once later ones have
    let window = cluster.client_quota * 3 / 4;

    // command i is client i % CLIENTS's; the clients' schedules interleave
    let t0 = Instant::now() + Duration::from_millis(1);
    let cpu_started = process_cpu_ns();
    // a fresh thread, so that whatever the calling thread did before
    // (set-up, the ledger's CPU-bound loops) does not weigh on how the
    // scheduler treats the generator
    let late_ms = thread::scope(|s| {
        s.spawn(|| gen.run(t0, period, total, window, tracer))
            .join()
            .expect("generator thread panicked")
    });
    let finished = Instant::now();
    let cpu_s = (process_cpu_ns() - cpu_started) as f64 / 1e9;
    let (accepted, timings, frames_in) = (gen.accepted, gen.timings, gen.frames_in);
    let (reports, delivered) = cluster.stop();

    let mut block = Block {
        wall_s: (finished - t0).as_secs_f64(),
        cpu_s,
        attempted: total as u64,
        setup_s: Some(setup_s),
        ..Block::default()
    };
    for (i, (due, at)) in timings.iter().enumerate() {
        tracer.record("request", i as u64, *due, *at);
        if *at - *due <= LIMIT {
            block.latencies_ms.push((*at - *due).as_secs_f64() * 1e3);
        }
    }
    block.failed = block.attempted - block.latencies_ms.len() as u64;
    block.stalled = stall(p, &reports);
    if warmups != 1 {
        block.fail("the cluster never acknowledged its first command".into());
    } else if let Err(why) = verify(p, seed, &accepted, &reports) {
        block.fail(why);
    }
    if tracer.is_on() {
        let matching: usize = accepted.iter().map(|a| a.matching).sum();
        node_metrics(p, &mut block, &reports, delivered + frames_in);
        let l = &mut block.layer;
        l.insert("client.attempts_per_cmd", 1.0);
        l.insert(
            "client.matching_replies",
            matching as f64 / accepted.len().max(1) as f64,
        );
        l.insert("client.p99_ms", percentile(&block.latencies_ms, 0.99));
        l.insert("gen.late_p99_ms", percentile(&late_ms, 0.99));
        l.insert("gen.late_max_ms", percentile(&late_ms, 1.0));
    }
    block
}

/// Runs one `live_byz` block.
fn byz_block(p: &Params, seed: u64, tracer: &mut Tracer) -> Block {
    let setup_started = Instant::now();
    let (cluster, endpoints) = spawn(p, seed);
    // retries are the client's defaults; one attempt waits as long as
    // `workload_bench`'s clients do
    let config = ClientConfig::new(p.nodes, p.faults, p.delta * 8 + Duration::from_millis(500));
    let mut clients: Vec<CsmClient<MemTransport>> = endpoints
        .into_iter()
        .map(|t| CsmClient::new(t, Arc::clone(&cluster.registry), config.clone()))
        .collect();
    let mut accepted = Vec::new();
    let submit = |client: usize, c: &mut CsmClient<MemTransport>| {
        let seq = c.next_seq();
        let shard = (client % p.shards) as u64;
        c.submit(shard, vec![amount(seed, client, seq)])
            .map(|r| Accepted {
                client,
                seq,
                round: r.round,
                output: r.output,
                matching: r.matching,
                attempts: r.attempts,
            })
    };
    // set-up ends when the cluster has committed and acknowledged one command
    let warmup = submit(0, &mut clients[0]);
    let setup_s = setup_started.elapsed().as_secs_f64();
    let warmed = warmup.is_ok();
    accepted.extend(warmup);

    let started = Instant::now();
    let cpu_started = process_cpu_ns();
    let per_client: Vec<Vec<(Instant, Instant, Option<Accepted>)>> = thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(client, c)| {
                let submit = &submit;
                s.spawn(move || {
                    let mut done = Vec::with_capacity(p.cmds_per_client);
                    for _ in 0..p.cmds_per_client {
                        let at = Instant::now();
                        let receipt = submit(client, c).ok();
                        let gave_up = receipt.is_none();
                        done.push((at, Instant::now(), receipt));
                        if gave_up {
                            // every retry timed out: the cluster has
                            // stopped, and the rest would only wait too
                            break;
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = (process_cpu_ns() - cpu_started) as f64 / 1e9;
    let (reports, delivered) = cluster.stop();

    let mut block = Block {
        wall_s,
        cpu_s,
        attempted: (p.cmds_per_client * CLIENTS) as u64,
        setup_s: Some(setup_s),
        ..Block::default()
    };
    for (i, (at, done, receipt)) in per_client.into_iter().flatten().enumerate() {
        if let Some(a) = receipt {
            block.latencies_ms.push((done - at).as_secs_f64() * 1e3);
            tracer.record("request", i as u64, at, done);
            accepted.push(a);
        }
    }
    block.failed = block.attempted - block.latencies_ms.len() as u64;
    block.stalled = stall(p, &reports);
    if !warmed {
        block.fail("the cluster never acknowledged its first command".into());
    } else if let Err(why) = verify(p, seed, &accepted, &reports) {
        block.fail(why);
    }
    if tracer.is_on() {
        let n = accepted.len().max(1) as f64;
        // every reply a client can see is one of the frames nodes sent
        let replies: u64 = reports.iter().map(|r| r.stats.replies_sent).sum();
        node_metrics(p, &mut block, &reports, delivered + replies);
        let l = &mut block.layer;
        l.insert(
            "client.attempts_per_cmd",
            accepted.iter().map(|a| f64::from(a.attempts)).sum::<f64>() / n,
        );
        l.insert(
            "client.matching_replies",
            accepted.iter().map(|a| a.matching as f64).sum::<f64>() / n,
        );
        l.insert("client.p99_ms", percentile(&block.latencies_ms, 0.99));
    }
    block
}

pub fn run_block(p: &Params, seed: u64, tracer: &mut Tracer) -> Block {
    if p.rate_per_client.is_some() {
        steady_block(p, seed, tracer)
    } else {
        byz_block(p, seed, tracer)
    }
}

/// The `node.*` rows, from the gateways' own reports over the cluster's
/// whole life: ratios from the last node (always honest), totals summed.
fn node_metrics(p: &Params, block: &mut Block, reports: &[GatewayReport<Fp61>], frames: u64) {
    let Some(last) = reports.last() else { return };
    let cmds = block.committed().max(1) as f64;
    let life_s = block.setup_s.unwrap_or(0.0) + block.wall_s;
    let useful = last.rounds.saturating_sub(last.stats.empty_rounds);
    let sum = |f: fn(&GatewayReport<Fp61>) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let rejected =
        sum(|r| r.stats.rejected_full + r.stats.rejected_invalid + r.stats.rejected_quota);
    let l = &mut block.layer;
    l.insert("node.rounds_per_s", last.rounds as f64 / life_s);
    l.insert(
        "node.empty_round_share",
        last.stats.empty_rounds as f64 / last.rounds.max(1) as f64,
    );
    l.insert(
        "node.cmds_per_round",
        last.stats.commands_committed as f64 / useful.max(1) as f64,
    );
    l.insert("node.replies_per_cmd", sum(|r| r.stats.replies_sent) / cmds);
    l.insert("node.stage_fallbacks", sum(|r| r.stats.stage_fallbacks));
    l.insert(
        "node.rejected_share",
        rejected / (rejected + sum(|r| r.stats.admitted)).max(1.0),
    );
    l.insert("transport.frames_per_cmd", frames as f64 / cmds);
    l.insert(
        "node.decodes_per_cmd",
        (last.rounds * p.nodes as u64) as f64 / cmds,
    );
}

/// The checks `verify_bank_outcome` makes, over this harness's receipts:
/// per shard, replaying the accepted commands in commit-round order must
/// reproduce the balance chain (every command of a round reports the
/// shard's post-round balance, and the final balance accounts for every
/// accepted deposit exactly once); honest nodes' commit digests must
/// agree round by round.
fn verify(
    p: &Params,
    seed: u64,
    accepted: &[Accepted],
    reports: &[GatewayReport<Fp61>],
) -> Result<(), String> {
    for shard in 0..p.shards {
        let mut rounds: BTreeMap<u64, (u64, Vec<&Accepted>)> = BTreeMap::new();
        let mut seen = std::collections::BTreeSet::new();
        for a in accepted.iter().filter(|a| a.client % p.shards == shard) {
            if a.output.len() != 2 || a.output[0] != a.output[1] {
                return Err(format!(
                    "client {} seq {}: malformed output",
                    a.client, a.seq
                ));
            }
            if !seen.insert((a.client, a.seq)) {
                return Err(format!("client {} seq {} accepted twice", a.client, a.seq));
            }
            let slot = rounds.entry(a.round).or_default();
            slot.0 += amount(seed, a.client, a.seq);
            slot.1.push(a);
        }
        let mut balance = initial_balance(shard);
        for (round, (deposited, commands)) in &rounds {
            balance += deposited;
            if let Some(a) = commands.iter().find(|a| a.output[0] != balance) {
                return Err(format!(
                    "shard {shard} round {round}: client {} seq {} accepted balance {} != reference {balance}",
                    a.client, a.seq, a.output[0]
                ));
            }
        }
    }
    // keyed by the gateway's round (the record's position): after a
    // round that failed to decode, a node's engine counter — the `round`
    // inside its commit records — runs one behind its peers'. Only rounds
    // that every node completed count: the cluster is stopped after the
    // last acknowledgement, nodes leave one by one, and a last round run
    // with the equivocator but without most honest peers decodes anything
    let common = common_rounds(reports);
    let digests = |r: &GatewayReport<Fp61>| -> BTreeMap<u64, u64> {
        let rounds = r.first_recorded_round..common;
        rounds
            .zip(&r.commits)
            .filter_map(|(round, c)| Some((round, c.as_ref()?.digest)))
            .collect()
    };
    let mut honest = reports.iter().filter(|r| !p.byzantine.contains(&r.id));
    if let Some(first) = honest.next() {
        let reference = digests(first);
        for other in honest {
            for (round, digest) in digests(other) {
                if reference.get(&round).is_some_and(|d| *d != digest) {
                    return Err(format!(
                        "round {round} of {common}: honest nodes {} and {} committed different \
                         digests",
                        first.id, other.id
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Rounds that every node of the cluster completed.
fn common_rounds(reports: &[GatewayReport<Fp61>]) -> u64 {
    reports.iter().map(|r| r.rounds).min().unwrap_or(0)
}

/// Whether the box held an honest gateway up for longer than Δ in this
/// block — the synchrony assumption broken from outside — and how it
/// shows. A diagnosis printed next to the block, never an excuse: the
/// block's failures and its timings count as they are.
///
/// The sign is an honest gateway that finalised a round without all the
/// results its live peers sent: it was descheduled past the deadline, and
/// `run_exchange_round` honours the deadline with whatever it had
/// *absorbed*, although the rest sat unread in its inbox. With fewer than
/// `dim` symbols the decode fails; with exactly `dim`, one of them an
/// equivocator's, it "succeeds" on wrong results; either way the node's
/// peers then hold a commit it does not, it fail-stops on the desync
/// check a few rounds later, and the cluster limps (the word is never
/// full again, every exchange waits out Δ). Each workload's Δ is chosen
/// above the stalls measured on this box so that this stays rare.
///
/// Only rounds that every node completed are looked at: while the
/// cluster is being stopped, nodes leave one by one and the last rounds
/// are under-filled by construction.
fn stall(p: &Params, reports: &[GatewayReport<Fp61>]) -> Option<String> {
    // the withholders' results never arrive; everyone else's should
    let expected = p.nodes - p.byzantine.len().saturating_sub(1);
    let common = common_rounds(reports);
    for r in reports.iter().filter(|r| !p.byzantine.contains(&r.id)) {
        if r.stats.desynced {
            return Some(format!(
                "honest node {} fail-stopped on the desync check after {} rounds",
                r.id, r.rounds
            ));
        }
        let rounds = r.first_recorded_round..common;
        for (round, commit) in rounds.zip(&r.commits) {
            let held = commit.as_ref().map(|c| c.results_held);
            if held.is_none_or(|h| h < expected) {
                return Some(format!(
                    "honest node {} finalised round {round} with {held:?} of {expected} results \
                     (a stall longer than Δ)",
                    r.id
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accepted(client: usize, seq: u64, round: u64, balance: u64) -> Accepted {
        Accepted {
            client,
            seq,
            round,
            output: vec![balance, balance],
            matching: 2,
            attempts: 1,
        }
    }

    #[test]
    fn balance_chain_accepts_the_reference_and_rejects_a_lost_deposit() {
        let p = Params::steady(2);
        let (a0, a1) = (amount(5, 0, 0), amount(5, 0, 1));
        // both commands of client 0 commit in round 3: one post-round balance
        let good = [
            accepted(0, 0, 3, 100 + a0 + a1),
            accepted(0, 1, 3, 100 + a0 + a1),
        ];
        assert_eq!(verify(&p, 5, &good, &[]), Ok(()));
        // a later round that forgot the first two deposits
        let bad = [
            good[0].clone(),
            good[1].clone(),
            accepted(0, 2, 4, 100 + amount(5, 0, 2)),
        ];
        assert!(verify(&p, 5, &bad, &[]).is_err());
        // the same command accepted twice
        let twice = [good[0].clone(), good[0].clone()];
        assert!(verify(&p, 5, &twice, &[]).is_err());
    }

    fn report(id: usize, digests: &[Option<u64>], desynced: bool) -> GatewayReport<Fp61> {
        let commits = digests
            .iter()
            .enumerate()
            .map(|(i, d)| {
                d.map(|digest| csm_node::RoundCommit {
                    // the engine's counter: one behind after a failed decode
                    round: digests[..i].iter().flatten().count() as u64,
                    results: Vec::new(),
                    digest,
                    results_held: 4,
                    detected_error_nodes: Vec::new(),
                })
            })
            .collect();
        GatewayReport {
            id,
            commits,
            first_recorded_round: 0,
            rounds: digests.len() as u64,
            stats: csm_node::GatewayStats {
                desynced,
                ..Default::default()
            },
            recovery: None,
        }
    }

    #[test]
    fn digests_are_compared_by_gateway_round() {
        let p = Params::steady(1);
        // node 1 failed to decode round 1: its later records carry an
        // engine round one behind, but sit at the right positions
        let agree = [
            report(0, &[Some(10), Some(11), Some(12)], false),
            report(1, &[Some(10), None, Some(12)], true),
        ];
        assert_eq!(verify(&p, 1, &[], &agree), Ok(()));
        let split = [
            agree[0].clone(),
            report(1, &[Some(10), Some(99), Some(12)], false),
        ];
        assert!(verify(&p, 1, &[], &split).is_err());
    }

    #[test]
    fn only_an_honest_nodes_trouble_is_a_stall() {
        // the helper's records hold 4 results: a full word when N = 4
        let p = Params::steady(1);
        let full = [Some(1), Some(2), Some(3)];
        let quiet = [report(0, &full, false), report(1, &full, false)];
        assert_eq!(stall(&p, &quiet), None);
        let stopped = [report(0, &full, false), report(1, &full, true)];
        assert!(stall(&p, &stopped).is_some_and(|why| why.contains("node 1 fail-stopped")));
        // a round that did not decode, inside the rounds every node completed
        let missed = [
            report(0, &full, false),
            report(1, &[Some(1), None, Some(3)], false),
        ];
        assert!(stall(&p, &missed).is_some_and(|why| why.contains("round 1")));
        // the same hole in the last round, which the other node never ran:
        // the cluster was being stopped
        let stopping = [
            report(0, &full[..2], false),
            report(1, &[Some(1), Some(2), None], false),
        ];
        assert_eq!(stall(&p, &stopping), None);

        // N = 8 with one withholder expects 7 results: 4 is a short word,
        // unless the node holding it is itself Byzantine
        let p = Params::byz(1);
        assert!(stall(&p, &[report(5, &full, false)]).is_some());
        assert_eq!(stall(&p, &[report(0, &full, true)]), None);
    }

    #[test]
    fn cast_follows_the_byzantine_list() {
        let p = Params::byz(1);
        assert_eq!(p.behavior(0), BehaviorKind::Equivocate);
        assert_eq!(p.behavior(1), BehaviorKind::Withhold);
        assert_eq!(p.behavior(7), BehaviorKind::Honest);
        assert_eq!(Params::steady(1).behavior(0), BehaviorKind::Honest);
    }
}
