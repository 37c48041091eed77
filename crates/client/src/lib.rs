//! # csm-client
//!
//! The client side of a CSM deployment (§1/§3): an external client
//! broadcasts a signed command to the `N`-node cluster and accepts the
//! output only after **`b + 1` bit-identical replies** from distinct
//! nodes — with at most `b` Byzantine nodes, any `b + 1` matching replies
//! include an honest one, so the accepted value is correct.
//! [`ClientCore`] is the one client state machine that applies this
//! rule, with no clock and no transport, and [`CsmClient`] drives it over
//! a real [`csm_transport::Transport`].
//!
//! Clients share the nodes' transport mesh and key registry: ids
//! `0..cluster` are nodes, ids `cluster..` are clients (see
//! `csm_node::mesh_registry`), so client submissions are MAC'd like every
//! other frame and nodes bind the submission to the signing key —
//! a Byzantine node cannot submit commands in a client's name.
//!
//! Submission is **at-least-once with idempotent admission**: a client
//! that times out re-sends the same `(client, seq)` command, and the
//! node-side gateway deduplicates and answers retries of committed
//! commands from a reply cache, so a command is executed at most once
//! however many times it is sent. Every command takes a fresh sequence
//! number, and one that is given up keeps its number spent: a late reply
//! to it cannot be taken for the reply to a later command.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod core;

pub use crate::core::{Accepted, ClientCore, Ticket};
use csm_network::auth::KeyRegistry;
use csm_telemetry::TelemetrySnapshot;
use csm_transport::{Frame, Payload, Transport};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side timing and quorum parameters.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Protocol mesh size `N` (node ids `0..cluster`).
    pub cluster: usize,
    /// Provisioned fault bound `b`: outputs are accepted at `b + 1`
    /// matching replies.
    pub assumed_faults: usize,
    /// How long one submission attempt waits for the reply quorum before
    /// re-sending.
    pub reply_timeout: Duration,
    /// Total attempts (first send + retries) before giving up.
    pub max_attempts: u32,
}

impl ClientConfig {
    /// A config with sane retry defaults.
    pub fn new(cluster: usize, assumed_faults: usize, reply_timeout: Duration) -> Self {
        assert!(assumed_faults < cluster, "need b < N");
        ClientConfig {
            cluster,
            assumed_faults,
            reply_timeout,
            max_attempts: 10,
        }
    }
}

/// Proof of one accepted command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// The shard the command ran on.
    pub shard: u64,
    /// The command's sequence number.
    pub seq: u64,
    /// The round that committed it (agreed by the reply quorum).
    pub round: u64,
    /// The accepted output: the shard's flat `(S', Y)` result in
    /// canonical `u64` form.
    pub output: Vec<u64>,
    /// How many replies matched (≥ `b + 1`).
    pub matching: usize,
    /// Submit-to-accept wall-clock latency (includes retries).
    pub latency: Duration,
    /// Attempts used (1 = no retry).
    pub attempts: u32,
}

/// Proof of one accepted read-only query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReceipt {
    /// The queried shard.
    pub shard: u64,
    /// The query id used.
    pub qid: u64,
    /// The committed round the value belongs to (agreed by the quorum).
    pub round: u64,
    /// The accepted shard state `S_k` in canonical `u64` form.
    pub value: Vec<u64>,
    /// How many replies matched (≥ `b + 1`).
    pub matching: usize,
    /// Query-to-accept wall-clock latency (includes retries).
    pub latency: Duration,
    /// Attempts used (1 = no retry).
    pub attempts: u32,
}

/// Why a submission failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// No value reached `b + 1` matching replies within every attempt
    /// (`seq` is the command's sequence number, or the query id for a
    /// read-only query). The number stays spent: the client's next
    /// request takes a fresh one.
    NoQuorum {
        /// The command's sequence number (or query id).
        seq: u64,
        /// Best matching count observed across all replies.
        best_matching: usize,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::NoQuorum { seq, best_matching } => write!(
                f,
                "command seq {seq}: no output reached the reply quorum (best {best_matching})"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

/// One client endpoint: drives a [`ClientCore`] over a transport, with
/// `max_attempts` sends that each wait `reply_timeout` for the quorum.
#[derive(Debug)]
pub struct CsmClient<T: Transport> {
    transport: T,
    registry: Arc<KeyRegistry>,
    cfg: ClientConfig,
    core: ClientCore,
    next_nonce: u64,
}

impl<T: Transport> CsmClient<T> {
    /// Wraps a client transport endpoint (its `local_id` must lie outside
    /// the cluster range).
    ///
    /// # Panics
    ///
    /// Panics if the endpoint id is a cluster node id.
    pub fn new(transport: T, registry: Arc<KeyRegistry>, cfg: ClientConfig) -> Self {
        let core = ClientCore::new(
            transport.local_id(),
            cfg.cluster,
            cfg.assumed_faults,
            Arc::clone(&registry),
        );
        CsmClient {
            transport,
            registry,
            cfg,
            core,
            next_nonce: 0,
        }
    }

    /// This client's registry id.
    pub fn id(&self) -> u64 {
        self.transport.local_id().0 as u64
    }

    /// The sequence number the next [`CsmClient::submit`] uses.
    pub fn next_seq(&self) -> u64 {
        self.core.next_seq()
    }

    /// Submits `command` (canonical field elements) to `shard` on every
    /// cluster node and blocks until `b + 1` nodes reply with the same
    /// `(round, output)`, retrying per the config. Every call takes a
    /// fresh sequence number; retries within the call re-send the same
    /// `(client, seq)`, which nodes execute at most once.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoQuorum`] when every attempt times out short of
    /// the quorum — the command may or may not have committed, and its
    /// sequence number is spent: a late reply to it can never settle a
    /// later command.
    pub fn submit(&mut self, shard: u64, command: Vec<u64>) -> Result<Receipt, ClientError> {
        let (seq, frame) = self.core.submit(shard, command);
        let started = Instant::now();
        let accepted = self.settle(Ticket::Submit(seq), frame)?;
        Ok(Receipt {
            shard,
            seq,
            round: accepted.round,
            output: accepted.output,
            matching: accepted.matching,
            latency: started.elapsed(),
            attempts: accepted.attempts,
        })
    }

    /// Reads a shard's *committed, durable* state without consuming a
    /// round: broadcasts a signed [`Payload::Query`] and blocks until
    /// `b + 1` nodes reply with the same `(round, value)` pair, retrying
    /// per the config. With at most `b` Byzantine nodes, the accepted
    /// pair includes an honest voucher, so a read can never observe a
    /// value no honest node committed (and, on durable clusters, logged).
    ///
    /// Reads are served from each node's latest committed round, and the
    /// first `(round, value)` pair to reach `b + 1` matches wins — honest
    /// nodes lag each other by a round, so successive queries may observe
    /// rounds that go *backwards*, and a read racing a write may observe
    /// the pre-write state. Within one accepted receipt the
    /// `(round, value)` pair is a real committed state; callers needing
    /// read-your-write re-query until `round` reaches their receipt's
    /// round.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoQuorum`] when every attempt times out short of
    /// the quorum — e.g. nodes sit at different committed rounds during
    /// an active burst; retrying is always safe (reads have no effects).
    pub fn query(&mut self, shard: u64) -> Result<QueryReceipt, ClientError> {
        let (qid, frame) = self.core.query(shard);
        let started = Instant::now();
        let accepted = self.settle(Ticket::Query(qid), frame)?;
        Ok(QueryReceipt {
            shard,
            qid,
            round: accepted.round,
            value: accepted.output,
            matching: accepted.matching,
            latency: started.elapsed(),
            attempts: accepted.attempts,
        })
    }

    /// Sends `frame` up to `max_attempts` times, each time feeding the
    /// core replies for `reply_timeout`, until it accepts `ticket`.
    fn settle(&mut self, ticket: Ticket, mut frame: Frame) -> Result<Accepted, ClientError> {
        for attempt in 1..=self.cfg.max_attempts {
            if attempt > 1 {
                frame = self
                    .core
                    .retry(ticket)
                    .expect("an unsettled ticket is pending");
            }
            let _ = self.transport.broadcast_upto(self.cfg.cluster, &frame);
            let deadline = Instant::now() + self.cfg.reply_timeout;
            while let Some(reply) = self.recv_until(deadline) {
                if let Some(accepted) = self.core.on_frame(reply) {
                    return Ok(accepted);
                }
            }
        }
        let (Ticket::Submit(seq) | Ticket::Query(seq)) = ticket;
        Err(ClientError::NoQuorum {
            seq,
            best_matching: self.core.give_up(ticket).unwrap_or(0),
        })
    }

    /// The next frame to arrive before `deadline`; `None` once it has
    /// passed or the transport is gone.
    fn recv_until(&self, deadline: Instant) -> Option<Frame> {
        let wait = deadline.checked_duration_since(Instant::now())?;
        self.transport.recv_timeout(wait).ok()
    }

    /// Scrapes the cluster's telemetry: broadcasts a signed
    /// [`Payload::TelemetryRequest`] and collects at most one
    /// [`Payload::TelemetryReply`] per node until `timeout` elapses or
    /// every node has answered, returning the parsed snapshots sorted by
    /// node id.
    ///
    /// Unlike [`CsmClient::submit`]/[`CsmClient::query`] there is no
    /// `b + 1` quorum rule: a snapshot is each node's *self-reported*
    /// diagnostics, MAC-bound to the sender but not validated by other
    /// nodes — a Byzantine node may lie about its own metrics. Replies
    /// whose snapshot JSON fails to parse are dropped, so a malformed
    /// reply cannot poison the scrape. Missing or silent nodes simply
    /// yield no entry; callers decide how many answers they need.
    pub fn scrape(&mut self, timeout: Duration) -> Vec<(usize, TelemetrySnapshot)> {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let me = self.transport.local_id();
        let frame = Frame::sign(Payload::TelemetryRequest { nonce }, &self.registry, me);
        let _ = self.transport.broadcast_upto(self.cfg.cluster, &frame);
        let mut by_node: Vec<Option<TelemetrySnapshot>> = vec![None; self.cfg.cluster];
        let mut answered = 0usize;
        let deadline = Instant::now() + timeout;
        while answered < self.cfg.cluster {
            let Some(frame) = self.recv_until(deadline) else {
                break;
            };
            let Payload::TelemetryReply {
                nonce: r_nonce,
                node,
                snapshot,
                ..
            } = frame.payload
            else {
                continue;
            };
            let signer = frame.sig.signer.0;
            if signer >= self.cfg.cluster
                || signer as u64 != node
                || r_nonce != nonce
                || by_node[signer].is_some()
            {
                continue;
            }
            if let Ok(parsed) = TelemetrySnapshot::from_json(&snapshot) {
                by_node[signer] = Some(parsed);
                answered += 1;
            }
        }
        by_node
            .into_iter()
            .enumerate()
            .filter_map(|(node, snap)| snap.map(|s| (node, s)))
            .collect()
    }
}
