//! The sans-I/O client state machine: the one implementation of the
//! client side of §3 — sign a request, pool the nodes' replies, accept
//! at `b + 1` matching `(round, output)` pairs.
//!
//! [`ClientCore`] never sees a transport or a clock, and it holds no
//! retry or give-up policy: a driver sends the frames it hands out, feeds
//! it every frame that arrives, and decides when to [`ClientCore::retry`]
//! and when to [`ClientCore::give_up`]. The blocking
//! [`CsmClient`](crate::CsmClient) and the chaos harness's simulated
//! client swarm both drive it, so the client the chaos audit checks is
//! the client that ships. Like the gateway core, it trusts its driver to
//! have verified each frame's MAC.

use csm_core::client::{accept_replies, DeliveryStatus};
use csm_network::auth::KeyRegistry;
use csm_network::NodeId;
use csm_transport::{Frame, Payload};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Names one request the core is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ticket {
    /// A command, by its sequence number.
    Submit(u64),
    /// A read-only query, by its query id.
    Query(u64),
}

/// A request that reached `b + 1` matching replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accepted {
    /// The settled request.
    pub ticket: Ticket,
    /// The round the quorum agreed on: the commit round of a command,
    /// the committed round a query read.
    pub round: u64,
    /// The agreed value: a command's output, or a queried shard's state,
    /// in canonical `u64` form.
    pub output: Vec<u64>,
    /// How many replies matched (≥ `b + 1`).
    pub matching: usize,
    /// Attempts made (1 = no retry).
    pub attempts: u32,
}

/// One request awaiting its quorum.
#[derive(Debug)]
struct Pending {
    shard: u64,
    frame: Frame,
    attempts: u32,
    /// First `(round, output)` per replying node.
    replies: Vec<Option<(u64, Vec<u64>)>>,
    /// Best matching count seen so far, across attempts.
    best: usize,
}

/// One client's request and reply state, with no I/O.
#[derive(Debug)]
pub struct ClientCore {
    id: NodeId,
    cluster: usize,
    need: usize,
    registry: Arc<KeyRegistry>,
    next_seq: u64,
    next_qid: u64,
    pending: BTreeMap<Ticket, Pending>,
}

impl ClientCore {
    /// The state of client `id` of a cluster of `cluster` nodes that
    /// tolerates `assumed_faults` Byzantine ones.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a cluster node id, or unless `assumed_faults <
    /// cluster`.
    pub fn new(
        id: NodeId,
        cluster: usize,
        assumed_faults: usize,
        registry: Arc<KeyRegistry>,
    ) -> Self {
        assert!(assumed_faults < cluster, "need b < N");
        assert!(
            id.0 >= cluster,
            "client id {} collides with the cluster 0..{cluster}",
            id.0
        );
        ClientCore {
            id,
            cluster,
            need: assumed_faults + 1,
            registry,
            next_seq: 0,
            next_qid: 0,
            pending: BTreeMap::new(),
        }
    }

    /// The sequence number the next [`ClientCore::submit`] uses.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Signs command `command` for `shard` under a fresh sequence number
    /// and starts waiting for its replies. A sequence number is never
    /// handed out twice, even once its command is given up: a late reply
    /// to it can then only ever settle the command it answers.
    pub fn submit(&mut self, shard: u64, command: Vec<u64>) -> (u64, Frame) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let payload = Payload::Submit {
            shard,
            client: self.id.0 as u64,
            seq,
            command,
        };
        (seq, self.open(Ticket::Submit(seq), shard, payload))
    }

    /// Signs a read-only query of `shard` under a fresh query id and
    /// starts waiting for its replies.
    pub fn query(&mut self, shard: u64) -> (u64, Frame) {
        let qid = self.next_qid;
        self.next_qid += 1;
        let client = self.id.0 as u64;
        let payload = Payload::Query { shard, client, qid };
        (qid, self.open(Ticket::Query(qid), shard, payload))
    }

    fn open(&mut self, ticket: Ticket, shard: u64, payload: Payload) -> Frame {
        let frame = Frame::sign(payload, &self.registry, self.id);
        let pending = Pending {
            shard,
            frame: frame.clone(),
            attempts: 1,
            replies: vec![None; self.cluster],
            best: 0,
        };
        self.pending.insert(ticket, pending);
        frame
    }

    /// Takes one authenticated frame. A `Reply` or `QueryReply` from a
    /// cluster node that names this client, a pending request and its
    /// shard fills that node's slot if it is still empty — the first
    /// reply per node wins, so a Byzantine node cannot outvote by
    /// repeating itself; anything else is dropped. Returns the request
    /// this reply settled, at `b + 1` matching `(round, output)` pairs
    /// ([`accept_replies`]).
    pub fn on_frame(&mut self, frame: Frame) -> Option<Accepted> {
        let node = frame.sig.signer.0;
        let (ticket, shard, client, round, output) = match frame.payload {
            Payload::Reply {
                shard,
                round,
                client,
                seq,
                output,
            } => (Ticket::Submit(seq), shard, client, round, output),
            Payload::QueryReply {
                shard,
                round,
                client,
                qid,
                value,
            } => (Ticket::Query(qid), shard, client, round, value),
            _ => return None,
        };
        if node >= self.cluster || client != self.id.0 as u64 {
            return None;
        }
        let pending = self.pending.get_mut(&ticket)?;
        if pending.shard != shard || pending.replies[node].is_some() {
            return None;
        }
        pending.replies[node] = Some((round, output));
        match accept_replies(&pending.replies, self.need) {
            DeliveryStatus::Accepted {
                value: (round, output),
                matching,
            } => {
                let attempts = self.pending.remove(&ticket)?.attempts;
                Some(Accepted {
                    ticket,
                    round,
                    output,
                    matching,
                    attempts,
                })
            }
            DeliveryStatus::Failed { best_matching } => {
                pending.best = pending.best.max(best_matching);
                None
            }
        }
    }

    /// Counts one more attempt at a pending request and returns its frame
    /// to re-send, or `None` if it is settled or given up. A submit keeps
    /// the replies it pooled: every honest reply to a command carries its
    /// one commit. A query forgets them: nodes answer from their current
    /// committed round, so a fresh attempt re-samples a consistent quorum.
    pub fn retry(&mut self, ticket: Ticket) -> Option<Frame> {
        let pending = self.pending.get_mut(&ticket)?;
        pending.attempts += 1;
        if let Ticket::Query(_) = ticket {
            pending.replies.fill(None);
        }
        Some(pending.frame.clone())
    }

    /// Attempts made at a pending request so far, or `None` if it is
    /// settled or given up.
    pub fn attempts(&self, ticket: Ticket) -> Option<u32> {
        self.pending.get(&ticket).map(|p| p.attempts)
    }

    /// Stops waiting for a pending request and returns the best matching
    /// count it saw, or `None` if it is settled or given up. Its sequence
    /// number or query id stays spent.
    pub fn give_up(&mut self, ticket: Ticket) -> Option<usize> {
        self.pending.remove(&ticket).map(|p| p.best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 4;
    const ME: usize = N;

    fn client(faults: usize) -> (ClientCore, Arc<KeyRegistry>) {
        let registry = Arc::new(KeyRegistry::new(N + 2, 3));
        let core = ClientCore::new(NodeId(ME), N, faults, Arc::clone(&registry));
        (core, registry)
    }

    /// A `Reply` to `(client, seq)` on `shard`, signed by `node`.
    fn reply(
        reg: &KeyRegistry,
        node: usize,
        client: usize,
        seq: u64,
        shard: u64,
        value: (u64, u64),
    ) -> Frame {
        let (round, output) = value;
        let payload = Payload::Reply {
            shard,
            round,
            client: client as u64,
            seq,
            output: vec![output],
        };
        Frame::sign(payload, reg, NodeId(node))
    }

    fn query_reply(reg: &KeyRegistry, node: usize, qid: u64, value: (u64, u64)) -> Frame {
        let (round, value) = value;
        let payload = Payload::QueryReply {
            shard: 0,
            round,
            client: ME as u64,
            qid,
            value: vec![value],
        };
        Frame::sign(payload, reg, NodeId(node))
    }

    #[test]
    fn the_first_reply_per_node_wins() {
        let (mut core, reg) = client(1);
        let (seq, _) = core.submit(0, vec![1]);
        assert_eq!(core.on_frame(reply(&reg, 0, ME, seq, 0, (3, 9))), None);
        // node 0 changing its answer, or repeating it, counts once
        assert_eq!(core.on_frame(reply(&reg, 0, ME, seq, 0, (3, 5))), None);
        assert_eq!(core.on_frame(reply(&reg, 0, ME, seq, 0, (3, 9))), None);
        assert_eq!(core.on_frame(reply(&reg, 1, ME, seq, 0, (3, 5))), None);
        let accepted = core.on_frame(reply(&reg, 2, ME, seq, 0, (3, 5)));
        assert_eq!(
            accepted,
            Some(Accepted {
                ticket: Ticket::Submit(seq),
                round: 3,
                output: vec![5],
                matching: 2,
                attempts: 1,
            })
        );
    }

    #[test]
    fn round_and_output_must_both_match() {
        let (mut core, reg) = client(1);
        let (seq, _) = core.submit(0, vec![1]);
        assert_eq!(core.on_frame(reply(&reg, 0, ME, seq, 0, (1, 5))), None);
        assert_eq!(core.on_frame(reply(&reg, 1, ME, seq, 0, (2, 5))), None);
        assert_eq!(core.on_frame(reply(&reg, 2, ME, seq, 0, (2, 6))), None);
        let accepted = core.on_frame(reply(&reg, 3, ME, seq, 0, (2, 5))).unwrap();
        assert_eq!((accepted.round, accepted.output), (2, vec![5]));
    }

    #[test]
    fn replies_naming_another_client_seq_or_shard_are_dropped() {
        // b = 0: any one reply that got through would settle the command
        let (mut core, reg) = client(0);
        let (seq, _) = core.submit(1, vec![1]);
        let strays = [
            reply(&reg, 0, ME + 1, seq, 1, (0, 5)),
            reply(&reg, 0, ME, seq + 1, 1, (0, 5)),
            reply(&reg, 0, ME, seq, 0, (0, 5)),
            // a client is not a node
            reply(&reg, ME + 1, ME, seq, 1, (0, 5)),
            // a query reply numbered like the command
            query_reply(&reg, 0, seq, (0, 5)),
        ];
        for stray in strays {
            assert_eq!(core.on_frame(stray.clone()), None, "{stray:?}");
        }
        assert_eq!(core.attempts(Ticket::Submit(seq)), Some(1));
        assert!(core.on_frame(reply(&reg, 0, ME, seq, 1, (0, 5))).is_some());
    }

    #[test]
    fn a_submit_pools_replies_across_attempts_and_a_query_resamples() {
        let (mut core, reg) = client(1);
        let (seq, sent) = core.submit(0, vec![1]);
        let ticket = Ticket::Submit(seq);
        assert_eq!(core.on_frame(reply(&reg, 0, ME, seq, 0, (4, 5))), None);
        assert_eq!(core.retry(ticket), Some(sent), "a retry re-sends the frame");
        let accepted = core.on_frame(reply(&reg, 1, ME, seq, 0, (4, 5))).unwrap();
        assert_eq!((accepted.matching, accepted.attempts), (2, 2));

        let (qid, _) = core.query(0);
        let ticket = Ticket::Query(qid);
        assert_eq!(core.on_frame(query_reply(&reg, 0, qid, (4, 5))), None);
        assert!(core.retry(ticket).is_some());
        // node 0's answer belonged to the first sample
        assert_eq!(core.on_frame(query_reply(&reg, 1, qid, (4, 5))), None);
        let accepted = core
            .on_frame(query_reply(&reg, 0, qid, (5, 7)))
            .map(|a| a.output);
        assert_eq!(accepted, None);
        let accepted = core.on_frame(query_reply(&reg, 2, qid, (5, 7))).unwrap();
        assert_eq!(accepted.ticket, ticket);
        assert_eq!(
            (accepted.round, accepted.output, accepted.attempts),
            (5, vec![7], 2)
        );
    }

    #[test]
    fn a_settled_ticket_has_nothing_to_retry_or_give_up() {
        let (mut core, reg) = client(0);
        let (seq, _) = core.submit(0, vec![1]);
        let ticket = Ticket::Submit(seq);
        assert!(core.on_frame(reply(&reg, 0, ME, seq, 0, (0, 5))).is_some());
        assert_eq!(core.retry(ticket), None);
        assert_eq!(core.give_up(ticket), None);
        assert_eq!(core.attempts(ticket), None);
        // nor does a late reply settle it twice
        assert_eq!(core.on_frame(reply(&reg, 1, ME, seq, 0, (0, 5))), None);

        let (mut core, reg) = client(2);
        let (seq, _) = core.submit(0, vec![1]);
        let ticket = Ticket::Submit(seq);
        assert_eq!(core.on_frame(reply(&reg, 0, ME, seq, 0, (0, 5))), None);
        assert_eq!(core.give_up(ticket), Some(1), "the best match count");
        assert_eq!(core.give_up(ticket), None);
        assert_eq!(core.retry(ticket), None);
    }

    #[test]
    fn a_spent_seq_is_never_handed_out_again() {
        let (mut core, reg) = client(0);
        let (first, _) = core.submit(0, vec![5]);
        assert_eq!(core.give_up(Ticket::Submit(first)), Some(0));
        let (second, frame) = core.submit(0, vec![7]);
        assert_eq!((first, second, core.next_seq()), (0, 1, 2));
        let Payload::Submit { seq, .. } = frame.payload else {
            panic!("a submit signs a Submit");
        };
        assert_eq!(seq, second);
        // the given-up command's late reply settles nothing
        assert_eq!(core.on_frame(reply(&reg, 0, ME, first, 0, (0, 105))), None);
        let accepted = core
            .on_frame(reply(&reg, 0, ME, second, 0, (1, 112)))
            .unwrap();
        assert_eq!(accepted.output, vec![112]);
    }
}
