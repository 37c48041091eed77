//! Authenticated protocol frames.
//!
//! On the wire a frame is `[u32 LE body length][body]`, where the body is
//!
//! ```text
//! u8  WIRE_VERSION
//! ..  payload (tagged union, see [`Payload`])
//! u64 signer id
//! u64 MAC tag over the encoded payload bytes
//! ```
//!
//! The tag is [`KeyRegistry::sign_bytes`] over exactly the payload bytes
//! between the version byte and the signer id: senders encode the payload
//! once into a buffer sized by [`Wire::encoded_len`], receivers MAC the
//! bytes they received ([`Frame::decode_signed`]).
//!
//! The MAC reuses [`csm_network::auth::KeyRegistry`] — the same
//! MAC-for-signature substitution the simulator uses for the paper's
//! authenticated-Byzantine model (§2.1): Byzantine nodes can say anything
//! with their *own* key, but cannot forge frames attributed to others.

use crate::wire::{Wire, WireError, WireReader};
use csm_network::auth::{KeyRegistry, Signature};
use csm_network::NodeId;
use std::fmt;
use std::io::{self, Read, Write};

/// Current wire format version.
/// Version 2 carries the word-wide MAC of `csm_network::auth`: every tag
/// differs from version 1's byte-wise one, so a peer still on version 1
/// is refused as a version mismatch rather than blamed as a forger.
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on a frame body; larger length prefixes are rejected
/// before any allocation (64 MiB).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// [`Payload::BatchVote`] phase: a PBFT pre-prepare (the view primary's
/// proposal, doubling as its prepare vote).
pub const PHASE_PRE_PREPARE: u8 = 0;
/// [`Payload::BatchVote`] phase: a PBFT prepare vote.
pub const PHASE_PREPARE: u8 = 1;
/// [`Payload::BatchVote`] phase: a PBFT commit vote.
pub const PHASE_COMMIT: u8 = 2;

/// A wire-form PBFT *prepared certificate*: proof that a quorum
/// (`⌈(N + b + 1) / 2⌉` distinct nodes — `2b + 1` when `N = 3b + 1`)
/// prepare-voted the same batch in `view`. Inner signatures travel
/// as `(signer, tag)` pairs — they are signatures by *other* nodes, so
/// they cannot be folded into the carrying frame's MAC.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PreparedCertWire {
    /// The view the batch prepared in.
    pub view: u64,
    /// The prepared batch, in `Stage`-row form.
    pub rows: Vec<Vec<u64>>,
    /// The quorum of prepare signatures as `(signer, tag)` pairs.
    pub sigs: Vec<(u64, u64)>,
}

impl Wire for PreparedCertWire {
    /// view + empty rows + empty sigs.
    const MIN_ENCODED_SIZE: usize = 8 + 4 + 4;

    fn encode(&self, out: &mut Vec<u8>) {
        self.view.encode(out);
        self.rows.encode(out);
        self.sigs.encode(out);
    }

    fn encoded_len(&self) -> usize {
        8 + self.rows.encoded_len() + self.sigs.encoded_len()
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(PreparedCertWire {
            view: u64::decode(r)?,
            rows: Vec::<Vec<u64>>::decode(r)?,
            sigs: Vec::<(u64, u64)>::decode(r)?,
        })
    }
}

/// A wire-form PBFT view-change vote, carried either directly
/// ([`Payload::BatchViewChange`]) or inside a new-view justification
/// ([`Payload::BatchNewView`]). The `(signer, tag)` pair is the voter's
/// signature over `(round, new_view, prepared summary)` — explicit
/// because justification entries are votes by nodes other than the frame
/// signer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ViewChangeWire {
    /// The view being moved to.
    pub new_view: u64,
    /// The voting node.
    pub signer: u64,
    /// The voter's signature tag.
    pub tag: u64,
    /// The voter's prepared certificate, if it prepared a batch.
    pub prepared: Option<PreparedCertWire>,
}

impl Wire for ViewChangeWire {
    /// new_view + signer + tag + absent certificate.
    const MIN_ENCODED_SIZE: usize = 8 + 8 + 8 + 1;

    fn encode(&self, out: &mut Vec<u8>) {
        self.new_view.encode(out);
        self.signer.encode(out);
        self.tag.encode(out);
        self.prepared.encode(out);
    }

    fn encoded_len(&self) -> usize {
        3 * 8 + self.prepared.encoded_len()
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ViewChangeWire {
            new_view: u64::decode(r)?,
            signer: u64::decode(r)?,
            tag: u64::decode(r)?,
            prepared: Option::<PreparedCertWire>::decode(r)?,
        })
    }
}

/// The protocol messages carried by the transport. Field elements travel
/// in canonical `u64` form (`csm_algebra::Field::to_canonical_u64`) so
/// frames are field-agnostic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Payload {
    /// A §5.2 execution result `g_i`: `values` is the flat coded result
    /// vector claimed to come from node `sender` in `round`.
    Result {
        /// Exchange round number.
        round: u64,
        /// Claimed producer of the result.
        sender: u64,
        /// Canonical field-element encoding of the result vector.
        values: Vec<u64>,
    },
    /// A commit announcement: the sender finalized `round` with the given
    /// digest of its decoded outputs (how nodes check honest-node
    /// agreement and detect that they diverged).
    Commit {
        /// Committed round number.
        round: u64,
        /// Announcing node.
        sender: u64,
        /// Order-sensitive digest of the decoded outputs.
        digest: u64,
    },
    /// Liveness / benchmarking probe.
    Ping {
        /// Echoed nonce.
        nonce: u64,
    },
    /// A staged command batch for a round: the leader-echo leader's
    /// proposal, and each follower's bit-for-bit echo of it.
    Stage {
        /// The round this batch is for.
        round: u64,
        /// Voting node.
        sender: u64,
        /// Canonical field-element encoding of the command batch (one
        /// vector per machine).
        commands: Vec<Vec<u64>>,
    },
    /// A client command submission (§1/§3 deployment model: external
    /// clients drive the cluster). The signer is the client; nodes bind
    /// the wire identity to `client` and deduplicate by `(client, seq)`,
    /// so a retried submission is idempotent.
    Submit {
        /// Target state machine (shard) index.
        shard: u64,
        /// Submitting client's registry id (must equal the MAC signer).
        client: u64,
        /// Client-chosen sequence number, expected to increase by one per
        /// accepted command (the dedup/replay key).
        seq: u64,
        /// Canonical field-element encoding of the command vector.
        command: Vec<u64>,
    },
    /// A node's post-commit answer to a [`Payload::Submit`]: the decoded
    /// result of the client's shard for the round that executed the
    /// command. Clients accept an output only after `b + 1` bit-identical
    /// replies from distinct nodes (§3).
    Reply {
        /// The shard the command ran on.
        shard: u64,
        /// The round that committed the command.
        round: u64,
        /// The client the reply is addressed to.
        client: u64,
        /// Echo of the command's sequence number.
        seq: u64,
        /// Canonical field-element encoding of the shard's flat result
        /// `(S'(t+1), Y(t))`.
        output: Vec<u64>,
    },
    /// A rejoining node asking its peers for the cluster's latest durable
    /// state (crash recovery / rejoin). The requester is the MAC signer;
    /// peers answer with [`Payload::StateChunk`].
    StateRequest {
        /// The first round the requester is missing (its locally-replayed
        /// `snapshot + log` frontier) — peers with nothing newer need not
        /// answer.
        from_round: u64,
    },
    /// One peer's answer to a [`Payload::StateRequest`]: its latest
    /// committed round's decoded results, from which any node can
    /// re-encode its own coded shard. The rejoiner accepts a round's
    /// state only once `b + 1` distinct peers agree on `(round, digest)`
    /// *and* the carried results hash to that digest — at most `b` peers
    /// are Byzantine, so agreement proves an honest vouching and a forged
    /// chunk can never be installed.
    StateChunk {
        /// The last committed round the state reflects.
        round: u64,
        /// The round's commit digest (what honest nodes gossiped).
        digest: u64,
        /// Canonical per-machine flat results `(S_k(t+1), Y_k(t))` of
        /// that round.
        results: Vec<Vec<u64>>,
    },
    /// A read-only client query against a shard's *committed, durable*
    /// state (no round is consumed). The signer is the client; nodes bind
    /// the wire identity to `client` exactly as for `Submit`.
    Query {
        /// Queried state machine (shard) index.
        shard: u64,
        /// Querying client's registry id (must equal the MAC signer).
        client: u64,
        /// Client-chosen query id echoed in the reply (distinguishes
        /// concurrent/retried queries; no dedup semantics).
        qid: u64,
    },
    /// One Dolev–Strong relay of a round leader's proposed batch: the
    /// batch plus its signature chain (leader's chain signature first,
    /// one more appended per relay hop). Chain signatures cover the
    /// domain-separated `(round, rows)` value, not the frame — the frame
    /// MAC authenticates the *relayer*, the chain authenticates the
    /// *proposal's history*.
    BatchRelay {
        /// The gateway round whose batch is being agreed.
        round: u64,
        /// The proposed batch, in `Stage`-row form.
        rows: Vec<Vec<u64>>,
        /// The signature chain as `(signer, tag)` pairs, leader first.
        chain: Vec<(u64, u64)>,
    },
    /// One PBFT batch-consensus vote (pre-prepare, prepare, or commit per
    /// [`PHASE_PRE_PREPARE`]/[`PHASE_PREPARE`]/[`PHASE_COMMIT`]). The
    /// inner signature tag belongs to the frame signer (a node only ever
    /// sends its own votes), so only the tag travels.
    BatchVote {
        /// The gateway round whose batch is being agreed.
        round: u64,
        /// The PBFT view.
        view: u64,
        /// The protocol phase (`PHASE_*` constants).
        phase: u8,
        /// The voted batch, in `Stage`-row form.
        rows: Vec<Vec<u64>>,
        /// The sender's signature tag over the domain-separated
        /// `(round, view, rows)` payload.
        tag: u64,
    },
    /// A PBFT view-change vote for a round's batch instance.
    BatchViewChange {
        /// The gateway round whose batch is being agreed.
        round: u64,
        /// The vote (its `signer` must match the frame signer).
        vote: ViewChangeWire,
    },
    /// The new primary's PBFT view installation, justified by a quorum
    /// of view-change votes.
    BatchNewView {
        /// The gateway round whose batch is being agreed.
        round: u64,
        /// The installed view.
        view: u64,
        /// The batch chosen per the view-change value rule.
        rows: Vec<Vec<u64>>,
        /// The justifying view-change votes.
        justification: Vec<ViewChangeWire>,
    },
    /// A node's answer to a [`Payload::Query`]: the shard's decoded state
    /// at the node's latest committed (durable) round. Clients accept at
    /// `b + 1` bit-identical `(round, value)` replies, so a read can
    /// never observe a state no honest node logged.
    QueryReply {
        /// The queried shard.
        shard: u64,
        /// The committed round the value is taken from.
        round: u64,
        /// The client the reply is addressed to.
        client: u64,
        /// Echo of the query id.
        qid: u64,
        /// Canonical field-element encoding of the shard state `S_k`.
        value: Vec<u64>,
    },
    /// A telemetry scrape request. Any registered identity (clients, the
    /// workload driver, monitors) may ask; gateways answer with
    /// [`Payload::TelemetryReply`]. Read-only — no round is consumed.
    TelemetryRequest {
        /// Requester-chosen nonce echoed in the reply (matches
        /// concurrent/retried scrapes).
        nonce: u64,
    },
    /// A gateway's answer to a [`Payload::TelemetryRequest`]: its
    /// point-in-time `TelemetrySnapshot` as JSON text (the snapshot
    /// schema is documented in `docs/OBSERVABILITY.md`). Telemetry is
    /// self-reported per node and MAC-bound to the reporting node, but —
    /// unlike committed outputs — not quorum-validated: a Byzantine node
    /// can lie about its own metrics.
    TelemetryReply {
        /// Echo of the request nonce.
        nonce: u64,
        /// The reporting node's id (must equal the MAC signer).
        node: u64,
        /// The node's current round at snapshot time.
        round: u64,
        /// The `TelemetrySnapshot` JSON document.
        snapshot: String,
    },
}

const TAG_RESULT: u8 = 0;
const TAG_COMMIT: u8 = 1;
const TAG_PING: u8 = 2;
const TAG_STAGE: u8 = 3;
const TAG_SUBMIT: u8 = 4;
const TAG_REPLY: u8 = 5;
const TAG_STATE_REQUEST: u8 = 6;
const TAG_STATE_CHUNK: u8 = 7;
const TAG_QUERY: u8 = 8;
const TAG_QUERY_REPLY: u8 = 9;
const TAG_BATCH_RELAY: u8 = 10;
const TAG_BATCH_VOTE: u8 = 11;
const TAG_BATCH_VIEW_CHANGE: u8 = 12;
const TAG_BATCH_NEW_VIEW: u8 = 13;
const TAG_TELEMETRY_REQUEST: u8 = 14;
const TAG_TELEMETRY_REPLY: u8 = 15;

impl Wire for Payload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Payload::Result {
                round,
                sender,
                values,
            } => {
                out.push(TAG_RESULT);
                round.encode(out);
                sender.encode(out);
                values.encode(out);
            }
            Payload::Commit {
                round,
                sender,
                digest,
            } => {
                out.push(TAG_COMMIT);
                round.encode(out);
                sender.encode(out);
                digest.encode(out);
            }
            Payload::Ping { nonce } => {
                out.push(TAG_PING);
                nonce.encode(out);
            }
            Payload::Stage {
                round,
                sender,
                commands,
            } => {
                out.push(TAG_STAGE);
                round.encode(out);
                sender.encode(out);
                commands.encode(out);
            }
            Payload::Submit {
                shard,
                client,
                seq,
                command,
            } => {
                out.push(TAG_SUBMIT);
                shard.encode(out);
                client.encode(out);
                seq.encode(out);
                command.encode(out);
            }
            Payload::Reply {
                shard,
                round,
                client,
                seq,
                output,
            } => {
                out.push(TAG_REPLY);
                shard.encode(out);
                round.encode(out);
                client.encode(out);
                seq.encode(out);
                output.encode(out);
            }
            Payload::StateRequest { from_round } => {
                out.push(TAG_STATE_REQUEST);
                from_round.encode(out);
            }
            Payload::StateChunk {
                round,
                digest,
                results,
            } => {
                out.push(TAG_STATE_CHUNK);
                round.encode(out);
                digest.encode(out);
                results.encode(out);
            }
            Payload::Query { shard, client, qid } => {
                out.push(TAG_QUERY);
                shard.encode(out);
                client.encode(out);
                qid.encode(out);
            }
            Payload::BatchRelay { round, rows, chain } => {
                out.push(TAG_BATCH_RELAY);
                round.encode(out);
                rows.encode(out);
                chain.encode(out);
            }
            Payload::BatchVote {
                round,
                view,
                phase,
                rows,
                tag,
            } => {
                out.push(TAG_BATCH_VOTE);
                round.encode(out);
                view.encode(out);
                phase.encode(out);
                rows.encode(out);
                tag.encode(out);
            }
            Payload::BatchViewChange { round, vote } => {
                out.push(TAG_BATCH_VIEW_CHANGE);
                round.encode(out);
                vote.encode(out);
            }
            Payload::BatchNewView {
                round,
                view,
                rows,
                justification,
            } => {
                out.push(TAG_BATCH_NEW_VIEW);
                round.encode(out);
                view.encode(out);
                rows.encode(out);
                justification.encode(out);
            }
            Payload::QueryReply {
                shard,
                round,
                client,
                qid,
                value,
            } => {
                out.push(TAG_QUERY_REPLY);
                shard.encode(out);
                round.encode(out);
                client.encode(out);
                qid.encode(out);
                value.encode(out);
            }
            Payload::TelemetryRequest { nonce } => {
                out.push(TAG_TELEMETRY_REQUEST);
                nonce.encode(out);
            }
            Payload::TelemetryReply {
                nonce,
                node,
                round,
                snapshot,
            } => {
                out.push(TAG_TELEMETRY_REPLY);
                nonce.encode(out);
                node.encode(out);
                round.encode(out);
                snapshot.encode(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        // the tag byte, then each variant's fields in `encode` order
        const W: usize = 8; // one u64 field
        1 + match self {
            Payload::Result { values, .. } => 2 * W + values.encoded_len(),
            Payload::Commit { .. } | Payload::Query { .. } => 3 * W,
            Payload::Ping { .. }
            | Payload::StateRequest { .. }
            | Payload::TelemetryRequest { .. } => W,
            Payload::Stage { commands, .. } => 2 * W + commands.encoded_len(),
            Payload::Submit { command, .. } => 3 * W + command.encoded_len(),
            Payload::Reply { output, .. } => 4 * W + output.encoded_len(),
            Payload::StateChunk { results, .. } => 2 * W + results.encoded_len(),
            Payload::BatchRelay { rows, chain, .. } => W + rows.encoded_len() + chain.encoded_len(),
            Payload::BatchVote { rows, .. } => 3 * W + 1 + rows.encoded_len(),
            Payload::BatchViewChange { vote, .. } => W + vote.encoded_len(),
            Payload::BatchNewView {
                rows,
                justification,
                ..
            } => 2 * W + rows.encoded_len() + justification.encoded_len(),
            Payload::QueryReply { value, .. } => 4 * W + value.encoded_len(),
            Payload::TelemetryReply { snapshot, .. } => 3 * W + snapshot.encoded_len(),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            TAG_RESULT => Ok(Payload::Result {
                round: u64::decode(r)?,
                sender: u64::decode(r)?,
                values: Vec::<u64>::decode(r)?,
            }),
            TAG_COMMIT => Ok(Payload::Commit {
                round: u64::decode(r)?,
                sender: u64::decode(r)?,
                digest: u64::decode(r)?,
            }),
            TAG_PING => Ok(Payload::Ping {
                nonce: u64::decode(r)?,
            }),
            TAG_STAGE => Ok(Payload::Stage {
                round: u64::decode(r)?,
                sender: u64::decode(r)?,
                commands: Vec::<Vec<u64>>::decode(r)?,
            }),
            TAG_SUBMIT => Ok(Payload::Submit {
                shard: u64::decode(r)?,
                client: u64::decode(r)?,
                seq: u64::decode(r)?,
                command: Vec::<u64>::decode(r)?,
            }),
            TAG_REPLY => Ok(Payload::Reply {
                shard: u64::decode(r)?,
                round: u64::decode(r)?,
                client: u64::decode(r)?,
                seq: u64::decode(r)?,
                output: Vec::<u64>::decode(r)?,
            }),
            TAG_STATE_REQUEST => Ok(Payload::StateRequest {
                from_round: u64::decode(r)?,
            }),
            TAG_STATE_CHUNK => Ok(Payload::StateChunk {
                round: u64::decode(r)?,
                digest: u64::decode(r)?,
                results: Vec::<Vec<u64>>::decode(r)?,
            }),
            TAG_QUERY => Ok(Payload::Query {
                shard: u64::decode(r)?,
                client: u64::decode(r)?,
                qid: u64::decode(r)?,
            }),
            TAG_BATCH_RELAY => Ok(Payload::BatchRelay {
                round: u64::decode(r)?,
                rows: Vec::<Vec<u64>>::decode(r)?,
                chain: Vec::<(u64, u64)>::decode(r)?,
            }),
            TAG_BATCH_VOTE => Ok(Payload::BatchVote {
                round: u64::decode(r)?,
                view: u64::decode(r)?,
                phase: u8::decode(r)?,
                rows: Vec::<Vec<u64>>::decode(r)?,
                tag: u64::decode(r)?,
            }),
            TAG_BATCH_VIEW_CHANGE => Ok(Payload::BatchViewChange {
                round: u64::decode(r)?,
                vote: ViewChangeWire::decode(r)?,
            }),
            TAG_BATCH_NEW_VIEW => Ok(Payload::BatchNewView {
                round: u64::decode(r)?,
                view: u64::decode(r)?,
                rows: Vec::<Vec<u64>>::decode(r)?,
                justification: Vec::<ViewChangeWire>::decode(r)?,
            }),
            TAG_QUERY_REPLY => Ok(Payload::QueryReply {
                shard: u64::decode(r)?,
                round: u64::decode(r)?,
                client: u64::decode(r)?,
                qid: u64::decode(r)?,
                value: Vec::<u64>::decode(r)?,
            }),
            TAG_TELEMETRY_REQUEST => Ok(Payload::TelemetryRequest {
                nonce: u64::decode(r)?,
            }),
            TAG_TELEMETRY_REPLY => Ok(Payload::TelemetryReply {
                nonce: u64::decode(r)?,
                node: u64::decode(r)?,
                round: u64::decode(r)?,
                snapshot: String::decode(r)?,
            }),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

/// A payload plus the signature naming its claimed producer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The message.
    pub payload: Payload,
    /// MAC over the encoded payload, claiming `sig.signer` produced it.
    pub sig: Signature,
}

impl Frame {
    /// Signs `payload` as `signer` (the honest path).
    ///
    /// # Panics
    ///
    /// Panics if `signer` is not registered.
    pub fn sign(payload: Payload, registry: &KeyRegistry, signer: NodeId) -> Self {
        let sig = registry.sign_bytes(signer, &payload.to_bytes());
        Frame { payload, sig }
    }

    /// Signs `payload` with `real_signer`'s key but *claims* it came from
    /// `claimed` — the impersonation attack. Verification against
    /// `claimed`'s key must fail at every receiver.
    ///
    /// # Panics
    ///
    /// Panics if `real_signer` is not registered.
    pub fn forge(
        payload: Payload,
        registry: &KeyRegistry,
        real_signer: NodeId,
        claimed: NodeId,
    ) -> Self {
        let sig = registry.sign_bytes(real_signer, &payload.to_bytes());
        Frame {
            payload,
            sig: Signature {
                signer: claimed,
                ..sig
            },
        }
    }

    /// Verifies the MAC against the claimed signer's key. A frame that
    /// arrived as bytes is checked against those bytes instead
    /// ([`decode_signed`](Self::decode_signed)); this re-encodes the
    /// payload.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify_bytes(&self.payload.to_bytes(), &self.sig)
    }

    /// Writes `[len][body]` to `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.to_wire_bytes())
    }

    /// Encodes the full `[len][body]` framing into one buffer of exactly
    /// the framed length.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        // version byte, payload, signer and tag words
        let body = 1 + self.payload.encoded_len() + 2 * 8;
        let mut out = Vec::with_capacity(4 + body);
        u32::try_from(body)
            .expect("frame fits u32")
            .encode(&mut out);
        out.push(WIRE_VERSION);
        self.payload.encode(&mut out);
        (self.sig.signer.0 as u64).encode(&mut out);
        self.sig.tag.encode(&mut out);
        debug_assert_eq!(out.len(), 4 + body, "encoded_len disagrees with encode");
        out
    }

    /// Reads one `[len][body]` frame from `r`.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Self, FrameReadError> {
        let mut len_bytes = [0u8; 4];
        r.read_exact(&mut len_bytes)?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(FrameReadError::TooLarge(len));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        Self::decode_body(&body).map_err(FrameReadError::Malformed)
    }

    /// Decodes a frame body (everything after the length prefix).
    pub fn decode_body(body: &[u8]) -> Result<Self, BodyError> {
        Self::decode_signed(body).map(|(frame, _)| frame)
    }

    /// Decodes a frame body and returns the frame with the payload bytes
    /// it was decoded from — the bytes its MAC covers. Receivers verify
    /// `registry.verify_bytes(signed, &frame.sig)` on these rather than
    /// re-encoding the payload: the codec is canonical (a body it accepts
    /// re-encodes to itself), so both accept exactly the same frames.
    pub fn decode_signed(body: &[u8]) -> Result<(Self, &[u8]), BodyError> {
        let mut reader = WireReader::new(body);
        let version = u8::decode(&mut reader).map_err(BodyError::Wire)?;
        if version != WIRE_VERSION {
            return Err(BodyError::Version(version));
        }
        let start = body.len() - reader.remaining();
        let payload = Payload::decode(&mut reader).map_err(BodyError::Wire)?;
        let signed = &body[start..body.len() - reader.remaining()];
        let signer = u64::decode(&mut reader).map_err(BodyError::Wire)?;
        let tag = u64::decode(&mut reader).map_err(BodyError::Wire)?;
        reader.finish().map_err(BodyError::Wire)?;
        let frame = Frame {
            payload,
            sig: Signature {
                signer: NodeId(signer as usize),
                tag,
            },
        };
        Ok((frame, signed))
    }
}

/// Why a frame body failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BodyError {
    /// Unknown wire version.
    Version(u8),
    /// Codec failure.
    Wire(WireError),
}

impl fmt::Display for BodyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyError::Version(v) => write!(f, "unsupported wire version {v}"),
            BodyError::Wire(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for BodyError {}

/// Why reading a frame from a stream failed.
#[derive(Debug)]
pub enum FrameReadError {
    /// Underlying I/O failure (includes EOF).
    Io(io::Error),
    /// Length prefix exceeded [`MAX_FRAME_BYTES`].
    TooLarge(usize),
    /// Body failed to decode.
    Malformed(BodyError),
}

impl From<io::Error> for FrameReadError {
    fn from(e: io::Error) -> Self {
        FrameReadError::Io(e)
    }
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "i/o: {e}"),
            FrameReadError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds cap"),
            FrameReadError::Malformed(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> KeyRegistry {
        KeyRegistry::new(4, 99)
    }

    fn sample_payloads() -> Vec<Payload> {
        vec![
            Payload::Result {
                round: 3,
                sender: 1,
                values: vec![5, 6, 7],
            },
            Payload::Commit {
                round: 3,
                sender: 2,
                digest: 0xFEED,
            },
            Payload::Ping { nonce: 42 },
            Payload::Stage {
                round: 4,
                sender: 3,
                commands: vec![vec![1, 2], vec![3]],
            },
            Payload::Submit {
                shard: 1,
                client: 9,
                seq: 17,
                command: vec![250],
            },
            Payload::Reply {
                shard: 1,
                round: 6,
                client: 9,
                seq: 17,
                output: vec![350, 350],
            },
            Payload::StateRequest { from_round: 12 },
            Payload::StateChunk {
                round: 11,
                digest: 0xD1CE,
                results: vec![vec![110, 110], vec![220, 220]],
            },
            Payload::Query {
                shard: 1,
                client: 9,
                qid: 3,
            },
            Payload::BatchRelay {
                round: 5,
                rows: vec![vec![8, 0, 0, 0x51, 42]],
                chain: vec![(0, 0xAA), (2, 0xBB)],
            },
            Payload::BatchVote {
                round: 5,
                view: 1,
                phase: PHASE_PREPARE,
                rows: vec![vec![9, 3, 1, 0x52, 7]],
                tag: 0xCC,
            },
            Payload::BatchViewChange {
                round: 5,
                vote: ViewChangeWire {
                    new_view: 2,
                    signer: 3,
                    tag: 0xDD,
                    prepared: Some(PreparedCertWire {
                        view: 1,
                        rows: vec![vec![9, 3, 1, 0x52, 7]],
                        sigs: vec![(0, 1), (1, 2), (2, 3)],
                    }),
                },
            },
            Payload::BatchNewView {
                round: 5,
                view: 2,
                rows: vec![vec![9, 3, 1, 0x52, 7]],
                justification: vec![ViewChangeWire {
                    new_view: 2,
                    signer: 1,
                    tag: 0xEE,
                    prepared: None,
                }],
            },
            Payload::QueryReply {
                shard: 1,
                round: 11,
                client: 9,
                qid: 3,
                value: vec![220],
            },
            Payload::TelemetryRequest { nonce: 77 },
            Payload::TelemetryReply {
                nonce: 77,
                node: 2,
                round: 11,
                snapshot: "{\"node\":2,\"round\":11,\"phases\":[],\"counters\":[]}".to_string(),
            },
        ]
    }

    #[test]
    fn frame_roundtrip_all_payloads() {
        let reg = registry();
        for payload in sample_payloads() {
            let frame = Frame::sign(payload.clone(), &reg, NodeId(1));
            let bytes = frame.to_wire_bytes();
            let mut cursor = &bytes[..];
            let back = Frame::read_from(&mut cursor).unwrap();
            assert_eq!(back, frame);
            assert!(back.verify(&reg));
        }
    }

    #[test]
    fn golden_result_frame_tag() {
        // the tag `csm_network`'s golden test pins for this payload's bytes
        let frame = Frame::sign(
            Payload::Result {
                round: 3,
                sender: 1,
                values: vec![5, 6, 7],
            },
            &KeyRegistry::new(4, 42),
            NodeId(1),
        );
        assert_eq!(frame.sig.tag, 0x33C9_C397_0877_18CD);
    }

    #[test]
    fn tampered_payload_fails_mac() {
        let reg = registry();
        let frame = Frame::sign(
            Payload::Result {
                round: 1,
                sender: 0,
                values: vec![10, 20],
            },
            &reg,
            NodeId(0),
        );
        let mut bytes = frame.to_wire_bytes();
        // flip one bit inside the payload (skip the 4-byte length + version)
        bytes[8] ^= 1;
        let back = Frame::read_from(&mut &bytes[..]).unwrap();
        assert!(!back.verify(&reg), "tampered frame must fail verification");
    }

    #[test]
    fn forged_signer_fails_mac() {
        let reg = registry();
        let frame = Frame::forge(
            Payload::Result {
                round: 1,
                sender: 2,
                values: vec![1],
            },
            &reg,
            NodeId(0),
            NodeId(2),
        );
        assert!(!frame.verify(&reg), "impersonation must fail verification");
    }

    #[test]
    fn oversize_length_prefix_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&[0; 16]);
        assert!(matches!(
            Frame::read_from(&mut &bytes[..]),
            Err(FrameReadError::TooLarge(_))
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let reg = registry();
        let frame = Frame::sign(Payload::Ping { nonce: 1 }, &reg, NodeId(0));
        let mut bytes = frame.to_wire_bytes();
        bytes[4] = 9; // version byte
        assert!(matches!(
            Frame::read_from(&mut &bytes[..]),
            Err(FrameReadError::Malformed(BodyError::Version(9)))
        ));
        // a peer still on the byte-wise MAC of version 1 is a version
        // mismatch, not a forger
        bytes[4] = 1;
        assert_eq!(
            Frame::decode_signed(&bytes[4..]).map(|(f, _)| f),
            Err(BodyError::Version(1))
        );
    }
}
