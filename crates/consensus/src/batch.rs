//! The consensus protocols as sans-I/O state machines that agree on a
//! **round's command batch** (the gateway's `Stage`-row encoding,
//! `Vec<Vec<u64>>`). The caller feeds inbound messages and timeout edges
//! in, and gets outbound messages and a decision out. No I/O, no clocks,
//! no threads: the `csm-node` drivers supply those over a live mesh, and
//! the lock-step drivers below supply them in memory.
//!
//! * [`DsBatch`] — Dolev–Strong signature-chained broadcast of the round
//!   leader's batch, tolerating any `b < N` Byzantine nodes in `b + 1`
//!   synchronous relay rounds (the `b + 1 ≤ N` column of Table 2).
//! * [`PbftBatch`] — the PBFT three-phase flow (pre-prepare / prepare /
//!   commit) with signature-justified view changes, tolerating `b < N/3`
//!   under partial synchrony (the `3b + 1 ≤ N` column of Table 2).
//! * [`run_ds_lockstep`] and [`run_pbft_lockstep`] — one in-memory
//!   lock-step driver per protocol, with the Byzantine casts of
//!   [`Conduct`]. The modelled `CsmCluster` agrees through them, and the
//!   never-split properties and the Table 2 bounds are checked on them.
//!
//! Signatures are [`csm_network::auth::KeyRegistry`] MACs with explicit
//! domain separation per protocol phase, so a prepare vote can never be
//! replayed as a commit vote (or reused across rounds or views).

use csm_network::auth::{KeyRegistry, Signature};
use csm_network::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// A round's command batch in `Stage`-row wire form: one
/// `[client, seq, shard, sig_tag, command...]` row per batched command.
pub type BatchRows = Vec<Vec<u64>>;

/// Domain-separated signing payloads: every signature binds the protocol
/// phase, the gateway round, and (where applicable) the view, so no tag
/// is ever valid in more than one context.
#[derive(Hash)]
enum Domain<'a> {
    /// A Dolev–Strong chain signature over the leader's proposed batch.
    DsValue(u64, &'a [Vec<u64>]),
    /// A PBFT prepare vote (the primary's pre-prepare signs here too).
    Prepare(u64, u64, &'a [Vec<u64>]),
    /// A PBFT commit vote.
    Commit(u64, u64, &'a [Vec<u64>]),
    /// A PBFT view-change vote over `(new_view, prepared summary)`.
    ViewChange(u64, u64, Option<(u64, &'a [Vec<u64>])>),
}

// ---------------------------------------------------------------------------
// Dolev–Strong
// ---------------------------------------------------------------------------

/// One Dolev–Strong relay message: the proposed batch plus its signature
/// chain (leader's signature first, one more per relay hop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsRelay {
    /// The proposed batch.
    pub rows: BatchRows,
    /// The signature chain over the domain-separated `(round, rows)`
    /// value; `chain[0]` must be the round leader's.
    pub chain: Vec<Signature>,
}

/// Dolev–Strong caps the values it tracks at two: a single extracted
/// value decides, two or more decide ⊥, and relaying more than two
/// distinct values gives receivers no new information — so a Byzantine
/// leader signing many batches cannot grow honest memory.
const DS_MAX_TRACKED: usize = 2;

/// One node's state in a single Dolev–Strong broadcast of a round's
/// batch. The driver owns timing: it calls [`DsBatch::on_relay`] with the
/// current relay-round index (wall-clock elapsed `/ Δ`) and
/// [`DsBatch::decide`] after relay round `b + 1` closes.
#[derive(Debug)]
pub struct DsBatch {
    round: u64,
    n: usize,
    f: usize,
    leader: usize,
    me: usize,
    registry: Arc<KeyRegistry>,
    extracted: Vec<BatchRows>,
    relayed: Vec<BatchRows>,
}

impl DsBatch {
    /// Builds the state machine for one broadcast: `f` is the tolerated
    /// fault count (the protocol runs `f + 1` relay rounds).
    ///
    /// # Panics
    ///
    /// Panics unless `f < n`, `leader < n`, and `me < n`.
    pub fn new(
        round: u64,
        n: usize,
        f: usize,
        leader: usize,
        me: usize,
        registry: Arc<KeyRegistry>,
    ) -> Self {
        assert!(f < n, "fault parameter must be below n");
        assert!(leader < n && me < n, "ids must be cluster members");
        DsBatch {
            round,
            n,
            f,
            leader,
            me,
            registry,
            extracted: Vec::new(),
            relayed: Vec::new(),
        }
    }

    /// This node's chain signature over `rows` — how the leader (or a
    /// Byzantine driver crafting an equivocation) starts a chain.
    pub fn sign_value(&self, rows: &BatchRows) -> Signature {
        self.registry
            .sign(NodeId(self.me), &Domain::DsValue(self.round, rows))
    }

    /// The leader's round-0 proposal: extracts its own value and returns
    /// the relay to broadcast.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-leader.
    pub fn propose(&mut self, rows: BatchRows) -> DsRelay {
        assert_eq!(self.me, self.leader, "only the leader proposes");
        let sig = self.sign_value(&rows);
        self.extracted.push(rows.clone());
        self.relayed.push(rows.clone());
        DsRelay {
            rows,
            chain: vec![sig],
        }
    }

    /// Validates a relay's signature chain: non-empty, leader first,
    /// distinct cluster signers, every signature verifying over the
    /// carried batch.
    pub fn chain_valid(&self, relay: &DsRelay) -> bool {
        let Some(first) = relay.chain.first() else {
            return false;
        };
        if first.signer != NodeId(self.leader) || relay.chain.len() > self.n {
            return false;
        }
        let mut seen = BTreeSet::new();
        let domain = Domain::DsValue(self.round, &relay.rows);
        for sig in &relay.chain {
            if sig.signer.0 >= self.n || !seen.insert(sig.signer) {
                return false;
            }
            if !self.registry.verify(&domain, sig) {
                return false;
            }
        }
        true
    }

    /// Handles one inbound relay during relay round `ds_round` (0-based;
    /// the driver derives it from wall-clock elapsed time). Returns the
    /// relay to broadcast onwards, if this node extends the chain.
    pub fn on_relay(&mut self, relay: DsRelay, ds_round: usize) -> Option<DsRelay> {
        if ds_round > self.f + 1 {
            return None; // past the decision point: too late to accept
        }
        if !self.chain_valid(&relay) {
            return None;
        }
        if relay.chain.len() < ds_round {
            // a chain this short cannot have arrived honestly this late
            return None;
        }
        if !self.extracted.contains(&relay.rows) && self.extracted.len() < DS_MAX_TRACKED {
            self.extracted.push(relay.rows.clone());
        }
        let already_signed = relay.chain.iter().any(|s| s.signer.0 == self.me);
        if already_signed
            || relay.chain.len() > self.f
            || self.relayed.contains(&relay.rows)
            || self.relayed.len() >= DS_MAX_TRACKED
        {
            return None;
        }
        self.relayed.push(relay.rows.clone());
        let mut chain = relay.chain;
        chain.push(self.sign_value(&relay.rows));
        Some(DsRelay {
            rows: relay.rows,
            chain,
        })
    }

    /// The decision once relay round `f + 1` has closed: the unique
    /// extracted batch, or `None` (⊥) after zero or multiple extractions
    /// — every honest node lands on the same answer, so ⊥ maps to the
    /// shared deterministic fallback (the empty batch).
    pub fn decide(&self) -> Option<BatchRows> {
        if self.extracted.len() == 1 {
            Some(self.extracted[0].clone())
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------------
// PBFT
// ---------------------------------------------------------------------------

/// A certificate that a batch *prepared* in some view: a quorum
/// ([`PbftBatchConfig::quorum`]) of distinct prepare signatures over
/// `(round, view, rows)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedBatch {
    /// The view the batch prepared in.
    pub view: u64,
    /// The prepared batch.
    pub rows: BatchRows,
    /// A quorum of distinct prepare signatures.
    pub sigs: Vec<Signature>,
}

/// One view-change vote: the new view, the voter's prepared certificate
/// (if any), and its signature over the pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChangeVote {
    /// The view being moved to.
    pub new_view: u64,
    /// The voter's prepared certificate, if it prepared a batch.
    pub prepared: Option<PreparedBatch>,
    /// Signature over `(new_view, prepared summary)`.
    pub sig: Signature,
}

/// The PBFT batch-consensus messages, as exchanged over the mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PbftBatchMsg {
    /// The view primary's proposal (doubles as its prepare vote).
    PrePrepare {
        /// View number.
        view: u64,
        /// Proposed batch.
        rows: BatchRows,
        /// Primary's signature in the prepare domain.
        sig: Signature,
    },
    /// A replica's prepare vote.
    Prepare {
        /// View number.
        view: u64,
        /// Voted batch.
        rows: BatchRows,
        /// Signature over the prepare payload.
        sig: Signature,
    },
    /// A replica's commit vote.
    Commit {
        /// View number.
        view: u64,
        /// Voted batch.
        rows: BatchRows,
        /// Signature over the commit payload.
        sig: Signature,
    },
    /// A view-change vote.
    ViewChange(ViewChangeVote),
    /// The new primary's view installation, justified by a quorum of
    /// view-change votes.
    NewView {
        /// The installed view.
        view: u64,
        /// The batch chosen per the view-change value rule.
        rows: BatchRows,
        /// The justifying view-change votes.
        justification: Vec<ViewChangeVote>,
    },
}

/// Shape of one PBFT batch-consensus instance.
#[derive(Debug, Clone)]
pub struct PbftBatchConfig {
    /// Cluster size (`n ≥ 3f + 1`).
    pub n: usize,
    /// Fault-tolerance parameter.
    pub f: usize,
    /// The gateway round whose batch is being agreed (bound into every
    /// signature).
    pub round: u64,
    /// The round's rotating leader — primary of view 0; view `v`'s
    /// primary is `(leader + v) mod n`.
    pub leader: usize,
    /// Base view timeout; view `v` times out after `base · 2^min(v, 20)`.
    pub base_timeout: Duration,
}

impl PbftBatchConfig {
    /// Quorum size `⌈(n + f + 1) / 2⌉`: any two quorums intersect in at
    /// least `f + 1` nodes — hence an honest one — for **every** `n ≥
    /// 3f + 1`, not just `n = 3f + 1` (where this equals the textbook
    /// `2f + 1`). With the plain `2f + 1` at, say, `n = 8, f = 2`, two
    /// disjoint-enough quorums overlap in only two nodes and delayed
    /// honest halves could split-commit across a view change.
    pub fn quorum(&self) -> usize {
        (self.n + self.f) / 2 + 1
    }

    /// Primary of a view (rotating from the round leader).
    pub fn primary(&self, view: u64) -> usize {
        ((self.leader as u64 + view) % self.n as u64) as usize
    }

    /// The exponential-backoff timeout of a view.
    pub fn timeout_of(&self, view: u64) -> Duration {
        self.base_timeout * (1u32 << view.min(20) as u32)
    }
}

/// Views further than this past the current one are ignored, so `f`
/// Byzantine voters spraying arbitrary view numbers cannot grow the vote
/// maps without bound.
const VIEW_HORIZON: u64 = 64;

/// One node's state in a single-shot PBFT batch agreement. Sans-I/O: the
/// driver delivers messages via [`PbftBatch::on_message`], fires view
/// timeouts via [`PbftBatch::on_timeout`], and broadcasts whatever either
/// returns. Batch *validity* (client MACs, shard shape, replay horizon)
/// is the caller's predicate — an invalid proposal is never prepared by
/// an honest node, so it can never commit.
#[derive(Debug)]
pub struct PbftBatch {
    cfg: PbftBatchConfig,
    me: usize,
    registry: Arc<KeyRegistry>,
    /// The batch this node proposes when it is (or becomes) primary.
    proposal: BatchRows,
    view: u64,
    /// Set while waiting for a `NewView` (don't vote meanwhile).
    view_changing: bool,
    pre_prepared: Option<BatchRows>,
    prepare_votes: BTreeMap<u64, Vec<(usize, BatchRows, Signature)>>,
    commit_votes: BTreeMap<u64, Vec<(usize, BatchRows)>>,
    prepared: Option<PreparedBatch>,
    view_changes: BTreeMap<u64, Vec<ViewChangeVote>>,
    decided: Option<BatchRows>,
}

impl PbftBatch {
    /// Builds the state machine for one instance; `proposal` is the batch
    /// this node proposes if it is (or, after view changes, becomes)
    /// primary.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 3f + 1` and `me < n`.
    pub fn new(
        cfg: PbftBatchConfig,
        me: usize,
        registry: Arc<KeyRegistry>,
        proposal: BatchRows,
    ) -> Self {
        assert!(cfg.n > 3 * cfg.f, "PBFT requires n >= 3f + 1");
        assert!(
            me < cfg.n && cfg.leader < cfg.n,
            "ids must be cluster members"
        );
        PbftBatch {
            cfg,
            me,
            registry,
            proposal,
            view: 0,
            view_changing: false,
            pre_prepared: None,
            prepare_votes: BTreeMap::new(),
            commit_votes: BTreeMap::new(),
            prepared: None,
            view_changes: BTreeMap::new(),
            decided: None,
        }
    }

    /// The current view (drivers reset their timeout clock when this
    /// advances).
    pub fn view(&self) -> u64 {
        self.view
    }

    /// The decided batch, once a quorum of commit votes agreed in one view.
    pub fn decided(&self) -> Option<&BatchRows> {
        self.decided.as_ref()
    }

    /// The instance configuration.
    pub fn config(&self) -> &PbftBatchConfig {
        &self.cfg
    }

    /// A pre-prepare for `rows` in `view` signed by this node — the
    /// honest path when leading a view, and the hook a Byzantine driver
    /// uses to craft equivocating proposals.
    pub fn sign_pre_prepare(&self, view: u64, rows: BatchRows) -> PbftBatchMsg {
        let sig = self.registry.sign(
            NodeId(self.me),
            &Domain::Prepare(self.cfg.round, view, &rows),
        );
        PbftBatchMsg::PrePrepare { view, rows, sig }
    }

    /// Starts the instance: the view-0 primary broadcasts its proposal
    /// (the returned messages; everyone else returns nothing and waits).
    pub fn start(&mut self, valid: &dyn Fn(&[Vec<u64>]) -> bool) -> Vec<PbftBatchMsg> {
        if self.cfg.primary(0) != self.me {
            return Vec::new();
        }
        let msg = self.sign_pre_prepare(0, self.proposal.clone());
        let mut out = vec![msg.clone()];
        out.extend(self.pump(self.me, msg, valid));
        out
    }

    /// Fires the current view's timeout: vote to move to `view + 1`.
    pub fn on_timeout(&mut self, valid: &dyn Fn(&[Vec<u64>]) -> bool) -> Vec<PbftBatchMsg> {
        if self.decided.is_some() {
            return Vec::new();
        }
        let next = self.view + 1;
        let msg = PbftBatchMsg::ViewChange(self.sign_view_change(next));
        let mut out = vec![msg.clone()];
        out.extend(self.pump(self.me, msg, valid));
        out
    }

    /// Handles one inbound message from node `from`, returning the
    /// messages to broadcast in response. `valid` is the batch-validity
    /// predicate (an honest node never prepares an invalid batch).
    pub fn on_message(
        &mut self,
        from: usize,
        msg: PbftBatchMsg,
        valid: &dyn Fn(&[Vec<u64>]) -> bool,
    ) -> Vec<PbftBatchMsg> {
        self.pump(from, msg, valid)
    }

    /// Delivers `(from, msg)` plus every self-addressed follow-up (the
    /// simulator's broadcast included the sender; a mesh broadcast does
    /// not, so emitted messages are looped back here explicitly).
    fn pump(
        &mut self,
        from: usize,
        msg: PbftBatchMsg,
        valid: &dyn Fn(&[Vec<u64>]) -> bool,
    ) -> Vec<PbftBatchMsg> {
        let mut out = Vec::new();
        let mut queue: VecDeque<(usize, PbftBatchMsg)> = VecDeque::new();
        queue.push_back((from, msg));
        while let Some((from, msg)) = queue.pop_front() {
            let emitted = self.handle(from, msg, valid);
            for m in emitted {
                queue.push_back((self.me, m.clone()));
                out.push(m);
            }
        }
        out
    }

    fn sign_view_change(&mut self, new_view: u64) -> ViewChangeVote {
        self.view = new_view;
        self.view_changing = true;
        let summary = self.prepared.as_ref().map(|c| (c.view, c.rows.as_slice()));
        let sig = self.registry.sign(
            NodeId(self.me),
            &Domain::ViewChange(self.cfg.round, new_view, summary),
        );
        ViewChangeVote {
            new_view,
            prepared: self.prepared.clone(),
            sig,
        }
    }

    fn enter_view(&mut self, view: u64) {
        self.view = view;
        self.view_changing = false;
        self.pre_prepared = None;
    }

    fn cert_valid(&self, cert: &PreparedBatch) -> bool {
        let domain = Domain::Prepare(self.cfg.round, cert.view, &cert.rows);
        let mut signers = BTreeSet::new();
        for sig in &cert.sigs {
            if sig.signer.0 >= self.cfg.n
                || !signers.insert(sig.signer)
                || !self.registry.verify(&domain, sig)
            {
                return false;
            }
        }
        signers.len() >= self.cfg.quorum()
    }

    fn vc_valid(&self, vc: &ViewChangeVote) -> bool {
        let summary = vc.prepared.as_ref().map(|c| (c.view, c.rows.as_slice()));
        if !self.registry.verify(
            &Domain::ViewChange(self.cfg.round, vc.new_view, summary),
            &vc.sig,
        ) {
            return false;
        }
        match &vc.prepared {
            Some(cert) => self.cert_valid(cert),
            None => true,
        }
    }

    /// The view-change value rule: adopt the prepared batch with the
    /// highest view among the justification, if any.
    fn choose_rows(justification: &[ViewChangeVote]) -> Option<BatchRows> {
        justification
            .iter()
            .filter_map(|m| m.prepared.as_ref())
            .max_by_key(|c| c.view)
            .map(|c| c.rows.clone())
    }

    fn handle(
        &mut self,
        from: usize,
        msg: PbftBatchMsg,
        valid: &dyn Fn(&[Vec<u64>]) -> bool,
    ) -> Vec<PbftBatchMsg> {
        match msg {
            PbftBatchMsg::PrePrepare { view, rows, sig } => {
                self.on_pre_prepare(view, rows, sig, valid)
            }
            PbftBatchMsg::Prepare { view, rows, sig } => {
                if self.view_changing
                    || !self
                        .registry
                        .verify(&Domain::Prepare(self.cfg.round, view, &rows), &sig)
                {
                    return Vec::new();
                }
                self.record_prepare(sig.signer.0, view, rows, sig)
            }
            PbftBatchMsg::Commit { view, rows, sig } => {
                if self.decided.is_some()
                    || view > self.view.saturating_add(VIEW_HORIZON)
                    || !self
                        .registry
                        .verify(&Domain::Commit(self.cfg.round, view, &rows), &sig)
                {
                    return Vec::new();
                }
                let votes = self.commit_votes.entry(view).or_default();
                if votes.iter().any(|(s, _)| *s == sig.signer.0) {
                    return Vec::new();
                }
                votes.push((sig.signer.0, rows.clone()));
                let matching = votes.iter().filter(|(_, v)| *v == rows).count();
                if matching >= self.cfg.quorum() {
                    self.decided = Some(rows);
                }
                Vec::new()
            }
            PbftBatchMsg::ViewChange(vc) => self.on_view_change(vc),
            PbftBatchMsg::NewView {
                view,
                rows,
                justification,
            } => self.on_new_view(view, rows, justification, from, valid),
        }
    }

    fn on_pre_prepare(
        &mut self,
        view: u64,
        rows: BatchRows,
        sig: Signature,
        valid: &dyn Fn(&[Vec<u64>]) -> bool,
    ) -> Vec<PbftBatchMsg> {
        if view != self.view || self.view_changing || self.decided.is_some() {
            return Vec::new();
        }
        if sig.signer.0 != self.cfg.primary(view)
            || !self
                .registry
                .verify(&Domain::Prepare(self.cfg.round, view, &rows), &sig)
        {
            return Vec::new();
        }
        if self.pre_prepared.is_some() {
            return Vec::new(); // only the first pre-prepare in a view counts
        }
        if !valid(&rows) {
            return Vec::new(); // never prepare an invalid batch
        }
        self.pre_prepared = Some(rows.clone());
        // the primary's pre-prepare doubles as its prepare vote
        let mut out = self.record_prepare(sig.signer.0, view, rows.clone(), sig);
        if sig.signer.0 != self.me {
            let my_sig = self.registry.sign(
                NodeId(self.me),
                &Domain::Prepare(self.cfg.round, view, &rows),
            );
            out.push(PbftBatchMsg::Prepare {
                view,
                rows,
                sig: my_sig,
            });
        }
        out
    }

    fn record_prepare(
        &mut self,
        signer: usize,
        view: u64,
        rows: BatchRows,
        sig: Signature,
    ) -> Vec<PbftBatchMsg> {
        if view != self.view || self.decided.is_some() || signer >= self.cfg.n {
            return Vec::new();
        }
        let quorum = self.cfg.quorum();
        let votes = self.prepare_votes.entry(view).or_default();
        if votes.iter().any(|(s, _, _)| *s == signer) {
            return Vec::new();
        }
        votes.push((signer, rows.clone(), sig));
        let matching: Vec<Signature> = votes
            .iter()
            .filter(|(_, v, _)| *v == rows)
            .map(|(_, _, s)| *s)
            .collect();
        if matching.len() >= quorum && self.prepared.as_ref().map(|c| c.view) != Some(view) {
            self.prepared = Some(PreparedBatch {
                view,
                rows: rows.clone(),
                sigs: matching,
            });
            let sig = self.registry.sign(
                NodeId(self.me),
                &Domain::Commit(self.cfg.round, view, &rows),
            );
            return vec![PbftBatchMsg::Commit { view, rows, sig }];
        }
        Vec::new()
    }

    fn on_view_change(&mut self, vc: ViewChangeVote) -> Vec<PbftBatchMsg> {
        if self.decided.is_some()
            || vc.new_view > self.view.saturating_add(VIEW_HORIZON)
            || !self.vc_valid(&vc)
        {
            return Vec::new();
        }
        let entry = self.view_changes.entry(vc.new_view).or_default();
        if entry.iter().any(|m| m.sig.signer == vc.sig.signer) {
            return Vec::new();
        }
        entry.push(vc.clone());
        let count = entry.len();
        let nv = vc.new_view;
        let mut out = Vec::new();
        // join rule: f + 1 view changes for a higher view prove an honest
        // node timed out — join them rather than straggle
        if count > self.cfg.f && nv > self.view && !self.view_changing {
            let msg = self.sign_view_change(nv);
            out.push(PbftBatchMsg::ViewChange(msg));
        }
        // primary rule: a quorum of view changes installs the new view —
        // but only a view this node is moving *into*; re-installing an
        // already-entered view on a late straggler vote would make an
        // honest primary equivocate NewViews (and reset its own
        // pre_prepared)
        let installing = nv > self.view || (nv == self.view && self.view_changing);
        if count >= self.cfg.quorum() && self.cfg.primary(nv) == self.me && installing {
            let justification = self.view_changes[&nv].clone();
            let rows = Self::choose_rows(&justification).unwrap_or_else(|| self.proposal.clone());
            self.enter_view(nv);
            out.push(PbftBatchMsg::NewView {
                view: nv,
                rows,
                justification,
            });
        }
        out
    }

    fn on_new_view(
        &mut self,
        view: u64,
        rows: BatchRows,
        justification: Vec<ViewChangeVote>,
        from: usize,
        valid: &dyn Fn(&[Vec<u64>]) -> bool,
    ) -> Vec<PbftBatchMsg> {
        if self.decided.is_some() || view < self.view || from != self.cfg.primary(view) {
            return Vec::new();
        }
        // only a view we are moving *into* (strictly higher, or the one we
        // are mid-view-change for) re-enters the view. A repeated NewView
        // for an already-installed view must NOT reset `pre_prepared` —
        // that would trick an honest node into prepare-voting two batches
        // in one view; it falls through to `on_pre_prepare`, which refuses
        // a second proposal per view.
        let transitioning = view > self.view || (view == self.view && self.view_changing);
        // justification: a quorum of distinct, fully valid view-change votes
        let mut signers = BTreeSet::new();
        for vc in &justification {
            if vc.new_view != view || !self.vc_valid(vc) {
                return Vec::new();
            }
            signers.insert(vc.sig.signer);
        }
        if signers.len() < self.cfg.quorum() {
            return Vec::new();
        }
        // value rule: a prepared batch in the justification must carry over
        if let Some(required) = Self::choose_rows(&justification) {
            if required != rows {
                return Vec::new();
            }
        }
        if transitioning {
            self.enter_view(view);
        }
        // the new-view doubles as the pre-prepare for this view
        let sig = self
            .registry
            .sign(NodeId(from), &Domain::Prepare(self.cfg.round, view, &rows));
        self.on_pre_prepare(view, rows, sig, valid)
    }
}

// ---------------------------------------------------------------------------
// Lock-step drivers
// ---------------------------------------------------------------------------

/// How one node acts in a lock-step run ([`run_ds_lockstep`],
/// [`run_pbft_lockstep`]). Every conduct except [`Conduct::Honest`] is
/// Byzantine: such a node never runs the protocol, it only does what its
/// conduct says.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Conduct {
    /// Follows the protocol.
    Honest,
    /// Sends nothing.
    Silent,
    /// As the Dolev–Strong leader or the PBFT view-0 primary, signs the
    /// run's proposal for even-index nodes and this batch for odd-index
    /// ones, then falls silent. Silent in any other position.
    Equivocate(BatchRows),
    /// Dolev–Strong only: every relay round, broadcasts a junk relay whose
    /// chain it signed itself, so it is never a valid leader-first chain.
    /// Silent under PBFT.
    Garbage,
}

/// Pushes `msg` into every inbox except the sender's.
fn broadcast<M: Clone>(inboxes: &mut [Vec<M>], from: usize, msg: &M) {
    for (to, inbox) in inboxes.iter_mut().enumerate() {
        if to != from {
            inbox.push(msg.clone());
        }
    }
}

/// Runs one Dolev–Strong broadcast in lock step: relays sent in relay
/// round `r` are delivered in round `r + 1`, and every node decides once
/// round `f + 1` closes. `conduct` has one entry per node; an honest
/// `leader` proposes `proposal`. Returns each node's decision: `None` is ⊥
/// for an honest node and the entry of every Byzantine one.
///
/// # Panics
///
/// As [`DsBatch::new`]: unless `f < n` and `leader < n`.
pub fn run_ds_lockstep(
    round: u64,
    f: usize,
    leader: usize,
    proposal: &BatchRows,
    conduct: &[Conduct],
    registry: &Arc<KeyRegistry>,
) -> Vec<Option<BatchRows>> {
    let n = conduct.len();
    let mut nodes: Vec<DsBatch> = (0..n)
        .map(|i| DsBatch::new(round, n, f, leader, i, Arc::clone(registry)))
        .collect();
    // inbox[i]: the relays node i handles in the next relay round
    let mut inbox: Vec<Vec<DsRelay>> = vec![Vec::new(); n];
    match &conduct[leader] {
        Conduct::Honest => {
            let relay = nodes[leader].propose(proposal.clone());
            broadcast(&mut inbox, leader, &relay);
        }
        Conduct::Equivocate(alt) => {
            for (i, slot) in inbox.iter_mut().enumerate() {
                if i != leader {
                    let rows = if i % 2 == 0 { proposal } else { alt };
                    slot.push(DsRelay {
                        rows: rows.clone(),
                        chain: vec![nodes[leader].sign_value(rows)],
                    });
                }
            }
        }
        Conduct::Silent | Conduct::Garbage => {}
    }
    for ds_round in 1..=f + 1 {
        let mut next: Vec<Vec<DsRelay>> = vec![Vec::new(); n];
        for i in 0..n {
            let received = std::mem::take(&mut inbox[i]);
            match conduct[i] {
                Conduct::Honest => {
                    for relay in received {
                        if let Some(fwd) = nodes[i].on_relay(relay, ds_round) {
                            broadcast(&mut next, i, &fwd);
                        }
                    }
                }
                Conduct::Garbage => {
                    let rows = vec![vec![i as u64, ds_round as u64]];
                    let junk = DsRelay {
                        chain: vec![nodes[i].sign_value(&rows)],
                        rows,
                    };
                    broadcast(&mut next, i, &junk);
                }
                Conduct::Silent | Conduct::Equivocate(_) => {}
            }
        }
        inbox = next;
    }
    nodes
        .iter()
        .zip(conduct)
        .map(|(node, c)| match c {
            Conduct::Honest => node.decide(),
            _ => None,
        })
        .collect()
}

/// How many steps [`run_pbft_lockstep`] runs before it gives up: ample for
/// the view changes a run within `n ≥ 3f + 1` needs, and the end of a run
/// past that bound, which never decides.
const PBFT_LOCKSTEP_STEPS: usize = 300;

/// Runs one PBFT instance in lock step: every message emitted in one step
/// is delivered to every other honest node in the next, and when a step
/// emits nothing while an honest node is undecided, every undecided honest
/// node's view timer fires. `proposals[i]` is node `i`'s batch as primary
/// and `conduct[i]` its conduct; `valid` is the batch-validity predicate.
/// Returns each honest node's decision (`None` if it never decided within
/// 300 steps) and `None` for every Byzantine node.
///
/// # Panics
///
/// As [`PbftBatch::new`], and unless both slices have `cfg.n` entries.
pub fn run_pbft_lockstep(
    cfg: &PbftBatchConfig,
    proposals: &[BatchRows],
    conduct: &[Conduct],
    registry: &Arc<KeyRegistry>,
    valid: &dyn Fn(&[Vec<u64>]) -> bool,
) -> Vec<Option<BatchRows>> {
    assert!(
        proposals.len() == cfg.n && conduct.len() == cfg.n,
        "one proposal and one conduct per node"
    );
    let honest = |i: usize| conduct[i] == Conduct::Honest;
    let mut nodes: Vec<PbftBatch> = proposals
        .iter()
        .enumerate()
        .map(|(i, p)| PbftBatch::new(cfg.clone(), i, Arc::clone(registry), p.clone()))
        .collect();
    // (sender, message) pairs delivered to every other honest node next step
    let mut wire: Vec<(usize, PbftBatchMsg)> = Vec::new();
    let primary = cfg.primary(0);
    if let Conduct::Equivocate(alt) = &conduct[primary] {
        for i in (0..cfg.n).filter(|&i| i != primary && honest(i)) {
            let rows = if i % 2 == 0 { &proposals[primary] } else { alt };
            let pre_prepare = nodes[primary].sign_pre_prepare(0, rows.clone());
            let out = nodes[i].on_message(primary, pre_prepare, valid);
            wire.extend(out.into_iter().map(|m| (i, m)));
        }
    }
    for (i, node) in nodes.iter_mut().enumerate() {
        if honest(i) {
            wire.extend(node.start(valid).into_iter().map(|m| (i, m)));
        }
    }
    for _ in 0..PBFT_LOCKSTEP_STEPS {
        if (0..cfg.n).all(|i| !honest(i) || nodes[i].decided().is_some()) {
            break;
        }
        let mut next = Vec::new();
        for (from, msg) in wire.drain(..) {
            for (i, node) in nodes.iter_mut().enumerate() {
                if i != from && honest(i) {
                    let out = node.on_message(from, msg.clone(), valid);
                    next.extend(out.into_iter().map(|m| (i, m)));
                }
            }
        }
        if next.is_empty() {
            for (i, node) in nodes.iter_mut().enumerate() {
                if honest(i) && node.decided().is_none() {
                    next.extend(node.on_timeout(valid).into_iter().map(|m| (i, m)));
                }
            }
        }
        wire = next;
    }
    nodes
        .iter()
        .zip(conduct)
        .map(|(node, c)| match c {
            Conduct::Honest => node.decided().cloned(),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(n: usize) -> Arc<KeyRegistry> {
        Arc::new(KeyRegistry::new(n, 77))
    }

    fn rows(tag: u64) -> BatchRows {
        vec![vec![8, 0, 0, tag, 42]]
    }

    /// Node 0 acts as `leader`; everyone else is honest.
    fn cast(n: usize, leader: Conduct) -> Vec<Conduct> {
        let mut conduct = vec![Conduct::Honest; n];
        conduct[0] = leader;
        conduct
    }

    #[test]
    fn ds_honest_leader_all_decide() {
        let n = 5;
        let decisions = run_ds_lockstep(7, 2, 0, &rows(1), &cast(n, Conduct::Honest), &registry(n));
        assert_eq!(decisions, vec![Some(rows(1)); n]);
    }

    #[test]
    fn ds_equivocating_leader_all_decide_bot() {
        let n = 6;
        let conduct = cast(n, Conduct::Equivocate(rows(2)));
        let decisions = run_ds_lockstep(7, 2, 0, &rows(1), &conduct, &registry(n));
        assert_eq!(
            decisions,
            vec![None; n],
            "equivocation decides ⊥ everywhere"
        );
    }

    #[test]
    fn ds_silent_leader_decides_bot() {
        let n = 4;
        let conduct = cast(n, Conduct::Silent);
        let decisions = run_ds_lockstep(7, 1, 0, &rows(1), &conduct, &registry(n));
        assert_eq!(decisions, vec![None; n]);
    }

    #[test]
    fn ds_rejects_forged_and_late_chains() {
        let n = 4;
        let reg = registry(n);
        let mut node = DsBatch::new(7, n, 1, 0, 1, Arc::clone(&reg));
        // chain not starting with the leader
        let bad = DsRelay {
            rows: rows(1),
            chain: vec![node.sign_value(&rows(1))],
        };
        assert!(node.on_relay(bad, 1).is_none());
        // a valid single-sig chain arriving in relay round 2 is too short
        let leader = DsBatch::new(7, n, 1, 0, 0, Arc::clone(&reg));
        let late = DsRelay {
            rows: rows(1),
            chain: vec![leader.sign_value(&rows(1))],
        };
        assert!(node.on_relay(late.clone(), 2).is_none());
        assert_eq!(node.decide(), None);
        // the same chain in relay round 1 is accepted and extended
        let fwd = node.on_relay(late, 1).expect("fresh chain relays");
        assert_eq!(fwd.chain.len(), 2);
        assert_eq!(node.decide(), Some(rows(1)));
        // a signature over different rows does not verify
        let mut forged = fwd.clone();
        forged.rows = rows(9);
        let other = DsBatch::new(7, n, 1, 0, 2, Arc::clone(&reg));
        assert!(!other.chain_valid(&forged));
        // an empty chain, and a chain its leader signed twice
        let empty = DsRelay {
            rows: rows(1),
            chain: Vec::new(),
        };
        assert!(!other.chain_valid(&empty));
        let twice = DsRelay {
            rows: rows(1),
            chain: vec![leader.sign_value(&rows(1)); 2],
        };
        assert!(!other.chain_valid(&twice));
    }

    /// Runs PBFT in lock step at round 7 from `leader`, node `i` proposing
    /// `rows(i)` (node 0 proposing `rows(100)`), every batch valid.
    fn pbft(n: usize, f: usize, conduct: &[Conduct]) -> Vec<Option<BatchRows>> {
        let cfg = PbftBatchConfig {
            n,
            f,
            round: 7,
            leader: 0,
            base_timeout: Duration::from_millis(100),
        };
        let mut proposals: Vec<BatchRows> = (0..n as u64).map(rows).collect();
        proposals[0] = rows(100);
        run_pbft_lockstep(&cfg, &proposals, conduct, &registry(n), &|_| true)
    }

    #[test]
    fn pbft_honest_primary_decides_everywhere() {
        let decisions = pbft(4, 1, &cast(4, Conduct::Honest));
        assert_eq!(decisions, vec![Some(rows(100)); 4]);
    }

    #[test]
    fn pbft_silent_primary_view_change_recovers() {
        let decisions = pbft(4, 1, &cast(4, Conduct::Silent));
        // view 1's primary is node 1, so its proposal wins
        assert_eq!(decisions[1..], vec![Some(rows(1)); 3]);
    }

    #[test]
    fn pbft_equivocating_primary_never_splits() {
        // node 0 pre-prepares rows(100) to even nodes and rows(200) to odd
        let decisions = pbft(7, 2, &cast(7, Conduct::Equivocate(rows(200))));
        let first = decisions[1].clone();
        assert!(first.is_some(), "honest nodes decide after a view change");
        for d in &decisions[1..] {
            assert_eq!(*d, first, "honest nodes must never split-commit");
        }
    }

    #[test]
    fn pbft_repeated_new_view_cannot_extract_a_second_prepare() {
        // a Byzantine new primary (node 1) installs view 1 with rows(10),
        // then replays a NewView for the *same* view with rows(20): the
        // second must be rejected, or the honest node would prepare-vote
        // two batches in one view
        let n = 4;
        let f = 1;
        let reg = registry(n);
        let cfg = PbftBatchConfig {
            n,
            f,
            round: 7,
            leader: 0,
            base_timeout: Duration::from_millis(100),
        };
        let valid = |_: &[Vec<u64>]| true;
        let mut node = PbftBatch::new(cfg, 2, Arc::clone(&reg), rows(2));
        // gather a legitimate view-change quorum justification for view 1
        let mut justification = Vec::new();
        for voter in [1usize, 2, 3] {
            let mut peer = PbftBatch::new(
                PbftBatchConfig {
                    n,
                    f,
                    round: 7,
                    leader: 0,
                    base_timeout: Duration::from_millis(100),
                },
                voter,
                Arc::clone(&reg),
                rows(voter as u64),
            );
            justification.push(peer.sign_view_change(1));
        }
        // the node itself joined the view change (view 1, changing)
        node.sign_view_change(1);
        let first = node.on_message(
            1,
            PbftBatchMsg::NewView {
                view: 1,
                rows: rows(10),
                justification: justification.clone(),
            },
            &valid,
        );
        assert!(
            first
                .iter()
                .any(|m| matches!(m, PbftBatchMsg::Prepare { rows: r, .. } if *r == rows(10))),
            "legitimate new-view is prepared"
        );
        // the Byzantine primary's replay with different rows, SAME view
        let second = node.on_message(
            1,
            PbftBatchMsg::NewView {
                view: 1,
                rows: rows(20),
                justification,
            },
            &valid,
        );
        assert!(
            second.is_empty(),
            "a second NewView for an installed view must be ignored, got {second:?}"
        );
    }

    #[test]
    fn pbft_config_helpers() {
        let cfg = PbftBatchConfig {
            n: 7,
            f: 2,
            round: 3,
            leader: 5,
            base_timeout: Duration::from_millis(10),
        };
        assert_eq!(cfg.quorum(), 5);
        assert_eq!(cfg.primary(0), 5);
        assert_eq!(cfg.primary(2), 0);
        assert!(cfg.timeout_of(3) > cfg.timeout_of(2));
    }
}
