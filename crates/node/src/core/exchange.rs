//! One node's §5.2 result exchange as a pure value: the round's word,
//! when to decode it, and what a decode may commit. A node decodes its
//! word at Δ (synchronous), at `N − b` results (partially synchronous), or
//! as soon as a decode certifies; Table 2's bounds say when a decode is
//! right, and [`Verdict`] names which kind it was. Like `PeerView`, the
//! exchange takes `now` as an argument and holds no sink, clock or effect
//! buffer: `GatewayCore` maps each answer to effects.

use super::micros;
use crate::gateway::ExchangeTiming;
use crate::BehaviorKind;
use csm_algebra::Field;
use csm_core::engine::{CodedMachine, DecodedRound, RoundCommit, RoundEngine};
use csm_core::exchange::Word;
use csm_core::SynchronyMode;
use std::collections::BTreeMap;

/// The result frames node `me` of `n` sends for its coded result `g`, per
/// its `behavior`, as `(receiver or None for every peer, claimed sender,
/// values)`. An equivocator sends each peer its own perturbed copy, so
/// any two receivers can prove the equivocation against each other; an
/// impersonator claims the next node's id, so every MAC check drops it.
pub(super) fn outgoing<F: Field>(
    behavior: BehaviorKind,
    me: usize,
    n: usize,
    g: &[F],
) -> Vec<(Option<usize>, usize, Vec<u64>)> {
    match behavior {
        BehaviorKind::Honest => vec![(None, me, g.iter().map(F::to_canonical_u64).collect())],
        BehaviorKind::Equivocate => (0..n)
            .filter(|&peer| peer != me)
            .map(|peer| {
                let noise = 1 + (peer as u64).wrapping_mul(0x9E37) % 65_521;
                let shift = F::from_u64(77) + F::from_u64(noise);
                let noisy = g.iter().map(|&x| (x + shift).to_canonical_u64());
                (Some(peer), me, noisy.collect())
            })
            .collect(),
        BehaviorKind::Withhold => Vec::new(),
        BehaviorKind::Impersonate => {
            let forged = F::from_u64(0xBAD).to_canonical_u64();
            vec![(None, (me + 1) % n, vec![forged; g.len()])]
        }
    }
}

/// When the word is decoded next, after it changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Due {
    /// Not yet: the word cannot certify, or a decode is already due.
    Later,
    /// By a `Decode` timer armed for now, which a driver delivers after
    /// the frames already due: results that land together are decoded
    /// once. On the benchmark's `sim_faults` cluster that is 1.0 decodes
    /// per exchange; decoding each result on arrival took 1.87 and cost
    /// 27 % of its commands per second (2-vCPU VM).
    Soon,
    /// At once: the word can no longer change (all `N` results, or the
    /// partial-synchrony cutoff).
    Now,
}

/// What a decode of the word may do.
#[derive(Debug)]
pub(super) enum Verdict<F> {
    /// At least `dim + b` results agree with the decode
    /// (`RsCode::certifies`): it is the honest codeword, whatever is still
    /// missing. The exchange ends.
    Certified(DecodedRound<F>),
    /// A decode of a frozen word, or at the deadline, that no certificate
    /// covers: `dim` results holding one lie interpolate a wrong codeword
    /// with nothing to check it against. The exchange ends and the core
    /// still commits it: the open hole that ROADMAP `cert` closes.
    Uncertified(DecodedRound<F>),
    /// A frozen or deadline word that does not decode. The exchange ends.
    Failed,
    /// The word may still grow into a certificate: keep waiting.
    Wait,
}

/// The word of the last round that committed on a certificate, kept
/// until the next exchange ends: a result that arrives after the commit
/// is still checked, so the evidence an early commit skipped is not lost.
struct LateWord<F> {
    round: u64,
    digest: u64,
    word: Word<F>,
    /// Every node exposed so far.
    detected: Vec<usize>,
}

/// The exchange of one node: the open round's word and its pacing, the
/// results of rounds it has not reached, and the last certified word.
pub(super) struct Exchange<F> {
    faults: usize,
    /// Results from which a decode may certify: `dim + b`.
    certifiable: usize,
    /// Results at which the word stops changing: `N`, or `N − b` under
    /// partial synchrony.
    cutoff: usize,
    synchronous: bool,
    /// How long after `started` the exchange times out: Δ, or the
    /// partial-synchrony fallback `max_wait`.
    wait: u64,
    /// Slot `i` holds the first result sender `i` sent this round.
    word: Word<F>,
    held: usize,
    /// A `Decode` timer is armed.
    decode_due: bool,
    /// When this node's result went out, and when a result last arrived.
    pub(super) started: u64,
    pub(super) last_progress: u64,
    /// Results that raced ahead of this node's round, per round and sender.
    pub(super) early: BTreeMap<u64, BTreeMap<usize, Vec<F>>>,
    late: Option<LateWord<F>>,
    /// Decodes so far, for the per-round bound's test.
    #[cfg(test)]
    pub(super) decodes: u64,
}

impl<F: Field> Exchange<F> {
    /// The exchange of a node running `machine` on `timing`, among nodes
    /// of which at most `faults < N` are Byzantine.
    pub(super) fn new(machine: &CodedMachine<F>, faults: usize, timing: &ExchangeTiming) -> Self {
        let n = machine.n();
        assert!(faults < n, "cutoff N - b must be positive");
        let synchronous = timing.synchrony == SynchronyMode::Synchronous;
        let wait = if synchronous {
            timing.delta
        } else {
            timing.max_wait
        };
        Exchange {
            faults,
            certifiable: machine.code().dim() + faults,
            cutoff: if synchronous { n } else { n - faults },
            synchronous,
            wait: micros(wait),
            word: vec![None; n],
            held: 0,
            decode_due: false,
            started: 0,
            last_progress: 0,
            early: BTreeMap::new(),
            late: None,
            #[cfg(test)]
            decodes: 0,
        }
    }

    /// Keeps `from`'s result for a `round` this node has not reached (the
    /// core bounds how far ahead); the first per sender stands.
    pub(super) fn early(&mut self, round: u64, from: usize, vector: Vec<F>) {
        let results = self.early.entry(round).or_default();
        results.entry(from).or_insert(vector);
    }

    /// Drops the early results of rounds before `round`.
    pub(super) fn prune(&mut self, round: u64) {
        self.early.retain(|&r, _| r >= round);
    }

    /// Opens `round`'s word at `now` with this node's `own` result, if it
    /// sent one, and the results that raced ahead, and says when to decode.
    pub(super) fn open(&mut self, round: u64, now: u64, own: Option<(usize, Vec<F>)>) -> Due {
        self.word.fill(None);
        (self.held, self.decode_due) = (0, false);
        (self.started, self.last_progress) = (now, now);
        let early = self.early.remove(&round).unwrap_or_default();
        for (from, vector) in own.into_iter().chain(early) {
            self.insert(from, vector);
        }
        self.due()
    }

    /// Records `from`'s result at `now`, and says when to decode.
    pub(super) fn record(&mut self, from: usize, vector: Vec<F>, now: u64) -> Due {
        if !self.insert(from, vector) {
            return Due::Later;
        }
        self.last_progress = now;
        self.due()
    }

    /// Whether `from`'s result grew the word: the first per sender wins, a
    /// frozen word takes none, and out-of-range senders are ignored.
    fn insert(&mut self, from: usize, vector: Vec<F>) -> bool {
        let grew = self.held < self.cutoff && first_wins(&mut self.word, from, vector);
        self.held += usize::from(grew);
        grew
    }

    /// A frozen word is decoded at once; one holding `dim + b` results
    /// may already certify, and is decoded soon.
    fn due(&mut self) -> Due {
        if self.held >= self.cutoff {
            Due::Now
        } else if self.held >= self.certifiable && !std::mem::replace(&mut self.decode_due, true) {
            Due::Soon
        } else {
            Due::Later
        }
    }

    /// Decodes the word as it stands through `engine`; `deadline`: the
    /// exchange's timer fired. A decode that certifies, or one of a frozen
    /// word or at the deadline, ends the exchange; any other is discarded
    /// ([`Verdict::Wait`]). Each decode but the deadline's sees a word
    /// grown since the last, so a round decodes at most `N − dim − b + 1`
    /// times: once per result count from `dim + b` to `N`, and once at the
    /// deadline if the word never filled.
    pub(super) fn decode(&mut self, engine: &mut RoundEngine<F>, deadline: bool) -> Verdict<F> {
        self.decode_due = false;
        #[cfg(test)]
        {
            self.decodes += 1;
        }
        let decoded = engine.decode(&self.word).ok();
        // the union of the error positions is wrong in some coordinate, so
        // every coordinate's decode agrees with all the other usable results
        let certified = decoded.as_ref().is_some_and(|d| {
            let agreeing = d.results_held.saturating_sub(d.detected_error_nodes.len());
            engine.machine().code().certifies(agreeing, self.faults)
        });
        if !(certified || self.held >= self.cutoff || deadline) {
            return Verdict::Wait;
        }
        self.late = None;
        match decoded {
            None => Verdict::Failed,
            Some(decoded) if certified => {
                let word = vec![None; self.word.len()];
                self.late = Some(LateWord {
                    round: engine.round(),
                    digest: decoded.digest(),
                    word: std::mem::replace(&mut self.word, word),
                    detected: decoded.detected_error_nodes.clone(),
                });
                Verdict::Certified(decoded)
            }
            Some(decoded) => Verdict::Uncertified(decoded),
        }
    }

    /// When the exchange times out: the core's `Exchange` timer.
    pub(super) fn deadline(&self) -> u64 {
        self.started + self.wait
    }

    /// Where the next round's pacing starts for an exchange that ended at
    /// `now`: as if it had waited out Δ under synchrony, else `now`.
    pub(super) fn waited(&self, now: u64) -> u64 {
        let paced_from = if self.synchronous {
            self.deadline()
        } else {
            now
        };
        now.max(paced_from)
    }

    /// The round whose late word is kept, if any.
    pub(super) fn late_round(&self) -> Option<u64> {
        self.late.as_ref().map(|late| late.round)
    }

    /// Drops the late word: after a state transfer the node has no
    /// history to vouch for.
    pub(super) fn forget_late(&mut self) {
        self.late = None;
    }

    /// A result for the late word's round: record it and decode the word
    /// again. Returns the senders this newly exposes, reported as if the
    /// commit's own decode had found them, and brings the round's `record`
    /// up to the word as it finally stood. The commit stands: with at most
    /// `b` liars the grown word still decodes to what was committed, and a
    /// re-decode that does not (more than `b` liars) attributes nothing.
    pub(super) fn recheck(
        &mut self,
        from: usize,
        vector: Vec<F>,
        machine: &CodedMachine<F>,
        record: Option<&mut RoundCommit<F>>,
    ) -> Vec<usize> {
        let Some(late) = self.late.as_mut() else {
            return Vec::new();
        };
        if !first_wins(&mut late.word, from, vector) {
            return Vec::new();
        }
        let recheck = machine.decode_word(&late.word, &late.detected);
        let Some(recheck) = recheck.ok().filter(|r| r.digest() == late.digest) else {
            return Vec::new();
        };
        let detected = std::mem::replace(&mut late.detected, recheck.detected_error_nodes);
        if let Some(record) = record {
            record.results_held = recheck.results_held;
            record.detected_error_nodes.clone_from(&late.detected);
        }
        let exposed = late.detected.iter().filter(|peer| !detected.contains(peer));
        exposed.copied().collect()
    }
}

/// Puts `from`'s result into its empty slot of `word`; returns whether
/// there was one.
fn first_wins<F>(word: &mut Word<F>, from: usize, vector: Vec<F>) -> bool {
    let Some(slot @ None) = word.get_mut(from) else {
        return false;
    };
    *slot = Some(vector);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_algebra::Fp61;
    use csm_core::digest::splitmix64;
    use csm_core::DecoderKind;
    use csm_statemachine::machines::bank_machine;
    use std::sync::Arc;
    use std::time::Duration;

    const DELTA: u64 = 2_000;

    fn f(v: u64) -> Fp61 {
        Fp61::from_u64(v)
    }

    fn machine(n: usize, k: usize) -> Arc<CodedMachine<Fp61>> {
        Arc::new(CodedMachine::new(n, k, bank_machine(), DecoderKind::default()).unwrap())
    }

    fn synchronous(n: usize, k: usize, b: usize) -> Exchange<Fp61> {
        let timing = ExchangeTiming::synchronous(b, Duration::from_micros(DELTA));
        Exchange::new(&machine(n, k), b, &timing)
    }

    #[test]
    fn the_first_result_per_sender_wins() {
        let mut ex = synchronous(4, 2, 1);
        // results that raced ahead: round 2's are kept, round 0's pruned
        ex.early(0, 3, vec![f(5)]);
        ex.early(2, 2, vec![f(20)]);
        ex.early(2, 2, vec![f(21)]);
        ex.prune(1);
        assert_eq!(ex.open(0, 100, Some((1, vec![f(10)]))), Due::Later);
        assert_eq!(ex.held, 1, "round 0's early result is gone");
        assert_eq!(ex.open(2, 100, Some((1, vec![f(10)]))), Due::Later);
        assert_eq!(ex.record(1, vec![f(99)], 105), Due::Later); // duplicate sender ignored
        assert_eq!(ex.record(7, vec![f(1)], 105), Due::Later); // out of range ignored
        assert_eq!(ex.word[1].as_deref(), Some(&[f(10)][..]));
        assert_eq!(ex.word[2].as_deref(), Some(&[f(20)][..]));
        assert_eq!((ex.held, ex.last_progress), (2, 100));
        // the deadline is Δ after the open, and pacing counts from there
        assert_eq!(ex.deadline(), 100 + DELTA);
        assert_eq!(ex.waited(150), 100 + DELTA);
    }

    #[test]
    fn partial_synchrony_freezes_the_word_at_n_minus_b() {
        let (n, b) = (6, 2);
        let timing = ExchangeTiming::partially_synchronous(b, Duration::from_micros(DELTA));
        let mut ex = Exchange::new(&machine(n, 2), b, &timing);
        ex.open(0, 0, None);
        for i in 0..n - b - 1 {
            assert_ne!(ex.record(i, vec![f(i as u64)], 1), Due::Now);
        }
        // the (N − b)-th result freezes the word
        assert_eq!(ex.record(n - b - 1, vec![f(9)], 2), Due::Now);
        assert_eq!(ex.held, n - b);
        // results after the freeze are ignored
        assert_eq!(ex.record(n - 1, vec![f(2)], 3), Due::Later);
        assert_eq!((ex.held, ex.last_progress), (n - b, 2));
        // max_wait is only the fallback, and pacing counts from the decode
        assert_eq!((ex.deadline(), ex.waited(3)), (DELTA, 3));
    }

    #[test]
    fn synchrony_never_freezes_a_word_short_of_n() {
        let n = 5;
        let mut ex = synchronous(n, 2, 2);
        ex.open(0, 0, None);
        // synchronous receivers wait for the deadline, or a certificate,
        // even past N − b results
        let dues: Vec<Due> = (0..n).map(|i| ex.record(i, vec![f(i as u64)], 1)).collect();
        assert_eq!(
            dues[..n - 1],
            [Due::Later, Due::Later, Due::Later, Due::Soon]
        );
        // only the full word can no longer change
        assert_eq!(dues[n - 1], Due::Now);
    }

    /// What a Byzantine sender does in the exchange.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Honest,
        Withhold,
        /// Sends this receiver its own perturbed copy
        /// ([`outgoing`](super::outgoing)).
        Equivocate,
        /// Shifts its result onto the wrong codeword the colluders share.
        Collude,
    }

    /// The kinds a cast draws: an honest Byzantine sender is the cast with
    /// one Byzantine sender fewer.
    const KINDS: [Kind; 3] = [Kind::Withhold, Kind::Equivocate, Kind::Collude];

    /// One receiver's exchange at genesis on the bank machine: every
    /// node's honest result, the honest decode, and a decoding engine.
    struct Bench {
        machine: Arc<CodedMachine<Fp61>>,
        b: usize,
        me: usize,
        honest: Vec<Vec<Fp61>>,
        truth: u64,
        engine: RoundEngine<Fp61>,
    }

    impl Bench {
        fn new(n: usize, k: usize, b: usize) -> Self {
            let machine = machine(n, k);
            let states: Vec<Vec<Fp61>> = (0..k).map(|s| vec![f(100 * (s as u64 + 1))]).collect();
            let programs = vec![vec![vec![f(3)]]; k];
            let honest: Vec<Vec<Fp61>> = (0..n)
                .map(|node| {
                    let engine = RoundEngine::new(Arc::clone(&machine), node, &states).unwrap();
                    engine.execute_batched(&programs).unwrap()
                })
                .collect();
            let word = honest.iter().cloned().map(Some).collect();
            let truth = machine.decode_word(&word, &[]).unwrap().digest();
            let engine = RoundEngine::new(Arc::clone(&machine), 0, &states).unwrap();
            Bench {
                machine,
                b,
                me: 0,
                honest,
                truth,
                engine,
            }
        }

        /// What `cast` has each sender send this receiver: `None` for a
        /// withholder. The colluders' results all lie on the honest
        /// codeword plus `c·Π_{s∈S}(x − α_s)`, which is zero on the `dim − 1`
        /// honest positions `S`.
        fn sent(&self, cast: &[Kind], honest_on_lie: &[usize]) -> Vec<Option<Vec<Fp61>>> {
            let points = self.machine.code().points();
            let c = f(0xC0DE);
            (0..cast.len())
                .map(|node| {
                    let shift = match cast[node] {
                        Kind::Honest => f(0),
                        Kind::Withhold => return None,
                        Kind::Equivocate => {
                            // exactly what the shipping equivocator sends here
                            let n = cast.len();
                            let frames =
                                outgoing(BehaviorKind::Equivocate, node, n, &self.honest[node]);
                            let (_, _, values) =
                                frames.into_iter().find(|f| f.0 == Some(self.me))?;
                            return Some(values.into_iter().map(Fp61::from_u64).collect());
                        }
                        Kind::Collude => honest_on_lie
                            .iter()
                            .fold(c, |acc, &s| acc * (points[node] - points[s])),
                    };
                    Some(self.honest[node].iter().map(|&x| x + shift).collect())
                })
                .collect()
        }

        /// Runs one exchange: this node's own result, then `order`'s
        /// results one by one, each followed by the decode it makes due,
        /// then the deadline. Returns the verdict that ended it: its digest
        /// (0 for a failure) and whether it certified.
        fn run(&mut self, sent: &[Option<Vec<Fp61>>], order: &[usize]) -> (u64, bool) {
            let timing = ExchangeTiming::synchronous(self.b, Duration::from_micros(DELTA));
            let mut ex = Exchange::new(&self.machine, self.b, &timing);
            let own = sent[self.me].clone().expect("the receiver is honest");
            let mut due = ex.open(0, 0, Some((self.me, own)));
            let mut arrivals = order.iter();
            loop {
                if due != Due::Later {
                    match ex.decode(&mut self.engine, false) {
                        Verdict::Wait => assert_eq!(due, Due::Soon, "a frozen word ends"),
                        verdict => return ended(verdict),
                    }
                }
                let Some(&from) = arrivals.next() else {
                    return ended(ex.decode(&mut self.engine, true));
                };
                due = ex.record(from, sent[from].clone().unwrap(), 1);
            }
        }
    }

    fn ended(verdict: Verdict<Fp61>) -> (u64, bool) {
        match verdict {
            Verdict::Certified(d) => (d.digest(), true),
            Verdict::Uncertified(d) => (d.digest(), false),
            Verdict::Failed => (0, false),
            Verdict::Wait => panic!("the deadline ends the exchange"),
        }
    }

    /// Every ordering of every subset of `senders`.
    fn arrangements(senders: &[usize]) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new()];
        let mut frontier = vec![(Vec::new(), senders.to_vec())];
        while let Some((prefix, rest)) = frontier.pop() {
            for (i, &next) in rest.iter().enumerate() {
                let mut order = prefix.clone();
                order.push(next);
                let mut left = rest.clone();
                left.remove(i);
                out.push(order.clone());
                frontier.push((order, left));
            }
        }
        out
    }

    /// Every subset of `senders`, each in `orders` orders drawn from `seed`.
    fn sampled(senders: &[usize], orders: u64, seed: u64) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for mask in 0u64..1 << senders.len() {
            let subset: Vec<usize> = (0..senders.len())
                .filter(|i| (mask >> i) & 1 == 1)
                .map(|i| senders[i])
                .collect();
            for draw in 0..orders {
                let mut order = subset.clone();
                for i in (1..order.len()).rev() {
                    let r = splitmix64(seed ^ (mask << 32) ^ (draw << 8) ^ i as u64);
                    order.swap(i, (r % (i as u64 + 1)) as usize);
                }
                out.push(order);
            }
        }
        out
    }

    /// Every cast of `byzantine` senders among the nodes other than the
    /// receiver: the positions, and a kind for each.
    fn casts(n: usize, byzantine: usize) -> Vec<Vec<Kind>> {
        let mut out = Vec::new();
        for mask in 0u32..1 << n {
            if mask & 1 != 0 || mask.count_ones() as usize != byzantine {
                continue;
            }
            let positions: Vec<usize> = (1..n).filter(|i| (mask >> i) & 1 == 1).collect();
            for pick in 0..KINDS.len().pow(byzantine as u32) {
                let mut cast = vec![Kind::Honest; n];
                for (j, &p) in positions.iter().enumerate() {
                    cast[p] = KINDS[pick / KINDS.len().pow(j as u32) % KINDS.len()];
                }
                out.push(cast);
            }
        }
        out
    }

    /// With at most `b` Byzantine senders, every certified verdict is the
    /// honest codeword, and an exchange that heard every honest sender
    /// certifies.
    fn certificates_are_honest(bench: &mut Bench, orders: impl Fn(&[usize]) -> Vec<Vec<usize>>) {
        let (n, dim) = (bench.honest.len(), bench.machine.code().dim());
        for byzantine in 0..=bench.b {
            for cast in casts(n, byzantine) {
                let honest: Vec<usize> = (0..n).filter(|&i| cast[i] == Kind::Honest).collect();
                let sent = bench.sent(&cast, &honest[..dim - 1]);
                let senders: Vec<usize> = (1..n).filter(|&i| sent[i].is_some()).collect();
                for order in orders(&senders) {
                    let (digest, certified) = bench.run(&sent, &order);
                    assert!(!certified || digest == bench.truth, "{cast:?} {order:?}");
                    let heard_all = honest.iter().all(|i| *i == 0 || order.contains(i));
                    assert!(!heard_all || certified, "{cast:?} {order:?}");
                }
            }
        }
    }

    /// `b + 1` colluders and `dim − 1` honest senders share a wrong
    /// codeword, and some arrival order certifies it.
    fn b_plus_one_colluders_certify_a_lie(
        bench: &mut Bench,
        orders: impl Fn(&[usize]) -> Vec<Vec<usize>>,
    ) {
        let (n, dim, b) = (bench.honest.len(), bench.machine.code().dim(), bench.b);
        for cast in casts(n, b + 1) {
            if cast.contains(&Kind::Withhold) || cast.contains(&Kind::Equivocate) {
                continue;
            }
            let honest: Vec<usize> = (0..n).filter(|&i| cast[i] == Kind::Honest).collect();
            let sent = bench.sent(&cast, &honest[..dim - 1]);
            let senders: Vec<usize> = (1..n).collect();
            let lied = orders(&senders).iter().any(|order| {
                let (digest, certified) = bench.run(&sent, order);
                certified && digest != bench.truth
            });
            assert!(lied, "{cast:?}: no order certifies the colluders' codeword");
        }
    }

    #[test]
    fn every_arrival_at_n4_k2_b1_certifies_only_the_truth() {
        let mut bench = Bench::new(4, 2, 1);
        certificates_are_honest(&mut bench, arrangements);
        b_plus_one_colluders_certify_a_lie(&mut bench, arrangements);
    }

    #[test]
    fn every_subset_at_n7_k3_b2_certifies_only_the_truth() {
        let mut bench = Bench::new(7, 3, 2);
        certificates_are_honest(&mut bench, |senders| sampled(senders, 8, 7));
        b_plus_one_colluders_certify_a_lie(&mut bench, |senders| sampled(senders, 8, 7));
    }

    #[test]
    fn a_deadline_word_of_dim_results_is_uncertified() {
        // N = 8, K = 2 (dim 2), b = 2: by Δ this node holds only its own
        // result and one lie. Two results interpolate a wrong codeword with
        // nothing to check it against: the verdict names the hole
        let mut bench = Bench::new(8, 2, 2);
        let mut cast = vec![Kind::Honest; 8];
        cast[3] = Kind::Equivocate;
        let sent = bench.sent(&cast, &[]);
        let timing = ExchangeTiming::synchronous(2, Duration::from_micros(DELTA));
        let mut ex = Exchange::new(&bench.machine, 2, &timing);
        let own = sent[0].clone().unwrap();
        assert_eq!(ex.open(0, 0, Some((0, own))), Due::Later);
        assert_eq!(ex.record(3, sent[3].clone().unwrap(), 600), Due::Later);
        match ex.decode(&mut bench.engine, true) {
            Verdict::Uncertified(d) => assert_ne!(d.digest(), bench.truth, "a lie"),
            verdict => panic!("{verdict:?}"),
        }
        assert_eq!(ex.late_round(), None, "only a certificate keeps its word");
    }
}
