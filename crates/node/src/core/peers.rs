//! The peer evidence a gateway core holds, and every `b + 1` count over
//! it. At most `b` nodes are Byzantine, so a claim `b + 1` distinct nodes
//! make has an honest node behind it: the wake rule, the desync check,
//! the catch-up trigger and the state-transfer acceptance rule all count
//! through [`PeerView::vouched`]. The view is pure; `GatewayCore::intake`
//! bounds every frame before it gets here, and the core decides what to
//! do with the answers (wake, halt, resync).

use std::collections::{BTreeMap, BTreeSet};

/// How many trailing rounds the desync check inspects (commit gossip for
/// a round keeps arriving during the following rounds).
const DESYNC_WINDOW: u64 = 4;

/// What this node's peers said about their rounds and commits.
pub(super) struct PeerView {
    me: usize,
    faults: usize,
    /// The highest round each node has sent a protocol frame for.
    rounds: Vec<Option<u64>>,
    /// Each node's first announced commit digest, per round.
    commits: BTreeMap<u64, BTreeMap<usize, u64>>,
}

impl PeerView {
    /// The empty view of node `me` in a cluster of `cluster` nodes that
    /// tolerates `faults` Byzantine ones.
    pub(super) fn new(me: usize, cluster: usize, faults: usize) -> Self {
        PeerView {
            me,
            faults,
            rounds: vec![None; cluster],
            commits: BTreeMap::new(),
        }
    }

    /// Records that `from` sent a protocol frame for `round`.
    pub(super) fn saw(&mut self, from: usize, round: u64) {
        let seen = &mut self.rounds[from];
        *seen = (*seen).max(Some(round));
    }

    /// Records `from`'s commit announcement for `round`. Its first one per
    /// round stands: an equivocator cannot vote twice.
    pub(super) fn commit(&mut self, from: usize, round: u64, digest: u64) {
        self.commits
            .entry(round)
            .or_default()
            .entry(from)
            .or_insert(digest);
        self.saw(from, round);
    }

    /// Forgets commit announcements for rounds before `round − lookahead`.
    pub(super) fn prune(&mut self, round: u64, lookahead: u64) {
        self.commits
            .retain(|&r, _| r.saturating_add(lookahead) >= round);
    }

    /// Whether an honest node is evidently in `round` or past it: its
    /// `leader`, or `b + 1` nodes, sent a protocol frame for it or a later
    /// round. A lone Byzantine peer therefore pulls this node early only
    /// into the rounds it leads itself; it cannot make the cluster run
    /// empty rounds at network speed.
    pub(super) fn moved_on(&self, round: u64, leader: usize) -> bool {
        let ahead = |node: &usize| self.rounds[*node] >= Some(round);
        let nodes = (0..self.rounds.len()).filter(ahead);
        ahead(&leader) || !self.vouched(nodes.map(|node| (node, ()))).is_empty()
    }

    /// The earliest strictly-past round of the last `DESYNC_WINDOW`
    /// before `round`, and not before `first_recorded_round`, for which
    /// `b + 1` peers announced a digest other than `own` says this node
    /// committed (`None` for a round it failed).
    pub(super) fn diverged(
        &self,
        round: u64,
        first_recorded_round: u64,
        own: impl Fn(u64) -> Option<u64>,
    ) -> Option<u64> {
        (round.saturating_sub(DESYNC_WINDOW)..round)
            .filter(|&past| past >= first_recorded_round)
            .find(|&past| {
                let own = own(past);
                self.agreed(past).any(|digest| own != Some(digest))
            })
    }

    /// The highest round for which `b + 1` peers announced a common
    /// digest (the "cluster moved on without me" detector).
    pub(super) fn commit_frontier(&self) -> Option<u64> {
        let mut rounds = self.commits.keys().rev().copied();
        rounds.find(|&round| self.agreed(round).next().is_some())
    }

    /// The digests `b + 1` peers other than this node announced for `round`.
    fn agreed(&self, round: u64) -> impl Iterator<Item = u64> {
        let votes = self.commits.get(&round).into_iter().flatten();
        let peers = votes.filter(|(&node, _)| node != self.me);
        let tally = self.vouched(peers.map(|(&node, &digest)| (node, digest)));
        tally.into_keys()
    }

    /// The claims among `(voter, claim)` votes that at least `b + 1`
    /// distinct voters make, in ascending order, each with its voters.
    pub(super) fn vouched<C: Ord>(
        &self,
        votes: impl IntoIterator<Item = (usize, C)>,
    ) -> BTreeMap<C, BTreeSet<usize>> {
        let mut tally: BTreeMap<C, BTreeSet<usize>> = BTreeMap::new();
        for (voter, claim) in votes {
            tally.entry(claim).or_default().insert(voter);
        }
        tally.retain(|_, voters| voters.len() > self.faults);
        tally
    }
}

#[cfg(test)]
impl PeerView {
    /// Each node's first announced digest per round, as recorded.
    pub(super) fn commits(&self) -> &BTreeMap<u64, BTreeMap<usize, u64>> {
        &self.commits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node 0's view in the `N = 4`, `b = 1` cluster.
    fn view() -> PeerView {
        PeerView::new(0, 4, 1)
    }

    #[test]
    fn the_leader_or_b_plus_one_peers_wake_a_node() {
        let mut v = view();
        assert!(!v.moved_on(5, 3));
        v.saw(3, 5);
        assert!(v.moved_on(5, 3), "the round's leader alone");
        assert!(!v.moved_on(5, 2), "one peer that does not lead");
        v.saw(1, 7);
        assert!(v.moved_on(5, 2), "b + 1 peers, one of them a round later");
        assert!(
            !v.moved_on(6, 2),
            "frames for an earlier round count for nothing"
        );
        v.saw(1, 4);
        assert!(v.moved_on(7, 1), "a peer's highest round stands");
    }

    #[test]
    fn a_peers_first_commit_per_round_stands() {
        let mut v = view();
        v.commit(2, 5, 7);
        v.commit(2, 5, 8);
        v.commit(2, 6, 8);
        assert_eq!(v.commits()[&5][&2], 7);
        assert_eq!(v.commits()[&6][&2], 8);
        assert!(v.moved_on(6, 2), "a commit is also a frame for its round");
    }

    #[test]
    fn divergence_is_looked_for_only_in_the_window_of_past_rounds() {
        let mut v = view();
        for round in [0, 5, 6, 9, 10] {
            v.commit(1, round, 7);
            v.commit(2, round, 7);
        }
        let mine = |_| Some(8);
        assert_eq!(v.diverged(10, 0, mine), Some(6), "rounds 6..10");
        assert_eq!(
            v.diverged(10, 7, mine),
            Some(9),
            "none before the first recorded"
        );
        assert_eq!(
            v.diverged(9, 7, mine),
            None,
            "the current round is not past"
        );
        assert_eq!(
            v.diverged(1, 0, mine),
            Some(0),
            "the window starts at round 0"
        );
        assert_eq!(v.diverged(0, 0, mine), None);
    }

    #[test]
    fn divergence_needs_b_plus_one_peers_against_this_node() {
        let mut v = view();
        v.commit(1, 3, 7);
        assert_eq!(v.diverged(4, 0, |_| None), None, "b votes never suffice");
        v.commit(0, 3, 7);
        assert_eq!(
            v.diverged(4, 0, |_| None),
            None,
            "this node's vote is not a peer's"
        );
        v.commit(2, 3, 7);
        assert_eq!(
            v.diverged(4, 0, |_| Some(7)),
            None,
            "peers agree with this node"
        );
        assert_eq!(v.diverged(4, 0, |_| Some(8)), Some(3));
        assert_eq!(
            v.diverged(4, 0, |_| None),
            Some(3),
            "this node failed the round"
        );
    }

    #[test]
    fn the_commit_frontier_is_the_highest_round_b_plus_one_peers_agree_on() {
        let mut v = view();
        assert_eq!(v.commit_frontier(), None);
        v.commit(1, 4, 7);
        v.commit(2, 4, 7);
        v.commit(1, 9, 7);
        v.commit(2, 9, 8);
        v.commit(0, 9, 8);
        assert_eq!(v.commit_frontier(), Some(4), "a b/b split at round 9");
        v.commit(3, 9, 8);
        assert_eq!(v.commit_frontier(), Some(9));
    }

    #[test]
    fn prune_keeps_the_rounds_from_round_minus_lookahead() {
        let mut v = view();
        for round in 0..10 {
            v.commit(1, round, 7);
        }
        v.prune(9, 4);
        assert_eq!(
            v.commits().keys().copied().collect::<Vec<_>>(),
            [5, 6, 7, 8, 9]
        );
        v.prune(2, 4);
        assert_eq!(v.commits().len(), 5, "an early round keeps everything");
    }

    #[test]
    fn vouched_claims_come_in_ascending_order_with_their_voters() {
        let v = view();
        let votes = [
            (3, (7, 1)),
            (1, (5, 9)),
            (2, (7, 1)),
            (3, (7, 1)),
            (2, (5, 9)),
        ];
        let vouched = v.vouched(votes.into_iter().chain([(0, (6, 2))]));
        let claims: Vec<_> = vouched.keys().copied().collect();
        assert_eq!(claims, [(5, 9), (7, 1)], "(6, 2) has one voter");
        let (&highest, voters) = vouched.iter().next_back().unwrap();
        assert_eq!(highest, (7, 1));
        assert_eq!(voters.iter().copied().collect::<Vec<_>>(), [2, 3]);
        let repeated = v.vouched([(3, 'a'), (3, 'a')]);
        assert!(repeated.is_empty(), "one voter twice is not b + 1");
    }
}
