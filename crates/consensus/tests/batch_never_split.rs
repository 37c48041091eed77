//! The never-split-commit property of the batch-consensus machines: for
//! random batches, cluster shapes, leaders, and Byzantine casts
//! (equivocating leaders, silent relayers/replicas, garbage injectors),
//! every honest node of a Dolev–Strong or PBFT instance lands on a
//! bit-identical batch or aborts (⊥) — two honest nodes never commit
//! different batches. The `csm-node` gateway drives these exact state
//! machines over the live mesh, so the property transfers to the deployed
//! batch agreement (the transport layer adds only MAC-verified delivery,
//! which is strictly less adversarial than what is modelled here).
//!
//! Both runs go through the library's lock-step drivers. PBFT under delay
//! and partition is covered by the chaos harness's `--consensus pbft`
//! bands, not here.

use csm_consensus::batch::{
    run_ds_lockstep, run_pbft_lockstep, BatchRows, Conduct, DsBatch, DsRelay, PbftBatchConfig,
};
use csm_network::auth::KeyRegistry;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A random, valid-looking batch of up to three `Stage` rows.
fn rows_strategy() -> impl Strategy<Value = BatchRows> {
    prop::collection::vec(prop::collection::vec(any::<u64>(), 5..7), 0..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dolev–Strong, any `b < N`: with an honest leader every honest node
    /// decides the leader's batch; with an equivocating or silent leader,
    /// every honest node decides the same thing (⊥ or one value) — never a
    /// split. `byz_pick` places up to `N − 1` Byzantine nodes right after
    /// the leader, each silent or a garbage injector.
    #[test]
    fn ds_honest_nodes_never_split(
        n in 4usize..9,
        leader_pick in any::<usize>(),
        mode_pick in 0u8..3,
        byz_pick in any::<usize>(),
        garbage_mask in any::<u16>(),
        f_slack in 0usize..3,
        rows_a in rows_strategy(),
        rows_b in rows_strategy(),
        seed in any::<u64>(),
    ) {
        prop_assume!(rows_a != rows_b);
        let leader = leader_pick % n;
        let leader_conduct = match mode_pick {
            0 => Conduct::Honest,
            1 => Conduct::Equivocate(rows_b),
            _ => Conduct::Silent,
        };
        let leader_faulty = leader_conduct != Conduct::Honest;
        let mut conduct = vec![Conduct::Honest; n];
        conduct[leader] = leader_conduct.clone();
        let relayers = byz_pick % (n - usize::from(leader_faulty));
        for j in 0..relayers {
            conduct[(leader + 1 + j) % n] = if (garbage_mask >> j) & 1 == 0 {
                Conduct::Silent
            } else {
                Conduct::Garbage
            };
        }
        let b = relayers + usize::from(leader_faulty);
        let f = (b + f_slack).clamp(1, n - 1);
        let reg = Arc::new(KeyRegistry::new(n, seed));
        let decisions = run_ds_lockstep(11, f, leader, &rows_a, &conduct, &reg);
        let honest: Vec<usize> = (0..n).filter(|&i| conduct[i] == Conduct::Honest).collect();
        let first = decisions[honest[0]].clone();
        for &i in &honest {
            prop_assert_eq!(
                &decisions[i], &first,
                "honest nodes {} and {} split under {:?}", honest[0], i, leader_conduct
            );
        }
        if !leader_faulty {
            prop_assert_eq!(first, Some(rows_a), "honest leader's batch must win");
        }
    }

    /// PBFT: with `n ≥ 3f + 1` (`f ∈ {1, 2}`, `n = 3f + 1` included), any
    /// view-0 primary, and up to `f` Byzantine replicas (an equivocating
    /// primary mixed with silent ones), every honest node decides, and all
    /// decisions are bit-identical.
    #[test]
    fn pbft_honest_nodes_never_split_and_stay_live(
        f in 1usize..3,
        n_slack in 0usize..3,
        leader_pick in any::<usize>(),
        rows_b in rows_strategy(),
        equivocate in any::<bool>(),
        byz_mask in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let n = 3 * f + 1 + n_slack;
        let cfg = PbftBatchConfig {
            n,
            f,
            round: 11,
            leader: leader_pick % n,
            base_timeout: Duration::from_millis(100),
        };
        let proposals: Vec<BatchRows> = (0..n).map(|i| vec![vec![i as u64; 5]]).collect();
        prop_assume!(rows_b != proposals[cfg.leader]);
        let mut conduct = vec![Conduct::Honest; n];
        if equivocate {
            conduct[cfg.leader] = Conduct::Equivocate(rows_b);
        }
        let silent = (0..n)
            .filter(|&i| i != cfg.leader && (byz_mask >> i) & 1 == 1)
            .take(f - usize::from(equivocate));
        for i in silent {
            conduct[i] = Conduct::Silent;
        }
        let reg = Arc::new(KeyRegistry::new(n, seed));
        let decisions = run_pbft_lockstep(&cfg, &proposals, &conduct, &reg, &|_| true);
        let honest: Vec<usize> = (0..n).filter(|&i| conduct[i] == Conduct::Honest).collect();
        for &i in &honest {
            prop_assert!(
                decisions[i].is_some(),
                "honest node {} failed to decide (liveness)", i
            );
            prop_assert_eq!(
                &decisions[i], &decisions[honest[0]],
                "honest nodes {} and {} split", honest[0], i
            );
        }
    }

    /// Dolev–Strong chain validation under an arbitrary first signer: only
    /// a chain the leader started verifies.
    #[test]
    fn chain_requires_leader_first(
        n in 3usize..8,
        leader in 0usize..8,
        first in 0usize..8,
        rows in rows_strategy(),
        seed in any::<u64>(),
    ) {
        let (leader, first) = (leader % n, first % n);
        let reg = Arc::new(KeyRegistry::new(n, seed));
        let signer = DsBatch::new(11, n, 1, leader, first, Arc::clone(&reg));
        let relay = DsRelay {
            chain: vec![signer.sign_value(&rows)],
            rows,
        };
        let verifier = DsBatch::new(11, n, 1, leader, (first + 1) % n, reg);
        prop_assert_eq!(verifier.chain_valid(&relay), first == leader);
    }
}
