//! Property tests for the VRMU: the tag store must stay injective and
//! lock-consistent under arbitrary operation sequences, and victim
//! selection must respect locks and validity for every policy.

use proptest::prelude::*;
use virec_core::policy::{select_victim, EntryMeta, XorShift};
use virec_core::vrmu::{AllocOutcome, RollbackEntry, RollbackQueue, TagStore};
use virec_core::PolicyKind;
use virec_isa::{Reg, RegList};

#[derive(Clone, Debug)]
enum TsOp {
    Alloc { tid: u8, reg: u8 },
    Touch { tid: u8, reg: u8 },
    Lock { tid: u8, reg: u8 },
    Unlock { tid: u8, reg: u8 },
    Switch { out: u8, inn: u8 },
    ClearCommit { tid: u8, reg: u8 },
}

fn ts_op() -> impl Strategy<Value = TsOp> {
    prop_oneof![
        (0u8..4, 0u8..8).prop_map(|(tid, reg)| TsOp::Alloc { tid, reg }),
        (0u8..4, 0u8..8).prop_map(|(tid, reg)| TsOp::Touch { tid, reg }),
        (0u8..4, 0u8..8).prop_map(|(tid, reg)| TsOp::Lock { tid, reg }),
        (0u8..4, 0u8..8).prop_map(|(tid, reg)| TsOp::Unlock { tid, reg }),
        (0u8..4, 0u8..4).prop_map(|(out, inn)| TsOp::Switch { out, inn }),
        (0u8..4, 0u8..8).prop_map(|(tid, reg)| TsOp::ClearCommit { tid, reg }),
    ]
}

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    (0usize..PolicyKind::ALL.len()).prop_map(|i| PolicyKind::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Arbitrary operation sequences keep the tag store injective, locks
    /// balanced, and lookups consistent with allocations.
    #[test]
    fn tag_store_invariants(ops in prop::collection::vec(ts_op(), 1..200), policy in policy_strategy()) {
        let mut ts = TagStore::new(10, policy);
        let mut lock_depth = std::collections::HashMap::<(u8, u8), u32>::new();
        for op in ops {
            match op {
                TsOp::Alloc { tid, reg } => {
                    let r = Reg::new(reg);
                    if ts.lookup(tid, r).is_none() {
                        match ts.allocate(tid, r) {
                            AllocOutcome::NoVictim => {}
                            AllocOutcome::Free { idx } | AllocOutcome::Evicted { idx, .. } => {
                                prop_assert_eq!(ts.lookup(tid, r), Some(idx));
                            }
                        }
                    }
                }
                TsOp::Touch { tid, reg } => {
                    if let Some(idx) = ts.lookup(tid, Reg::new(reg)) {
                        ts.touch(idx);
                        prop_assert!(ts.entry(idx).meta.c_bit, "touch sets C");
                        prop_assert_eq!(ts.entry(idx).meta.a_bits, 0);
                    }
                }
                TsOp::Lock { tid, reg } => {
                    if let Some(idx) = ts.lookup(tid, Reg::new(reg)) {
                        ts.lock(idx);
                        *lock_depth.entry((tid, reg)).or_insert(0) += 1;
                    }
                }
                TsOp::Unlock { tid, reg } => {
                    let d = lock_depth.entry((tid, reg)).or_insert(0);
                    if *d > 0 {
                        if let Some(idx) = ts.lookup(tid, Reg::new(reg)) {
                            ts.unlock(idx);
                            *d -= 1;
                        }
                    }
                }
                TsOp::Switch { out, inn } => {
                    ts.on_context_switch(out, inn);
                    // Post-conditions of §5.1.
                    for r in 0..8u8 {
                        if let Some(idx) = ts.lookup(out, Reg::new(r)) {
                            prop_assert_eq!(ts.entry(idx).meta.t_bits, 7);
                        }
                        if out != inn {
                            if let Some(idx) = ts.lookup(inn, Reg::new(r)) {
                                prop_assert_eq!(ts.entry(idx).meta.t_bits, 0);
                            }
                        }
                    }
                }
                TsOp::ClearCommit { tid, reg } => {
                    ts.clear_commit(tid, Reg::new(reg));
                    if let Some(idx) = ts.lookup(tid, Reg::new(reg)) {
                        prop_assert!(!ts.entry(idx).meta.c_bit);
                    }
                }
            }
            ts.check_invariants();
        }
        // Locked entries were never evicted: every lock_depth > 0 entry is
        // still resident.
        for ((tid, reg), d) in lock_depth {
            if d > 0 {
                prop_assert!(
                    ts.lookup(tid, Reg::new(reg)).is_some(),
                    "locked register t{tid} x{reg} vanished"
                );
            }
        }
    }

    /// The selected victim is always valid and unlocked; None only when no
    /// candidate exists.
    #[test]
    fn victim_is_always_legal(
        metas in prop::collection::vec(
            (any::<bool>(), any::<bool>(), 0u8..8, any::<bool>(), 0u8..8, any::<u64>(), any::<u64>()),
            1..32
        ),
        policy in policy_strategy(),
        rotate in any::<u64>(),
    ) {
        let entries: Vec<EntryMeta> = metas
            .iter()
            .map(|&(valid, locked, t, c, a, stamp, seq)| EntryMeta {
                valid,
                locked,
                t_bits: t,
                c_bit: c,
                a_bits: a,
                last_access: stamp,
                fill_seq: seq,
                rrpv: (a % 4),
            })
            .collect();
        let mut rng = XorShift::new(rotate | 1);
        let candidates = entries.iter().filter(|e| e.valid && !e.locked).count();
        match select_victim(policy, &entries, rotate, &mut rng) {
            Some(i) => {
                prop_assert!(entries[i].valid && !entries[i].locked);
            }
            None => prop_assert_eq!(candidates, 0),
        }
    }

    /// The rollback queue is FIFO, and draining it with `pop_commit`
    /// yields exactly the union of in-flight registers and empties it.
    #[test]
    fn rollback_queue_model(entries in prop::collection::vec(
        (prop::collection::vec(0u8..16, 0..4), any::<bool>()), 0..4
    )) {
        let mut rq = RollbackQueue::new(4);
        let mut model: Vec<(Vec<u8>, bool)> = Vec::new();
        for (regs, is_mem) in &entries {
            let mut list = RegList::new();
            for &r in regs {
                list.push(Reg::new(r));
            }
            rq.push(RollbackEntry { regs: list, is_mem: *is_mem });
            // Mirror RegList's dedup in the model.
            let mut deduped = Vec::new();
            for &r in regs {
                if !deduped.contains(&r) {
                    deduped.push(r);
                }
            }
            model.push((deduped, *is_mem));
        }
        prop_assert_eq!(rq.len(), model.len());
        prop_assert_eq!(rq.oldest_is_mem(), model.first().map(|(_, m)| *m));

        let mut expected_union: Vec<u8> = Vec::new();
        for (regs, _) in &model {
            for &r in regs {
                if !expected_union.contains(&r) {
                    expected_union.push(r);
                }
            }
        }
        let mut flushed: Vec<u8> = Vec::new();
        while let Some(e) = rq.pop_commit() {
            for r in e.regs.iter().map(|r| r.index() as u8) {
                if !flushed.contains(&r) {
                    flushed.push(r);
                }
            }
        }
        flushed.sort_unstable();
        expected_union.sort_unstable();
        prop_assert_eq!(flushed, expected_union);
        prop_assert!(rq.is_empty());
    }
}
