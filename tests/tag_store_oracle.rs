//! Tag-store oracle. The tag store ages its entries lazily (a touch clock
//! plus a per-entry mark) and picks victims in one pass over its valid
//! bitset. This file holds the eager model of the same hardware: every
//! touch walks the store and ages every other valid entry, SRRIP ages one
//! step at a time, and the victim is [`select_victim`] over a materialized
//! copy of every entry's metadata. The two must agree on every victim and on
//! every entry's effective age, thread-recency bits, commit bit and RRPV:
//!
//! * exhaustively, over every sequence of allocate / touch / lock / unlock
//!   / evict_one / on_context_switch / clear_commit calls up to depth 6 on
//!   2-, 3- and 4-entry stores, under every policy;
//! * on random sequences that also retire ways (`mask_way` needs at least
//!   [`MIN_ACTIVE_WAYS`] in-service ways, so those run on a 13-way store
//!   with one spare) and hold entries unevictable with pending fills.

use proptest::prelude::*;
use virec::core::policy::{select_victim, EntryMeta, XorShift, AGE_MAX, RRPV_INSERT, RRPV_MAX};
use virec::core::vrmu::{AllocOutcome, TagStore, MIN_ACTIVE_WAYS};
use virec::core::PolicyKind;
use virec::isa::Reg;

/// The tag store's Random-policy seed.
const RNG_SEED: u64 = 0x5EED_CAFE;

#[derive(Clone, Copy, Debug)]
struct Slot {
    tid: u8,
    reg: Reg,
    locks: u8,
    fill_pending: bool,
    meta: EntryMeta,
}

/// The eager reference tag store.
#[derive(Clone)]
struct Model {
    slots: Vec<Option<Slot>>,
    masked: Vec<bool>,
    retired: Vec<bool>,
    policy: PolicyKind,
    stamp: u64,
    fill_seq: u64,
    rotate: u64,
    rng: XorShift,
}

impl Model {
    fn new(ways: usize, spares: usize, policy: PolicyKind) -> Model {
        Model {
            slots: vec![None; ways + spares],
            masked: (0..ways + spares).map(|i| i >= ways).collect(),
            retired: vec![false; ways + spares],
            policy,
            stamp: 0,
            fill_seq: 0,
            rotate: 0,
            rng: XorShift::new(RNG_SEED),
        }
    }

    fn lookup(&self, tid: u8, reg: Reg) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.is_some_and(|s| s.tid == tid && s.reg == reg))
    }

    fn slot(&self, idx: usize) -> &Slot {
        self.slots[idx].as_ref().expect("occupied way")
    }

    fn slot_mut(&mut self, idx: usize) -> &mut Slot {
        self.slots[idx].as_mut().expect("occupied way")
    }

    fn first_free(&self) -> Option<usize> {
        (0..self.slots.len()).find(|&i| self.slots[i].is_none() && !self.masked[i])
    }

    fn touch(&mut self, idx: usize) {
        self.stamp += 1;
        for (i, s) in self.slots.iter_mut().enumerate() {
            let Some(s) = s else { continue };
            if i == idx {
                s.meta.a_bits = 0;
                s.meta.c_bit = true;
                s.meta.last_access = self.stamp;
                s.meta.rrpv = 0;
            } else {
                s.meta.a_bits = (s.meta.a_bits + 1).min(AGE_MAX);
            }
        }
    }

    fn evictable(s: &Slot) -> bool {
        s.locks == 0 && !s.fill_pending
    }

    fn srrip_age(&mut self) {
        if self.policy != PolicyKind::Srrip {
            return;
        }
        for _ in 0..RRPV_MAX {
            let any_max = self
                .slots
                .iter()
                .flatten()
                .any(|s| Self::evictable(s) && s.meta.rrpv >= RRPV_MAX);
            if any_max {
                return;
            }
            for s in self.slots.iter_mut().flatten() {
                s.meta.rrpv = (s.meta.rrpv + 1).min(RRPV_MAX);
            }
        }
    }

    fn pick(&mut self) -> Option<usize> {
        let metas: Vec<EntryMeta> = self
            .slots
            .iter()
            .map(|s| match s {
                Some(s) => EntryMeta {
                    locked: !Self::evictable(s),
                    ..s.meta
                },
                None => EntryMeta::default(),
            })
            .collect();
        self.rotate = self.rotate.wrapping_add(1);
        select_victim(self.policy, &metas, self.rotate, &mut self.rng)
    }

    fn allocate(&mut self, tid: u8, reg: Reg) -> AllocOutcome {
        let (idx, victim) = match self.first_free() {
            Some(idx) => (idx, None),
            None => {
                self.srrip_age();
                match self.pick() {
                    Some(idx) => (idx, self.slots[idx]),
                    None => return AllocOutcome::NoVictim,
                }
            }
        };
        self.fill_seq += 1;
        self.stamp += 1;
        self.slots[idx] = Some(Slot {
            tid,
            reg,
            locks: 0,
            fill_pending: false,
            meta: EntryMeta {
                valid: true,
                locked: false,
                t_bits: 0,
                c_bit: true,
                a_bits: 0,
                last_access: self.stamp,
                fill_seq: self.fill_seq,
                rrpv: RRPV_INSERT,
            },
        });
        match victim {
            None => AllocOutcome::Free { idx },
            Some(v) => AllocOutcome::Evicted {
                idx,
                victim_tid: v.tid,
                victim_reg: v.reg,
                victim_value: 0,
                victim_dirty: false,
            },
        }
    }

    fn evict_one(&mut self) -> Option<(u8, Reg, u64, bool)> {
        let idx = self.pick()?;
        let v = self.slots[idx].take()?;
        Some((v.tid, v.reg, 0, false))
    }

    fn on_context_switch(&mut self, out_tid: u8, in_tid: u8) {
        for s in self.slots.iter_mut().flatten() {
            if s.tid == out_tid {
                s.meta.t_bits = AGE_MAX;
            } else if s.tid == in_tid {
                s.meta.t_bits = 0;
            } else {
                s.meta.t_bits = s.meta.t_bits.saturating_sub(1);
            }
        }
    }

    fn mask_way(&mut self, idx: usize, use_spare: bool) -> Option<bool> {
        if self.masked[idx] {
            return Some(false);
        }
        let spare = if use_spare {
            (0..self.slots.len()).find(|&i| self.masked[i] && !self.retired[i])
        } else {
            None
        };
        if let Some(s) = spare {
            self.masked[s] = false;
        }
        let active = self.masked.iter().filter(|&&m| !m).count();
        let refuse = |m: &mut Model| {
            if let Some(s) = spare {
                m.masked[s] = true;
            }
            None
        };
        if active - 1 < MIN_ACTIVE_WAYS {
            return refuse(self);
        }
        if self.slots[idx].is_some() {
            match self.first_free() {
                Some(t) if t != idx => self.slots[t] = self.slots[idx].take(),
                _ => return refuse(self),
            }
        }
        self.masked[idx] = true;
        self.retired[idx] = true;
        Some(spare.is_some())
    }
}

/// One call on both stores. Register keys index [`key`].
#[derive(Clone, Copy, Debug)]
enum Op {
    Allocate(usize),
    Touch(usize),
    Lock(usize),
    Unlock(usize),
    ClearCommit(usize),
    EvictOne,
    Switch(u8, u8),
    /// Sets (or, when set, completes) the key's pending fill.
    ToggleFill(usize),
    /// Retires the way behind the `nth` valid entry.
    MaskWay(usize, bool),
}

/// Register key `k`: threads 0 to 3 take turns, registers count up.
fn key(k: usize) -> (u8, Reg) {
    ((k % 4) as u8, Reg::new(1 + (k / 4) as u8))
}

/// Whether `op` applies to the model's state: allocations need an absent
/// register, unlocks a locked one, way retirement an occupied store, and
/// every other per-register call a resident one.
fn applies(model: &Model, op: Op) -> bool {
    let resident = |k: usize| {
        let (tid, reg) = key(k);
        model.lookup(tid, reg)
    };
    match op {
        Op::Allocate(k) => resident(k).is_none(),
        Op::Unlock(k) => resident(k).is_some_and(|i| model.slot(i).locks > 0),
        Op::Touch(k) | Op::Lock(k) | Op::ClearCommit(k) | Op::ToggleFill(k) => {
            resident(k).is_some()
        }
        Op::MaskWay(..) => model.slots.iter().any(Option::is_some),
        Op::EvictOne | Op::Switch(..) => true,
    }
}

/// Applies an op that [`applies`] to both stores, asserting they return
/// the same thing.
fn apply(model: &mut Model, ts: &mut TagStore, op: Op) {
    let resident = |m: &Model, k: usize| {
        let (tid, reg) = key(k);
        m.lookup(tid, reg).expect("op applies")
    };
    match op {
        Op::Allocate(k) => {
            let (tid, reg) = key(k);
            assert_eq!(ts.allocate(tid, reg), model.allocate(tid, reg), "{op:?}");
        }
        Op::Touch(k) => {
            let idx = resident(model, k);
            ts.touch(idx);
            model.touch(idx);
        }
        Op::Lock(k) => {
            let idx = resident(model, k);
            ts.lock(idx);
            model.slot_mut(idx).locks += 1;
        }
        Op::Unlock(k) => {
            let idx = resident(model, k);
            ts.unlock(idx);
            model.slot_mut(idx).locks -= 1;
        }
        Op::ClearCommit(k) => {
            let idx = resident(model, k);
            let (tid, reg) = key(k);
            ts.clear_commit(tid, reg);
            model.slot_mut(idx).meta.c_bit = false;
        }
        Op::EvictOne => assert_eq!(ts.evict_one(), model.evict_one(), "{op:?}"),
        Op::Switch(out_tid, in_tid) => {
            ts.on_context_switch(out_tid, in_tid);
            model.on_context_switch(out_tid, in_tid);
        }
        Op::ToggleFill(k) => {
            let idx = resident(model, k);
            let slot = model.slot_mut(idx);
            slot.fill_pending = !slot.fill_pending;
            ts.entry_mut(idx).fill_pending = slot.fill_pending;
        }
        Op::MaskWay(nth, use_spare) => {
            let valid: Vec<usize> = (0..model.slots.len())
                .filter(|&i| model.slots[i].is_some())
                .collect();
            let idx = valid[nth % valid.len()];
            assert_eq!(ts.resolve_nth_way(nth), Some(idx));
            assert_eq!(
                ts.mask_way(idx, use_spare),
                model.mask_way(idx, use_spare),
                "{op:?}"
            );
        }
    }
}

/// Every way holds the same register with the same effective metadata.
fn assert_same(model: &Model, ts: &TagStore, trail: &[Op]) {
    for (idx, slot) in model.slots.iter().enumerate() {
        assert_eq!(
            ts.is_masked(idx),
            model.masked[idx],
            "way {idx} after {trail:?}"
        );
        let e = ts.entry(idx);
        let Some(s) = slot else {
            assert!(!e.meta.valid, "way {idx} after {trail:?}");
            continue;
        };
        assert_eq!(
            ts.lookup(s.tid, s.reg),
            Some(idx),
            "way {idx} after {trail:?}"
        );
        let seen = (
            ts.age(idx),
            e.meta.t_bits,
            e.meta.c_bit,
            e.meta.rrpv,
            e.meta.last_access,
            e.meta.fill_seq,
            e.lock_count,
        );
        let want = (
            s.meta.a_bits,
            s.meta.t_bits,
            s.meta.c_bit,
            s.meta.rrpv,
            s.meta.last_access,
            s.meta.fill_seq,
            s.locks,
        );
        assert_eq!(seen, want, "way {idx} after {trail:?}");
    }
}

/// Depth-first over every applicable sequence of `alphabet` up to
/// `depth` calls; returns the number of sequences checked.
fn explore(
    model: &Model,
    ts: &TagStore,
    alphabet: &[Op],
    depth: usize,
    trail: &mut Vec<Op>,
) -> u64 {
    if trail.len() == depth {
        return 1;
    }
    let mut sequences = 0;
    for &op in alphabet.iter().filter(|&&op| applies(model, op)) {
        let (mut m, mut t) = (model.clone(), ts.clone());
        trail.push(op);
        apply(&mut m, &mut t, op);
        assert_same(&m, &t, trail);
        sequences += explore(&m, &t, alphabet, depth, trail);
        trail.pop();
    }
    sequences
}

const DEPTH: usize = 6;

fn exhaustive(policy: PolicyKind) {
    for ways in 2..=4 {
        // One register more than the store holds, so allocations evict.
        let keys = ways + 1;
        let mut alphabet = vec![
            Op::EvictOne,
            Op::Switch(0, 1),
            Op::Switch(1, 0),
            Op::Switch(0, 2),
        ];
        for k in 0..keys {
            alphabet.extend([
                Op::Allocate(k),
                Op::Touch(k),
                Op::Lock(k),
                Op::Unlock(k),
                Op::ClearCommit(k),
            ]);
        }
        let model = Model::new(ways, 0, policy);
        let ts = TagStore::new(ways, policy);
        let sequences = explore(&model, &ts, &alphabet, DEPTH, &mut Vec::new());
        assert!(sequences > 1000, "{policy:?} on {ways} ways: {sequences}");
    }
}

#[test]
fn exhaustive_plru() {
    exhaustive(PolicyKind::Plru);
}

#[test]
fn exhaustive_lru() {
    exhaustive(PolicyKind::Lru);
}

#[test]
fn exhaustive_mrt_plru() {
    exhaustive(PolicyKind::MrtPlru);
}

#[test]
fn exhaustive_mrt_lru() {
    exhaustive(PolicyKind::MrtLru);
}

#[test]
fn exhaustive_lrc() {
    exhaustive(PolicyKind::Lrc);
}

#[test]
fn exhaustive_fifo() {
    exhaustive(PolicyKind::Fifo);
}

#[test]
fn exhaustive_random() {
    exhaustive(PolicyKind::Random);
}

#[test]
fn exhaustive_srrip() {
    exhaustive(PolicyKind::Srrip);
}

/// Registers of four threads over five names: 20 keys for 13 ways, so
/// most keys are resident, touches land and untouched entries saturate.
const KEYS: usize = 20;

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEYS).prop_map(Op::Allocate),
        (0..KEYS).prop_map(Op::Touch),
        (0..KEYS).prop_map(Op::Touch),
        (0..KEYS).prop_map(Op::Touch),
        (0..KEYS).prop_map(Op::Lock),
        (0..KEYS).prop_map(Op::Unlock),
        (0..KEYS).prop_map(Op::ClearCommit),
        (0..KEYS).prop_map(Op::ToggleFill),
        Just(Op::EvictOne),
        (0u8..4, 0u8..4).prop_map(|(o, i)| Op::Switch(o, i)),
        (0usize..16, any::<bool>()).prop_map(|(n, s)| Op::MaskWay(n, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Random sequences with way retirement and pending fills on a 13-way
    /// store with one spare: a retired way's occupant moves with its age.
    #[test]
    fn random_sequences_with_way_retirement(
        ops in prop::collection::vec(op(), 1..200),
        policy in (0usize..PolicyKind::ALL.len()).prop_map(|i| PolicyKind::ALL[i]),
    ) {
        let ways = MIN_ACTIVE_WAYS + 1;
        let mut model = Model::new(ways, 1, policy);
        let mut ts = TagStore::with_spares(ways, 1, policy);
        let mut trail = Vec::new();
        for op in ops {
            if !applies(&model, op) {
                continue;
            }
            trail.push(op);
            apply(&mut model, &mut ts, op);
            assert_same(&model, &ts, &trail);
            ts.check_invariants();
        }
    }
}
