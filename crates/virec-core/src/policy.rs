//! Register-cache replacement policies (§4 of the paper).
//!
//! Victim selection works on per-entry metadata:
//!
//! * **A** — a 3-bit pseudo-LRU age (0 = just used, saturates at 7). The
//!   saturation "fuzzes" long reuse distances, which is exactly the weakness
//!   LRC's commit bit repairs (§4.2, Figure 6).
//! * **T** — a 3-bit thread-recency field. On a context switch the suspended
//!   thread's registers are set to the maximum and every other register is
//!   decremented (saturating at 0), so registers of the most recently
//!   suspended thread — the one that will run *furthest in the future* under
//!   round-robin — are evicted first (§4.1, Figure 5).
//! * **C** — the commit bit: speculatively set to 1 on access, reset to 0 by
//!   the rollback queue for registers of instructions flushed at a context
//!   switch. Flushed (in-flight) registers will be replayed immediately when
//!   the thread resumes, so committed registers are better victims (§4.2).
//!
//! The eviction priority concatenates the fields with T most significant,
//! then C, then A ([`PolicyKind::Lrc`]); the register with the *highest*
//! value is evicted. The other policies use subsets of the fields, and the
//! "perfect" variants replace A with exact timestamps.

use crate::config::PolicyKind;

/// Maximum value of the 3-bit age and thread-recency fields.
pub const AGE_MAX: u8 = 7;

/// Maximum re-reference prediction value (2-bit SRRIP).
pub const RRPV_MAX: u8 = 3;

/// RRPV assigned on insertion (long re-reference prediction).
pub const RRPV_INSERT: u8 = 2;

/// Replacement metadata for one physical register (tag-store entry).
#[derive(Clone, Copy, Debug, Default)]
pub struct EntryMeta {
    /// Entry holds a live register.
    pub valid: bool,
    /// Entry may not be evicted (in-flight instruction or pending fill).
    /// Read by [`select_victim`]; the tag store derives it from an entry's
    /// lock count and pending fill instead.
    pub locked: bool,
    /// 3-bit thread-recency field (0 = current thread).
    pub t_bits: u8,
    /// Commit bit (true = last accessing instruction committed).
    pub c_bit: bool,
    /// 3-bit pseudo-LRU age. In a tag-store entry this is the age when the
    /// entry was last touched or allocated; `TagStore::age` gives the age
    /// now.
    pub a_bits: u8,
    /// Exact last-access stamp for the perfect-LRU variants.
    pub last_access: u64,
    /// Monotonic fill order for FIFO.
    pub fill_seq: u64,
    /// 2-bit re-reference prediction value for SRRIP (0 = near, 3 = far).
    pub rrpv: u8,
}

/// Deterministic xorshift generator for the Random policy (keeps the
/// simulator reproducible without pulling `rand` into the core crate).
#[derive(Clone, Debug)]
pub struct XorShift(u64);

impl XorShift {
    /// Creates a generator from a nonzero seed.
    pub fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    /// Next pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Selects the victim entry index among evictable entries, or `None` when
/// every valid entry is locked.
///
/// Ties among equal priorities are broken by a rotating pointer
/// (`rotate`), modelling the arbitrary pick a hardware tree-PLRU makes
/// among entries whose saturated ages are indistinguishable — the reuse
/// "fuzzing" of §4.2 that the LRC commit bit repairs. Callers advance the
/// pointer per eviction. Everything stays deterministic.
///
/// The tag store makes the same pick in one pass over its own entries,
/// without copying their metadata; this function is the reference the
/// tests hold it to.
pub fn select_victim(
    policy: PolicyKind,
    entries: &[EntryMeta],
    rotate: u64,
    rng: &mut XorShift,
) -> Option<usize> {
    let evictable = || {
        entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.valid && !e.locked)
    };

    if policy == PolicyKind::Random {
        let candidates: Vec<usize> = evictable().map(|(i, _)| i).collect();
        if candidates.is_empty() {
            return None;
        }
        return Some(candidates[(rng.next_u64() % candidates.len() as u64) as usize]);
    }

    let best = evictable()
        .map(|(_, e)| priority(policy, e, e.a_bits))
        .max()?;
    let ties: Vec<usize> = evictable()
        .filter(|(_, e)| priority(policy, e, e.a_bits) == best)
        .map(|(i, _)| i)
        .collect();
    Some(ties[(rotate % ties.len() as u64) as usize])
}

/// Eviction priority of an entry whose current age is `age` (the tag store
/// derives it lazily, so it may differ from `e.a_bits`): the entry with the
/// highest value is evicted first.
pub(crate) fn priority(policy: PolicyKind, e: &EntryMeta, age: u8) -> u128 {
    // Perfect-LRU stamp inverted so that *older* entries rank higher.
    let oldness = (u64::MAX - e.last_access) as u128;
    let fifo_oldness = (u64::MAX - e.fill_seq) as u128;
    let age = age as u128;
    match policy {
        PolicyKind::Plru => age,
        PolicyKind::Lru => oldness,
        PolicyKind::MrtPlru => ((e.t_bits as u128) << 3) | age,
        PolicyKind::MrtLru => ((e.t_bits as u128) << 64) | oldness,
        PolicyKind::Lrc => ((e.t_bits as u128) << 4) | ((e.c_bit as u128) << 3) | age,
        PolicyKind::Fifo => fifo_oldness,
        PolicyKind::Random => 0,
        PolicyKind::Srrip => e.rrpv as u128,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(t: u8, c: bool, a: u8) -> EntryMeta {
        EntryMeta {
            valid: true,
            locked: false,
            t_bits: t,
            c_bit: c,
            a_bits: a,
            last_access: 0,
            fill_seq: 0,
            rrpv: 0,
        }
    }

    fn pick(policy: PolicyKind, entries: &[EntryMeta]) -> Option<usize> {
        let mut rng = XorShift::new(42);
        select_victim(policy, entries, 0, &mut rng)
    }

    #[test]
    fn plru_ignores_thread_bits() {
        // Entry 0: current thread but ancient age. Entry 1: suspended thread,
        // young age. PLRU wrongly evicts the current thread's register —
        // the failure mode of Figure 5(b).
        let entries = [meta(0, true, 7), meta(7, true, 0)];
        assert_eq!(pick(PolicyKind::Plru, &entries), Some(0));
        // MRT-PLRU fixes it (Figure 5(c)).
        assert_eq!(pick(PolicyKind::MrtPlru, &entries), Some(1));
    }

    #[test]
    fn lrc_prefers_committed_over_inflight() {
        // Same thread, same saturated age; one register was committed, the
        // other was in flight when the switch happened (Figure 6).
        let entries = [meta(7, false, 7), meta(7, true, 7)];
        assert_eq!(pick(PolicyKind::MrtPlru, &entries), Some(0), "tie → index");
        assert_eq!(
            pick(PolicyKind::Lrc, &entries),
            Some(1),
            "LRC must evict the committed register"
        );
    }

    #[test]
    fn lrc_thread_bits_dominate_commit_bit() {
        // An in-flight register of a recently suspended thread is still a
        // better victim than a committed register of the current thread.
        let entries = [meta(0, true, 7), meta(7, false, 0)];
        assert_eq!(pick(PolicyKind::Lrc, &entries), Some(1));
    }

    #[test]
    fn perfect_lru_uses_stamps() {
        let mut e0 = meta(0, true, 0);
        e0.last_access = 100;
        let mut e1 = meta(0, true, 0);
        e1.last_access = 50; // older
        assert_eq!(pick(PolicyKind::Lru, &[e0, e1]), Some(1));
    }

    #[test]
    fn mrt_lru_orders_by_thread_then_stamp() {
        let mut recent_far_thread = meta(5, true, 0);
        recent_far_thread.last_access = 1000;
        let mut old_near_thread = meta(1, true, 0);
        old_near_thread.last_access = 1;
        assert_eq!(
            pick(PolicyKind::MrtLru, &[old_near_thread, recent_far_thread]),
            Some(1),
            "thread distance outranks raw age"
        );
    }

    #[test]
    fn fifo_evicts_oldest_fill() {
        let mut e0 = meta(0, true, 0);
        e0.fill_seq = 10;
        let mut e1 = meta(0, true, 0);
        e1.fill_seq = 3;
        assert_eq!(pick(PolicyKind::Fifo, &[e0, e1]), Some(1));
    }

    #[test]
    fn locked_and_invalid_are_never_victims() {
        let mut locked = meta(7, true, 7);
        locked.locked = true;
        let invalid = EntryMeta::default();
        let free = meta(0, false, 0);
        for p in PolicyKind::ALL {
            assert_eq!(pick(p, &[locked, invalid, free]), Some(2), "{p:?}");
        }
    }

    #[test]
    fn all_locked_yields_none() {
        let mut e = meta(7, true, 7);
        e.locked = true;
        for p in PolicyKind::ALL {
            assert_eq!(pick(p, &[e, e]), None, "{p:?}");
        }
    }

    #[test]
    fn srrip_orders_by_rrpv() {
        let mut near = meta(7, true, 7);
        near.rrpv = 0;
        let mut far = meta(0, true, 0);
        far.rrpv = 3;
        assert_eq!(
            pick(PolicyKind::Srrip, &[near, far]),
            Some(1),
            "SRRIP evicts the distant-re-reference entry regardless of \
             thread recency — the mismatch §7 describes"
        );
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let entries = [meta(0, true, 0); 8];
        let mut a = XorShift::new(7);
        let mut b = XorShift::new(7);
        for _ in 0..32 {
            assert_eq!(
                select_victim(PolicyKind::Random, &entries, 0, &mut a),
                select_victim(PolicyKind::Random, &entries, 0, &mut b)
            );
        }
    }

    #[test]
    fn random_covers_all_candidates() {
        let entries = [meta(0, true, 0); 4];
        let mut rng = XorShift::new(99);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v = select_victim(PolicyKind::Random, &entries, 0, &mut rng).unwrap();
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "random never chose some entry");
    }

    #[test]
    fn tie_break_rotates_over_ties() {
        let entries = [meta(3, true, 3); 5];
        let mut rng = XorShift::new(1);
        // With rotate = k, the k-th tied candidate is chosen (mod ties).
        for k in 0..10u64 {
            let v = select_victim(PolicyKind::Plru, &entries, k, &mut rng).unwrap();
            assert_eq!(v, (k % 5) as usize);
        }
        // Non-tied entries are unaffected by the rotation pointer.
        let mut mixed = [meta(0, true, 0); 4];
        mixed[2] = meta(7, true, 7);
        for k in 0..8u64 {
            let v = select_victim(PolicyKind::Lrc, &mixed, k, &mut rng).unwrap();
            assert_eq!(v, 2, "unique max must always win");
        }
    }
}
