//! Property tests for the cache and fabric: arbitrary access sequences must
//! preserve structural invariants, drain all outstanding state, and agree
//! with a simple residency model.

use proptest::prelude::*;
use std::collections::HashSet;
use virec_mem::{AccessKind, AccessResult, Cache, CacheConfig, Fabric, FabricConfig};

fn small_cache() -> Cache {
    Cache::new(
        CacheConfig {
            size_bytes: 1024,
            assoc: 2,
            hit_latency: 2,
            mshrs: 6,
            read_ports: 2,
            write_ports: 2,
        },
        0,
    )
}

#[derive(Clone, Debug)]
struct Step {
    addr_line: u8,
    kind_sel: u8,
}

fn kind_of(sel: u8) -> AccessKind {
    match sel % 5 {
        0 => AccessKind::DataLoad,
        1 => AccessKind::DataStore,
        2 => AccessKind::RegFill,
        3 => AccessKind::RegSpill,
        _ => AccessKind::IFetch,
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..64, 0u8..255).prop_map(|(addr_line, kind_sel)| Step {
        addr_line,
        kind_sel,
    })
}

/// A cache, its fabric, and the requesters waiting on its MSHRs.
struct Side {
    cache: Cache,
    fabric: Fabric,
    waiting: Vec<u64>,
    /// `(cycle, mshr)` of every retire, in order.
    retired: Vec<(u64, u64)>,
}

impl Side {
    fn new() -> Side {
        Side {
            cache: small_cache(),
            fabric: Fabric::new(FabricConfig::default()),
            waiting: Vec::new(),
            retired: Vec::new(),
        }
    }

    /// One cycle: the fabric ticks, the cache ticks and the waiters poll
    /// (only when the cache's gates say work is due, if `gated`), then
    /// `access` is attempted.
    fn cycle(&mut self, now: u64, access: Option<(u64, AccessKind)>, gated: bool) {
        let (cache, fabric) = (&mut self.cache, &mut self.fabric);
        fabric.tick(now);
        if !gated || fabric.due(0) <= now {
            cache.tick(now, fabric);
        }
        if !gated || cache.first_ready() <= now {
            let retired = &mut self.retired;
            self.waiting.retain(|&m| {
                if !cache.mshr_ready(m, now) {
                    return true;
                }
                cache.mshr_retire(m).unwrap();
                retired.push((now, m));
                false
            });
        }
        if let Some((addr, kind)) = access {
            if let AccessResult::Miss { mshr } = cache.access(now, addr, kind, fabric) {
                self.waiting.push(mshr);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A cache ticked, and its waiters polled, only on cycles its gates
    /// (`Fabric::due` of its port, `Cache::first_ready`) say work is due
    /// ends with the same stats, retire cycles and fabric state as one
    /// ticked and polled every cycle.
    #[test]
    fn gated_ticks_match_dense_ticks(
        steps in prop::collection::vec((step_strategy(), 0u64..60), 1..80)
    ) {
        let (mut dense, mut gated) = (Side::new(), Side::new());
        let mut now = 0u64;
        for (s, gap) in &steps {
            let access = Some((s.addr_line as u64 * 64, kind_of(s.kind_sel)));
            dense.cycle(now, access, false);
            gated.cycle(now, access, true);
            for _ in 0..=*gap {
                now += 1;
                dense.cycle(now, None, false);
                gated.cycle(now, None, true);
            }
        }
        let deadline = now + 100_000;
        while !dense.waiting.is_empty() || dense.fabric.outstanding() > 0 {
            prop_assert!(now < deadline, "MSHRs failed to drain");
            now += 1;
            dense.cycle(now, None, false);
            gated.cycle(now, None, true);
        }
        prop_assert_eq!(&dense.retired, &gated.retired);
        prop_assert!(gated.waiting.is_empty());
        prop_assert_eq!(dense.cache.stats(), gated.cache.stats());
        prop_assert_eq!(dense.cache.outstanding_mshrs(), gated.cache.outstanding_mshrs());
        prop_assert_eq!(dense.cache.first_ready(), gated.cache.first_ready());
        prop_assert_eq!(dense.fabric.stats(), gated.fabric.stats());
        prop_assert_eq!(dense.fabric.outstanding(), gated.fabric.outstanding());
        prop_assert_eq!(dense.fabric.uncollected(), gated.fabric.uncollected());
        prop_assert_eq!(dense.fabric.due(0), gated.fabric.due(0));
    }

    /// Any access sequence: invariants hold at every step, every MSHR
    /// eventually completes, and pins stay bounded.
    #[test]
    fn random_accesses_preserve_invariants(steps in prop::collection::vec(step_strategy(), 1..120)) {
        let mut cache = small_cache();
        let mut fabric = Fabric::new(FabricConfig::default());
        let mut now = 0u64;
        let mut outstanding: Vec<u64> = Vec::new();
        let mut fills = 0i64;
        let mut spills = 0i64;

        for s in &steps {
            let addr = s.addr_line as u64 * 64;
            let kind = kind_of(s.kind_sel);
            match cache.access(now, addr, kind, &mut fabric) {
                AccessResult::Hit { ready_at } => prop_assert!(ready_at > now),
                AccessResult::Miss { mshr } => outstanding.push(mshr),
                AccessResult::NoMshr | AccessResult::NoPort => {}
            }
            if kind == AccessKind::RegFill { fills += 1 } else if kind == AccessKind::RegSpill { spills += 1 }
            cache.check_invariants();
            fabric.tick(now);
            cache.tick(now, &mut fabric);
            now += 1;
        }

        // Drain: every MSHR completes within a bounded horizon.
        let deadline = now + 100_000;
        let unique: HashSet<u64> = outstanding.iter().copied().collect();
        let mut remaining: Vec<u64> = unique.into_iter().collect();
        while !remaining.is_empty() {
            prop_assert!(now < deadline, "MSHRs failed to drain");
            fabric.tick(now);
            cache.tick(now, &mut fabric);
            remaining.retain(|&m| {
                !cache.mshr_ready(m, now)
            });
            now += 1;
        }
        // Retire every merged requester exactly once per Miss result.
        for m in outstanding {
            if cache.mshr_ready(m, now) {
                cache.mshr_retire(m).unwrap();
            }
        }
        cache.check_invariants();
        let _ = (fills, spills);
    }

    /// A line brought in by a load hits on an immediate re-access (no
    /// interleaving evictions possible with a single line in flight).
    #[test]
    fn fill_then_hit(line in 0u8..255) {
        let addr = line as u64 * 64;
        let mut cache = small_cache();
        let mut fabric = Fabric::new(FabricConfig::default());
        let mut now = 0;
        let mshr = match cache.access(now, addr, AccessKind::DataLoad, &mut fabric) {
            AccessResult::Miss { mshr } => mshr,
            other => { prop_assert!(false, "cold access must miss, got {other:?}"); unreachable!() }
        };
        while !cache.mshr_ready(mshr, now) {
            fabric.tick(now);
            cache.tick(now, &mut fabric);
            now += 1;
            prop_assert!(now < 10_000);
        }
        cache.mshr_retire(mshr).unwrap();
        let r = cache.access(now, addr, AccessKind::DataLoad, &mut fabric);
        prop_assert!(matches!(r, AccessResult::Hit { .. }), "{r:?}");
    }

    /// Fabric requests always complete, in bounded time, regardless of the
    /// address mix, and `outstanding` returns to zero.
    #[test]
    fn fabric_always_drains(addrs in prop::collection::vec(0u64..1u64<<24, 1..64)) {
        let mut fabric = Fabric::new(FabricConfig::default());
        let tokens: Vec<_> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| fabric.submit(0, 0, a & !63, i % 3 == 0))
            .collect();
        let mut now = 0;
        while tokens.iter().any(|&t| !fabric.is_done(t, now)) {
            fabric.tick(now);
            now += 1;
            prop_assert!(now < 500_000, "fabric wedged");
        }
        prop_assert_eq!(fabric.outstanding(), 0);
        let mut collected = Vec::new();
        fabric.take_done(0, now, &mut collected);
        collected.sort_unstable();
        prop_assert_eq!(collected, tokens);
        let s = fabric.stats();
        prop_assert_eq!((s.reads + s.writes) as usize, addrs.len());
    }

    /// Pin counters never underflow and pinned lines survive any amount of
    /// conflicting traffic.
    #[test]
    fn pinned_line_is_immortal(traffic in prop::collection::vec(0u8..32, 1..80)) {
        let mut cache = small_cache();
        let mut fabric = Fabric::new(FabricConfig::default());
        let mut now = 0u64;
        // Pin line 0 (set 0).
        let pinned_addr = 0u64;
        loop {
            match cache.access(now, pinned_addr, AccessKind::RegFill, &mut fabric) {
                AccessResult::Hit { .. } => break,
                AccessResult::Miss { mshr } => {
                    while !cache.mshr_ready(mshr, now) {
                        fabric.tick(now);
                        cache.tick(now, &mut fabric);
                        now += 1;
                    }
                    cache.mshr_retire(mshr).unwrap();
                }
                _ => { now += 1; }
            }
        }
        prop_assert!(cache.pin_count(pinned_addr) >= 1);
        // Storm of conflicting data accesses (same set: stride = sets*64).
        let set_stride = 8 * 64; // 1024B/2-way/64B = 8 sets
        for &t in &traffic {
            let addr = (1 + t as u64) * set_stride; // set 0, different tags
            let _ = cache.access(now, addr, AccessKind::DataLoad, &mut fabric);
            fabric.tick(now);
            cache.tick(now, &mut fabric);
            now += 1;
        }
        for _ in 0..5_000 {
            fabric.tick(now);
            cache.tick(now, &mut fabric);
            now += 1;
        }
        prop_assert!(cache.contains_line(pinned_addr), "pinned line evicted");
        cache.check_invariants();
    }
}
