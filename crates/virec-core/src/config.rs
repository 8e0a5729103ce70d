//! Core configuration and the Table 1 presets.

use virec_mem::CacheConfig;

/// Which context-management engine the core uses (the architecture
/// alternatives compared throughout the paper's evaluation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Banked register file: one full 32-register bank per thread,
    /// statically provisioned (Figure 3(b)).
    Banked,
    /// ViReC: the register file is a cache of partial contexts managed by
    /// the VRMU (Figure 3(c)).
    ViReC,
    /// Software context switching: every switch saves and restores the full
    /// context with ordinary loads/stores (Figure 3(a)).
    Software,
    /// Double-buffer prefetching of the **full** context of the next thread
    /// (the first prefetching alternative of §6.1).
    PrefetchFull,
    /// Double-buffer prefetching of the **exact** register set the next
    /// thread will use, with oracle knowledge (the second alternative).
    PrefetchExact,
}

/// Register-cache replacement policies (§4 and Figure 12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Pseudo-LRU over 3-bit ages only (prior work, e.g. the NSF).
    Plru,
    /// Perfect LRU (exact timestamps).
    Lru,
    /// Most-Recent-Thread PLRU: thread-recency bits concatenated above ages.
    MrtPlru,
    /// Most-Recent-Thread perfect LRU.
    MrtLru,
    /// Least Recently Committed: MRT-PLRU plus the commit bit (the paper's
    /// contribution).
    Lrc,
    /// FIFO by fill order (baseline).
    Fifo,
    /// Uniform-random victim (baseline).
    Random,
    /// Static RRIP (2-bit re-reference interval prediction, \[33\]): the
    /// paper's §7 argues such policies do not fit register caching because
    /// register reuse distance depends on instruction and context-switch
    /// behaviour rather than access recency classes — this variant lets us
    /// measure that claim.
    Srrip,
}

impl PolicyKind {
    /// Every policy, for sweep experiments.
    pub const ALL: [PolicyKind; 8] = [
        PolicyKind::Plru,
        PolicyKind::Lru,
        PolicyKind::MrtPlru,
        PolicyKind::MrtLru,
        PolicyKind::Lrc,
        PolicyKind::Fifo,
        PolicyKind::Random,
        PolicyKind::Srrip,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Plru => "PLRU",
            PolicyKind::Lru => "LRU",
            PolicyKind::MrtPlru => "MRT-PLRU",
            PolicyKind::MrtLru => "MRT-LRU",
            PolicyKind::Lrc => "LRC",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Random => "Random",
            PolicyKind::Srrip => "SRRIP",
        }
    }
}

/// Full configuration of one near-memory core.
#[derive(Clone, Copy, Debug)]
pub struct CoreConfig {
    /// Hardware threads the core schedules (paper: 4–10).
    pub nthreads: usize,
    /// Context engine.
    pub engine: EngineKind,
    /// Physical register-file entries for [`EngineKind::ViReC`] and the
    /// prefetching engines (Table 1: 24–120). Ignored by banked/software.
    pub phys_regs: usize,
    /// Replacement policy for the ViReC register cache.
    pub policy: PolicyKind,
    /// Store-queue entries (Table 1: 5).
    pub sq_entries: usize,
    /// Instruction cache.
    pub icache: CacheConfig,
    /// Data cache (the ViReC backing store).
    pub dcache: CacheConfig,
    /// Non-blocking BSI pipelines several fill/spill requests (§5.3). The
    /// NSF baseline sets this to false.
    pub nonblocking_bsi: bool,
    /// Write dummy values for destination-only registers instead of waiting
    /// for the backing store (§5.3). The NSF baseline sets this to false.
    pub dummy_fill_opt: bool,
    /// Pin register lines in the dcache while their registers are live in
    /// the RF (§5.3). The NSF baseline sets this to false.
    pub reg_line_pinning: bool,
    /// Static backward-taken/forward-not-taken branch prediction.
    pub branch_pred: bool,
    /// **Extension (paper future work):** on each eviction, evict up to
    /// this many registers at once (committed registers of the same victim
    /// thread), amortizing spill traffic and pre-freeing entries. 1 =
    /// the paper's baseline single-victim behaviour.
    pub group_evict: usize,
    /// **Extension (paper future work):** combine prefetching with ViReC
    /// caching — on a context switch, prefetch the registers the incoming
    /// thread held at its last suspension (bounded, low priority, never on
    /// the critical path).
    pub switch_prefetch: bool,
    /// Spare VRMU CAM ways provisioned for RAS retirement: physically
    /// present but masked until a failing way is retired onto one. 0 (the
    /// default) keeps the tag store exactly as the paper sizes it.
    pub spare_ways: usize,
    /// Maximum cycles a single run may take before
    /// aborting (safety net for misconfigured experiments).
    pub max_cycles: u64,
}

impl CoreConfig {
    /// The paper's ViReC core (Table 1): 1 GHz single-issue, 24–120 regs,
    /// 5-entry SQ, 32 KiB icache / 8 KiB dcache. The model allows one
    /// outstanding data load per thread: a load miss switches the thread
    /// out until that load fills. EXPERIMENTS.md's note that the paper's
    /// in-order core allows 2 is unverified (the paper text is not in this
    /// repository).
    pub fn virec(nthreads: usize, phys_regs: usize) -> CoreConfig {
        CoreConfig {
            nthreads,
            engine: EngineKind::ViReC,
            phys_regs,
            policy: PolicyKind::Lrc,
            sq_entries: 5,
            icache: CacheConfig::nmp_icache(),
            dcache: CacheConfig::nmp_dcache(),
            nonblocking_bsi: true,
            dummy_fill_opt: true,
            reg_line_pinning: true,
            branch_pred: true,
            group_evict: 1,
            switch_prefetch: false,
            spare_ways: 0,
            max_cycles: 200_000_000,
        }
    }

    /// The paper's banked core (Table 1): one 32-register bank per thread.
    pub fn banked(nthreads: usize) -> CoreConfig {
        CoreConfig {
            engine: EngineKind::Banked,
            phys_regs: nthreads * 32,
            ..CoreConfig::virec(nthreads, nthreads * 32)
        }
    }

    /// A plain single-thread in-order core (the CVA6-like baseline).
    pub fn inorder() -> CoreConfig {
        CoreConfig::banked(1)
    }

    /// Software context switching on top of the banked pipeline structure.
    pub fn software(nthreads: usize) -> CoreConfig {
        CoreConfig {
            engine: EngineKind::Software,
            ..CoreConfig::virec(nthreads, 32)
        }
    }

    /// Full-context double-buffer prefetching (§6.1).
    pub fn prefetch_full(nthreads: usize, regs_per_thread: usize) -> CoreConfig {
        CoreConfig {
            engine: EngineKind::PrefetchFull,
            ..CoreConfig::virec(nthreads, 2 * regs_per_thread)
        }
    }

    /// Oracle exact-context prefetching (§6.1).
    pub fn prefetch_exact(nthreads: usize, regs_per_thread: usize) -> CoreConfig {
        CoreConfig {
            engine: EngineKind::PrefetchExact,
            ..CoreConfig::virec(nthreads, 2 * regs_per_thread)
        }
    }

    /// The NSF baseline \[41\]: register caching with PLRU and none of the
    /// ViReC system optimizations.
    pub fn nsf(nthreads: usize, phys_regs: usize) -> CoreConfig {
        CoreConfig {
            policy: PolicyKind::Plru,
            nonblocking_bsi: false,
            dummy_fill_opt: false,
            reg_line_pinning: false,
            ..CoreConfig::virec(nthreads, phys_regs)
        }
    }

    /// Physical RF entries for a ViReC core storing `ctx_fraction` of each
    /// thread's active context (Figure 1/9/10 sweeps: 0.4, 0.6, 0.8, 1.0).
    pub fn virec_for_context(
        nthreads: usize,
        active_ctx_regs: usize,
        ctx_fraction: f64,
    ) -> CoreConfig {
        let regs = ((active_ctx_regs * nthreads) as f64 * ctx_fraction).ceil() as usize;
        // The RF must at least hold the registers of one in-flight
        // instruction per pipeline stage.
        CoreConfig::virec(nthreads, regs.max(12))
    }

    /// Validates internal consistency. Called by `Core::new`.
    pub fn validate(&self) {
        assert!(self.nthreads >= 1, "need at least one thread");
        assert!(self.sq_entries >= 1);
        if self.engine == EngineKind::ViReC {
            assert!(
                self.phys_regs >= 12,
                "ViReC RF must hold at least 12 registers (in-flight window), got {}",
                self.phys_regs
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        CoreConfig::virec(8, 64).validate();
        CoreConfig::banked(8).validate();
        CoreConfig::inorder().validate();
        CoreConfig::software(4).validate();
        CoreConfig::nsf(8, 32).validate();
        CoreConfig::prefetch_full(4, 8).validate();
    }

    #[test]
    fn banked_has_full_contexts() {
        let c = CoreConfig::banked(8);
        assert_eq!(c.phys_regs, 8 * 32);
        assert_eq!(c.engine, EngineKind::Banked);
    }

    #[test]
    fn context_fraction_sizing() {
        // gather: 8 active regs, 4 threads → 32 regs at 100%, 13 at 40%.
        let full = CoreConfig::virec_for_context(4, 8, 1.0);
        assert_eq!(full.phys_regs, 32);
        let small = CoreConfig::virec_for_context(4, 8, 0.4);
        assert_eq!(small.phys_regs, 13);
        // 8 threads: 26 at 40%, 64 at 100% (paper's ranges).
        assert_eq!(CoreConfig::virec_for_context(8, 8, 0.4).phys_regs, 26);
        assert_eq!(CoreConfig::virec_for_context(8, 8, 1.0).phys_regs, 64);
    }

    #[test]
    fn nsf_disables_optimizations() {
        let c = CoreConfig::nsf(8, 32);
        assert!(!c.nonblocking_bsi);
        assert!(!c.dummy_fill_opt);
        assert!(!c.reg_line_pinning);
        assert_eq!(c.policy, PolicyKind::Plru);
    }

    #[test]
    #[should_panic(expected = "at least 12 registers")]
    fn tiny_virec_rf_rejected() {
        CoreConfig::virec(8, 4).validate();
    }

    #[test]
    fn policy_labels_unique() {
        let mut labels: Vec<_> = PolicyKind::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), PolicyKind::ALL.len());
    }
}
