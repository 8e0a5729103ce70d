//! Per-core execution statistics.

use virec_mem::CacheStats;

/// Counters collected while a core runs. `PartialEq` is part of the
/// event-driven loop's contract: differential tests assert the dense and
/// wakeup-scheduled loops produce byte-identical counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Instructions committed across all threads.
    pub instructions: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Context-switch requests suppressed by the CSL masks (§5.2).
    pub switches_masked: u64,
    /// Per-register tag-store lookups that hit (register present in RF).
    pub rf_hits: u64,
    /// Per-register tag-store lookups that missed (fill required).
    pub rf_misses: u64,
    /// Register fills satisfied by the dummy-value optimization
    /// (destination-only operands, §5.3).
    pub rf_dummy_fills: u64,
    /// Registers spilled to the backing store.
    pub rf_spills: u64,
    /// Cycles the front end stalled waiting for register fills.
    pub stall_reg_fill: u64,
    /// Cycles the mem stage stalled on dcache data (blocking waits).
    pub stall_mem: u64,
    /// Cycles spent with no runnable thread (all blocked on memory).
    pub stall_idle: u64,
    /// Cycles lost to fetch stalls (icache misses, post-switch redirect).
    pub stall_fetch: u64,
    /// Cycles a store sat in the mem stage refused by the full store
    /// queue. The store polls nothing while it waits (the head's
    /// retirement wakes it), so the event-driven loop credits skipped
    /// cycles here through `Core::credit_skipped`; the count is the same
    /// as the dense loop's.
    pub stall_sq_full: u64,
    /// Cycles spent on software save/restore sequences (software engine).
    pub stall_ctx_software: u64,
    /// Branches that were mispredicted (redirect bubbles).
    pub branch_mispredicts: u64,
    /// Data cache statistics.
    pub dcache: CacheStats,
    /// Instruction cache statistics.
    pub icache: CacheStats,
}

impl CoreStats {
    /// The scalar counters, each with its journal key, in journal order.
    /// `dcache` and `icache` are blocks of their own
    /// ([`CacheStats::counters_mut`]).
    pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); 15] {
        [
            ("cycles", &mut self.cycles),
            ("instructions", &mut self.instructions),
            ("context_switches", &mut self.context_switches),
            ("switches_masked", &mut self.switches_masked),
            ("rf_hits", &mut self.rf_hits),
            ("rf_misses", &mut self.rf_misses),
            ("rf_dummy_fills", &mut self.rf_dummy_fills),
            ("rf_spills", &mut self.rf_spills),
            ("stall_reg_fill", &mut self.stall_reg_fill),
            ("stall_mem", &mut self.stall_mem),
            ("stall_idle", &mut self.stall_idle),
            ("stall_fetch", &mut self.stall_fetch),
            ("stall_sq_full", &mut self.stall_sq_full),
            ("stall_ctx_software", &mut self.stall_ctx_software),
            ("branch_mispredicts", &mut self.branch_mispredicts),
        ]
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Register-file hit rate over tag-store lookups (Figure 12 metric).
    pub fn rf_hit_rate(&self) -> f64 {
        let total = self.rf_hits + self.rf_misses;
        if total == 0 {
            // An engine with no register cache (banked) never misses.
            1.0
        } else {
            self.rf_hits as f64 / total as f64
        }
    }

    /// Renders a human-readable multi-line report (the CLI's output
    /// format).
    pub fn report(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(&format!("{k:<22}: {v}\n"));
        };
        line("cycles", self.cycles.to_string());
        line("instructions", self.instructions.to_string());
        line("IPC", format!("{:.4}", self.ipc()));
        line("context switches", self.context_switches.to_string());
        line("switches masked", self.switches_masked.to_string());
        line("run length", format!("{:.1}", self.run_length()));
        line("RF hit rate", format!("{:.2}%", self.rf_hit_rate() * 100.0));
        line("RF spills", self.rf_spills.to_string());
        line("RF dummy fills", self.rf_dummy_fills.to_string());
        line(
            "dcache hit rate",
            format!("{:.2}%", self.dcache.hit_rate() * 100.0),
        );
        line(
            "icache hit rate",
            format!("{:.2}%", self.icache.hit_rate() * 100.0),
        );
        line("stall: reg fill", self.stall_reg_fill.to_string());
        line("stall: mem block", self.stall_mem.to_string());
        line("stall: idle", self.stall_idle.to_string());
        line("stall: fetch", self.stall_fetch.to_string());
        line("stall: sq full", self.stall_sq_full.to_string());
        line("branch mispredicts", self.branch_mispredicts.to_string());
        out
    }

    /// Mean committed instructions between context switches.
    pub fn run_length(&self) -> f64 {
        if self.context_switches == 0 {
            self.instructions as f64
        } else {
            self.instructions as f64 / self.context_switches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_basic() {
        let s = CoreStats {
            cycles: 100,
            instructions: 40,
            ..Default::default()
        };
        assert!((s.ipc() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_safe() {
        assert_eq!(CoreStats::default().ipc(), 0.0);
        assert_eq!(CoreStats::default().rf_hit_rate(), 1.0);
    }

    #[test]
    fn hit_rate() {
        let s = CoreStats {
            rf_hits: 90,
            rf_misses: 10,
            ..Default::default()
        };
        assert!((s.rf_hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn report_contains_key_lines() {
        let s = CoreStats {
            cycles: 10,
            instructions: 5,
            ..Default::default()
        };
        let r = s.report();
        assert!(r.contains("IPC"));
        assert!(r.contains("0.5000"));
        assert!(r.contains("RF hit rate"));
    }

    #[test]
    fn run_length() {
        let s = CoreStats {
            instructions: 100,
            context_switches: 4,
            ..Default::default()
        };
        assert!((s.run_length() - 25.0).abs() < 1e-12);
    }
}
