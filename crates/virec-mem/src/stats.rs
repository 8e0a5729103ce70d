//! Cache statistics counters.

/// Hit/miss and pinning statistics for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed and allocated (or merged into) an MSHR.
    pub misses: u64,
    /// Accesses rejected because all MSHRs were busy.
    pub mshr_stalls: u64,
    /// Accesses rejected because the cycle's ports were exhausted.
    pub port_stalls: u64,
    /// Lines evicted to make room for a fill.
    pub evictions: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Fills that could not allocate a line because every candidate way was
    /// pinned (the fill bypasses the cache).
    pub pinned_bypasses: u64,
    /// Hits on lines holding register state.
    pub reg_hits: u64,
    /// Misses on register-region lines.
    pub reg_misses: u64,
}

impl CacheStats {
    /// Every counter with its journal key, in journal order.
    pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); 9] {
        [
            ("hits", &mut self.hits),
            ("misses", &mut self.misses),
            ("mshr_stalls", &mut self.mshr_stalls),
            ("port_stalls", &mut self.port_stalls),
            ("evictions", &mut self.evictions),
            ("writebacks", &mut self.writebacks),
            ("pinned_bypasses", &mut self.pinned_bypasses),
            ("reg_hits", &mut self.reg_hits),
            ("reg_misses", &mut self.reg_misses),
        ]
    }

    /// Demand accesses = hits + misses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Miss rate in `[0, 1]`; zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(s.accesses(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_rates_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
    }
}
