//! Forward-progress watchdog.
//!
//! Distinguishes two very different failure modes that the old runner
//! collapsed into one "exceeded N cycles" panic:
//!
//! * **livelock** — no instruction has committed for a long window. The
//!   machine is wedged (a lost fill, a scheduling cycle, a stuck MSHR) and
//!   burning more cycles will not help. Detected by [`Watchdog::observe`].
//! * **slow run** — instructions are still committing but the cycle budget
//!   ran out. That is a budget problem, not a correctness problem, and is
//!   reported separately (and retried with a bigger budget by the bench
//!   harness).

/// Cycles without a single committed instruction before the run is declared
/// livelocked. The deepest legitimate commit gaps in this simulator — a
/// cold-start context fetch behind a DRAM queue full of other cores'
/// traffic — are tens of thousands of cycles; a million is three orders of
/// magnitude of slack while still firing long before a 10⁸–10⁹ cycle budget.
pub const DEFAULT_LIVELOCK_CYCLES: u64 = 1_000_000;

/// Tracks committed-instruction counts and flags commit droughts.
#[derive(Clone, Debug)]
pub struct Watchdog {
    threshold: u64,
    last_progress_cycle: u64,
    last_committed: u64,
}

impl Watchdog {
    /// Creates a watchdog that fires after `threshold` cycles without a
    /// commit. A threshold of 0 disables the watchdog.
    pub fn new(threshold: u64) -> Watchdog {
        Watchdog {
            threshold,
            last_progress_cycle: 0,
            last_committed: 0,
        }
    }

    /// The earliest observation cycle at which the watchdog would fire if
    /// no further instruction commits (`None` when disabled). Event-driven
    /// loops must not fast-forward past `deadline() - 1`: the fatal
    /// observation then happens at exactly this cycle with a stall count of
    /// exactly `threshold`, byte-identical to the dense loop. A skipped
    /// span counts as the single observation at its wake cycle — it neither
    /// trips the watchdog early (no observation mid-span reports a partial
    /// drought) nor extends the threshold (the deadline cap guarantees the
    /// firing observation is never jumped over).
    pub fn deadline(&self) -> Option<u64> {
        (self.threshold > 0).then(|| self.last_progress_cycle + self.threshold)
    }

    /// Forgets all progress seen so far, as if freshly built.
    pub(crate) fn restart(&mut self) {
        *self = Watchdog::new(self.threshold);
    }

    /// Feeds one cycle's progress. `committed` is the monotonically
    /// non-decreasing total of committed instructions. Returns
    /// `Err(stalled_cycles)` once the commit drought reaches the threshold.
    pub fn observe(&mut self, now: u64, committed: u64) -> Result<(), u64> {
        if committed != self.last_committed {
            self.last_committed = committed;
            self.last_progress_cycle = now;
            return Ok(());
        }
        if self.threshold == 0 {
            return Ok(());
        }
        let stalled = now.saturating_sub(self.last_progress_cycle);
        if stalled >= self.threshold {
            Err(stalled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_resets_the_clock() {
        let mut w = Watchdog::new(10);
        for now in 0..100 {
            // Commit every 5 cycles: never fires.
            w.observe(now, now / 5).unwrap();
        }
    }

    #[test]
    fn drought_fires_at_threshold() {
        let mut w = Watchdog::new(10);
        w.observe(0, 1).unwrap();
        for now in 1..10 {
            w.observe(now, 1).unwrap();
        }
        assert_eq!(w.observe(10, 1), Err(10));
    }

    #[test]
    fn zero_threshold_disables() {
        let mut w = Watchdog::new(0);
        for now in 0..10_000 {
            w.observe(now, 0).unwrap();
        }
        assert_eq!(w.deadline(), None);
    }

    #[test]
    fn deadline_tracks_progress() {
        let mut w = Watchdog::new(10);
        assert_eq!(w.deadline(), Some(10));
        w.observe(3, 1).unwrap();
        assert_eq!(w.deadline(), Some(13), "progress pushes the deadline out");
        w.observe(7, 1).unwrap();
        assert_eq!(w.deadline(), Some(13), "droughts do not move it");
    }

    #[test]
    fn skip_to_deadline_fires_exactly_like_dense() {
        // A fast-forwarded span observed once at the capped wake cycle
        // reports the same stall count as dense per-cycle observation.
        let mut dense = Watchdog::new(10);
        dense.observe(0, 1).unwrap();
        let mut fired = None;
        for now in 1..=20 {
            if let Err(stalled) = dense.observe(now, 1) {
                fired = Some((now, stalled));
                break;
            }
        }
        let mut skip = Watchdog::new(10);
        skip.observe(0, 1).unwrap();
        let wake = skip.deadline().unwrap();
        assert_eq!(skip.observe(wake, 1), Err(10));
        assert_eq!(fired, Some((wake, 10)));
    }
}
