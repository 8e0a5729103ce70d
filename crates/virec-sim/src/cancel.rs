//! Cooperative cancellation and wall-clock deadlines.
//!
//! Long sweeps need two things the cycle-accurate watchdogs cannot give
//! them: a bound on *wall-clock* time per cell (a cell that is merely slow
//! in real time, not livelocked in simulated time, must still degrade to a
//! structured row) and a way for the process to stop cleanly on SIGINT /
//! SIGTERM without losing completed work.
//!
//! * [`CancelToken`] — a shareable atomic flag. Setting it is async-signal
//!   safe, so the interrupt handler can flip it directly.
//! * [`RunGate`] — a per-cell gate combining a token with an optional
//!   wall-clock deadline. Simulation step loops call
//!   [`RunGate::poll_due`] on a schedule that consults the clock once per
//!   [`GATE_POLL_CYCLES`] simulated cycles, so the check is free in the
//!   hot loop.
//! * [`interrupt_tokens`] — installs the process-wide SIGINT/SIGTERM
//!   handler (once) and returns the `(drain, abort)` token pair: the first
//!   signal sets *drain* (workers finish their current cell and claim no
//!   more), a second sets *abort* (in-flight cells are cancelled through
//!   their gates as well).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Cycles between full gate checks in the simulation step loops. A check
/// reads one atomic and (if a deadline is set) the monotonic clock; at
/// 8192-cycle granularity the overhead is unmeasurable while a deadline
/// still trips within microseconds of real time.
pub const GATE_POLL_CYCLES: u64 = 8192;

/// A shareable cancellation flag. Cloning shares the flag; any clone can
/// cancel, every clone observes it.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Sets the flag. Idempotent and async-signal safe.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once any clone has cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Why a gate tripped.
#[derive(Clone, Copy, Debug)]
pub struct GateTrip {
    /// Wall-clock milliseconds since the gate was created.
    pub elapsed_ms: u64,
    /// The configured deadline in milliseconds (0 if none was set).
    pub limit_ms: u64,
    /// True when the wall-clock deadline expired; false when the token was
    /// cancelled externally (SIGINT abort).
    pub expired: bool,
}

/// A per-run cancellation gate: an externally cancellable token plus an
/// optional wall-clock deadline whose clock starts when the gate is built.
#[derive(Clone, Debug)]
pub struct RunGate {
    token: CancelToken,
    start: Instant,
    limit: Option<Duration>,
}

impl Default for RunGate {
    fn default() -> Self {
        RunGate::unbounded()
    }
}

impl RunGate {
    /// A gate with the given token and a deadline of `limit_ms`
    /// milliseconds (0 disables the deadline). The clock starts now.
    pub fn new(token: CancelToken, limit_ms: u64) -> RunGate {
        RunGate {
            token,
            start: Instant::now(),
            limit: (limit_ms > 0).then(|| Duration::from_millis(limit_ms)),
        }
    }

    /// A gate that never trips on its own (fresh token, no deadline).
    pub fn unbounded() -> RunGate {
        RunGate::new(CancelToken::new(), 0)
    }

    /// The configured deadline in milliseconds (0 if none).
    pub fn limit_ms(&self) -> u64 {
        self.limit.map_or(0, |d| d.as_millis() as u64)
    }

    /// Wall-clock milliseconds since the gate was created.
    pub fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Full check: `Some` once the token is cancelled or the deadline has
    /// expired.
    pub fn trip(&self) -> Option<GateTrip> {
        if self.token.is_cancelled() {
            return Some(GateTrip {
                elapsed_ms: self.elapsed_ms(),
                limit_ms: self.limit_ms(),
                expired: false,
            });
        }
        match self.limit {
            Some(limit) if self.start.elapsed() >= limit => Some(GateTrip {
                elapsed_ms: self.elapsed_ms(),
                limit_ms: self.limit_ms(),
                expired: true,
            }),
            _ => None,
        }
    }

    /// Cheap periodic check for step loops that may fast-forward the cycle
    /// counter: performs [`RunGate::trip`] once `cycle` reaches `*next` and
    /// advances the schedule [`GATE_POLL_CYCLES`] past it. Starting from
    /// `next = 0` this checks at 0, 8192, … on a dense loop, while a
    /// skipped span cannot starve cancellation — the first iteration at
    /// or past a due poll always performs the check. Inlined: step loops
    /// call it every iteration, and the common answer is one compare.
    #[inline]
    pub fn poll_due(&self, cycle: u64, next: &mut u64) -> Option<GateTrip> {
        if cycle < *next {
            return None;
        }
        *next = cycle + GATE_POLL_CYCLES;
        self.trip()
    }
}

struct InterruptState {
    drain: CancelToken,
    abort: CancelToken,
    hits: AtomicUsize,
}

static INTERRUPT: OnceLock<InterruptState> = OnceLock::new();

extern "C" fn on_signal(_signum: i32) {
    // Only atomics: the handler must stay async-signal safe.
    if let Some(s) = INTERRUPT.get() {
        if s.hits.fetch_add(1, Ordering::SeqCst) == 0 {
            s.drain.cancel();
        } else {
            s.drain.cancel();
            s.abort.cancel();
        }
    }
}

#[cfg(unix)]
fn install_handler() {
    // `signal(2)` from the already-linked C library; no crate dependency.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_handler() {}

/// Installs the SIGINT/SIGTERM handler (once per process) and returns the
/// `(drain, abort)` token pair: the first signal cancels *drain* — workers
/// finish their current cell, the journal is flushed, no new cells start —
/// and any further signal also cancels *abort*, which trips every
/// in-flight cell's [`RunGate`].
pub fn interrupt_tokens() -> (CancelToken, CancelToken) {
    let s = INTERRUPT.get_or_init(|| {
        install_handler();
        InterruptState {
            drain: CancelToken::new(),
            abort: CancelToken::new(),
            hits: AtomicUsize::new(0),
        }
    });
    (s.drain.clone(), s.abort.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled());
    }

    #[test]
    fn unbounded_gate_never_trips() {
        let g = RunGate::unbounded();
        assert!(g.trip().is_none());
        assert_eq!(g.limit_ms(), 0);
    }

    #[test]
    fn cancelled_token_trips_immediately() {
        let t = CancelToken::new();
        t.cancel();
        let g = RunGate::new(t, 0);
        let trip = g.trip().expect("cancelled token must trip");
        assert!(!trip.expired);
        assert_eq!(trip.limit_ms, 0);
    }

    #[test]
    fn deadline_trips_after_expiry() {
        let g = RunGate::new(CancelToken::new(), 1);
        std::thread::sleep(Duration::from_millis(10));
        let trip = g.trip().expect("1 ms deadline must expire");
        assert!(trip.expired);
        assert_eq!(trip.limit_ms, 1);
        assert!(trip.elapsed_ms >= 1);
    }

    #[test]
    fn poll_due_checks_on_its_schedule() {
        let t = CancelToken::new();
        t.cancel();
        let g = RunGate::new(t, 0);
        let mut next = 0;
        assert!(g.poll_due(0, &mut next).is_some(), "cycle 0 is checked");
        assert!(
            g.poll_due(1, &mut next).is_none(),
            "off-schedule cycles are free"
        );
        assert!(g.poll_due(GATE_POLL_CYCLES + 5, &mut next).is_some());
        assert_eq!(next, 2 * GATE_POLL_CYCLES + 5, "a late poll reschedules");
    }
}
