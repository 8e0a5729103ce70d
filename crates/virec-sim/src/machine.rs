//! The one step loop every driver runs on.
//!
//! The runner (one core, or N cores on a shared fabric) and the
//! serve dispatcher are thin [`Driver`]s over [`run`]. One iteration polls
//! the wall-clock gate, lets the driver act before the cycle (checkpoints,
//! patrol scrubs, admission and dispatch), ticks the shared fabric and
//! every active core, checks the structural and NoC hazards, lets the
//! driver route what the cycle produced (faults, settlement), advances the
//! clock, applies the forward-progress watchdog and the cycle budget, and
//! then takes the skip step. The watchdog and the budget are one
//! [`RunLimits`], which the serve dispatcher also gives each attempt; the
//! gate belongs to the machine alone.
//!
//! The skip step is the only place the clock jumps. On a productive cycle
//! some core's next event is the very next cycle and the step bails before
//! scanning anything else. Otherwise the clock moves to the minimum of one
//! wakeup list — every active core's next event, the driver's scheduled
//! actions, the fabric's next event and [`RunLimits::wake`] — and the
//! skipped span is credited to the cores' stall counters (and to the
//! driver, through [`Driver::skipped`]) exactly as the dense loop would
//! have accrued it. With the skip step switched off the same loop is the
//! dense differential reference.

use crate::cancel::{GateTrip, RunGate};
use crate::error::{RunDiagnostics, SimError};
use crate::watchdog::Watchdog;
use virec_core::Core;
use virec_isa::FlatMem;
use virec_mem::Fabric;

/// True when event-driven cycle skipping is disabled, either per run (the
/// drivers' `dense_loop` knobs) or process-wide (`VIREC_NO_SKIP=1`).
fn dense_requested(opt_dense: bool) -> bool {
    opt_dense || std::env::var_os("VIREC_NO_SKIP").is_some_and(|v| v == "1")
}

/// One core position of a [`Machine`]: a plain [`Core`], or a dispatcher
/// slot that holds a core only while an attempt runs.
pub(crate) trait CoreSlot {
    /// The core in this slot that may tick this cycle, if any (finished
    /// cores are filtered by the loop itself).
    fn core(&mut self) -> Option<&mut Core>;
}

impl CoreSlot for Core {
    fn core(&mut self) -> Option<&mut Core> {
        Some(self)
    }
}

/// Everything the step loop advances: the core slots, the shared fabric and
/// functional memory, the clock, the limits of the whole run (one watchdog
/// over the summed commits of every core), and the wall-clock gate, polled
/// on a schedule so a skipped span cannot starve it.
#[derive(Clone)]
pub(crate) struct Machine<S> {
    pub slots: Vec<S>,
    pub fabric: Fabric,
    pub mem: FlatMem,
    pub now: u64,
    pub limits: RunLimits,
    gate: RunGate,
    /// Next cycle the gate is consulted.
    next_poll: u64,
}

impl<S: CoreSlot> Machine<S> {
    /// A machine at cycle 0 held to `gate` and `limits`.
    pub fn new(
        slots: Vec<S>,
        fabric: Fabric,
        mem: FlatMem,
        gate: RunGate,
        limits: RunLimits,
    ) -> Machine<S> {
        Machine {
            slots,
            fabric,
            mem,
            now: 0,
            limits,
            gate,
            next_poll: 0,
        }
    }

    /// The gate check before the tick of the current cycle.
    fn poll(&mut self) -> Option<GateTrip> {
        self.gate.poll_due(self.now, &mut self.next_poll)
    }

    /// Restarts the watchdog and rewinds the poll schedule to the clock: a
    /// checkpoint restore moved it back, and the replay window must stay
    /// responsive to cancellation.
    pub fn rewind(&mut self) {
        self.limits.watchdog.restart();
        self.next_poll = self.now;
    }
}

/// Which limit a run crossed.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LimitTrip {
    /// No commit for `stalled` cycles.
    Livelock { stalled: u64 },
    /// The clock reached the `budget`-th cycle of the run.
    Budget { budget: u64 },
}

/// The limits one run — a whole machine, or one serve attempt on it — is
/// held to, both counted in cycles since `origin`, the cycle it started: a
/// forward-progress watchdog and a cycle budget. A driver observes after
/// a tick and lets no skip jump past [`RunLimits::wake`].
#[derive(Clone, Debug)]
pub(crate) struct RunLimits {
    origin: u64,
    watchdog: Watchdog,
    budget: u64,
}

impl RunLimits {
    /// Limits for a run starting at cycle `origin`: a `livelock_cycles`
    /// watchdog (0 disables it) and a `budget` of cycles.
    pub fn new(origin: u64, livelock_cycles: u64, budget: u64) -> RunLimits {
        RunLimits {
            origin,
            watchdog: Watchdog::new(livelock_cycles),
            budget,
        }
    }

    /// The watchdog and the budget after a tick, with the clock advanced to
    /// `now` and `committed` instructions retired in total.
    pub fn observe(&mut self, now: u64, committed: u64) -> Result<(), LimitTrip> {
        let (local, budget) = (now - self.origin, self.budget);
        self.watchdog
            .observe(local, committed)
            .map_err(|stalled| LimitTrip::Livelock { stalled })?;
        if local >= budget {
            return Err(LimitTrip::Budget { budget });
        }
        Ok(())
    }

    /// The last cycle a skip may land on. The watchdog cap stops one tick
    /// short of its firing observation, so that observation reports exactly
    /// the threshold, and the budget cap lands on the last budgeted cycle,
    /// as the dense loop does.
    pub fn wake(&self) -> u64 {
        let fire = self
            .watchdog
            .deadline()
            .map_or(u64::MAX, |deadline| self.origin + deadline - 1);
        fire.min(self.origin.saturating_add(self.budget).saturating_sub(1))
    }
}

/// What a driver's pre-cycle hook decided.
pub(crate) enum Step {
    /// Tick the fabric and the cores this cycle.
    Tick,
    /// Nothing ticks: the driver moved the clock itself (an idle
    /// dispatcher fast-forwarding to its next arrival).
    Idle,
    /// The run is over.
    Stop,
}

/// A caller of [`run`]: owns a [`Machine`] and hooks its own side effects
/// into fixed points of the step. Dispatch is static; nothing allocates per
/// step.
pub(crate) trait Driver {
    type Slot: CoreSlot;

    fn machine(&mut self) -> &mut Machine<Self::Slot>;

    /// Checked at the top of every iteration; the run ends when false.
    fn running(&self) -> bool;

    /// Diagnostics for an error raised at the current cycle.
    fn diag(&self) -> Box<RunDiagnostics>;

    /// Pipeline dump attached to a livelock error.
    fn dump(&self) -> String;

    /// Driver work before the fabric and the cores tick.
    fn begin(&mut self) -> Result<Step, SimError> {
        Ok(Step::Tick)
    }

    /// A core in `slot` latched a structural hazard during its tick. The
    /// default fails the run.
    fn structural(&mut self, _slot: usize, detail: String) -> Result<(), SimError> {
        Err(SimError::StructuralHazard {
            detail,
            diag: self.diag(),
        })
    }

    /// Driver work after the ticks, before the clock advances. `Ok(true)`
    /// means the driver rewound the machine (a checkpoint restore) and the
    /// iteration ends here.
    fn end_tick(&mut self) -> Result<bool, SimError> {
        Ok(false)
    }

    /// The earliest cycle at or after the (advanced) clock at which the
    /// driver must act; `u64::MAX` when it has nothing scheduled.
    fn wakeup(&self) -> u64 {
        u64::MAX
    }

    /// Credits a skipped span to driver-side accounting.
    fn skipped(&mut self, _span: u64) {}
}

/// Steps `d` until [`Driver::running`] turns false or a hook stops the run.
/// `dense` forces the dense loop (see [`dense_requested`]).
pub(crate) fn run<D: Driver>(d: &mut D, dense: bool) -> Result<(), SimError> {
    let skip = !dense_requested(dense);
    while d.running() {
        if let Some(trip) = d.machine().poll() {
            return Err(SimError::Deadline {
                elapsed_ms: trip.elapsed_ms,
                limit_ms: trip.limit_ms,
                diag: d.diag(),
            });
        }
        match d.begin()? {
            Step::Tick => {}
            Step::Idle => continue,
            Step::Stop => break,
        }
        let m = d.machine();
        let now = m.now;
        m.fabric.tick(now);
        for core in m.slots.iter_mut().filter_map(CoreSlot::core) {
            if !core.done() {
                core.tick(now, &mut m.fabric, &mut m.mem);
            }
        }
        for i in 0..m.slots.len() {
            let m = d.machine();
            let fault = m.slots[i].core().and_then(|c| c.structural_fault());
            if let Some(detail) = fault.map(str::to_string) {
                d.structural(i, detail)?;
            }
        }
        // NoC watchdog: a flit past its age cap or out of retransmission
        // budget means the interconnect can no longer guarantee delivery —
        // a structural hazard, not a hang.
        if let Some(detail) = d.machine().fabric.noc_fault().map(str::to_string) {
            return Err(SimError::StructuralHazard {
                detail,
                diag: d.diag(),
            });
        }
        if d.end_tick()? {
            continue;
        }

        let m = d.machine();
        m.now += 1;
        let committed = m
            .slots
            .iter_mut()
            .filter_map(CoreSlot::core)
            .map(|c| c.stats().instructions)
            .sum();
        if let Err(trip) = m.limits.observe(m.now, committed) {
            return Err(match trip {
                LimitTrip::Livelock { stalled } => SimError::Livelock {
                    stalled_cycles: stalled,
                    dump: d.dump(),
                    diag: d.diag(),
                },
                LimitTrip::Budget { budget } => SimError::CycleBudgetExceeded {
                    budget,
                    diag: d.diag(),
                },
            });
        }
        if skip {
            skip_ahead(d);
        }
    }
    Ok(())
}

/// The skip step: if nothing on the wakeup list can happen before `wake`,
/// every tick in `[now, wake)` is a provable no-op, so the clock jumps there
/// and the span is credited.
fn skip_ahead<D: Driver>(d: &mut D) {
    let m = d.machine();
    let now = m.now;
    let ticked = now - 1;
    let mut wake = u64::MAX;
    let mut active = false;
    for core in m.slots.iter_mut().filter_map(CoreSlot::core) {
        if core.done() {
            continue;
        }
        active = true;
        match core.next_event(ticked, &m.fabric) {
            // A productive core pins the wakeup to `now`: bail before the
            // driver and fabric scans.
            Some(t) if t <= now => return,
            Some(t) => wake = wake.min(t),
            None => {}
        }
    }
    if !active {
        return;
    }
    wake = wake.min(d.wakeup());
    if wake <= now {
        return;
    }
    let m = d.machine();
    if let Some(t) = m.fabric.next_event(ticked) {
        wake = wake.min(t);
    }
    wake = wake.min(m.limits.wake());
    if wake <= now {
        return;
    }
    let span = wake - now;
    for core in m.slots.iter_mut().filter_map(CoreSlot::core) {
        if !core.done() {
            core.credit_skipped(span);
        }
    }
    m.now = wake;
    d.skipped(span);
}
