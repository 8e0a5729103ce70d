//! Lightweight execution tracing.
//!
//! A [`Tracer`] receives discrete pipeline events with their cycle stamps —
//! commits, context switches, thread state changes — which is usually all
//! that is needed to understand a scheduling or replacement pathology
//! without wading through cycle-by-cycle state. Tracing is off unless a
//! tracer is installed; the hot path pays one branch.

use virec_isa::Instr;

/// A discrete pipeline event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction committed on the given thread.
    Commit {
        /// Committing thread.
        tid: u8,
        /// Program counter of the instruction.
        pc: u32,
        /// The instruction.
        instr: Instr,
    },
    /// The CSL switched the running thread out.
    SwitchOut {
        /// Suspended thread.
        tid: u8,
        /// PC the thread will resume from.
        resume_pc: u32,
        /// Whether the thread blocked on a dcache miss (vs. halting).
        blocked: bool,
    },
    /// A thread was switched in and begins fetching.
    SwitchIn {
        /// Activated thread.
        tid: u8,
        /// First PC fetched.
        pc: u32,
    },
    /// A blocked thread's miss returned; it is runnable again.
    Wakeup {
        /// The thread that woke.
        tid: u8,
    },
    /// A context-switch request was suppressed by the CSL masks (§5.2).
    SwitchMasked {
        /// The thread that stays (and blocks in the mem stage).
        tid: u8,
    },
}

/// Receives `(cycle, event)` pairs.
pub type Tracer = Box<dyn FnMut(u64, TraceEvent)>;

/// The core's tracer slot. A clone is empty: a checkpoint copy replays
/// cycles the original already reported, so it must not emit them again.
#[derive(Default)]
pub(crate) struct TracerSlot(pub(crate) Option<Tracer>);

impl Clone for TracerSlot {
    fn clone(&self) -> TracerSlot {
        TracerSlot(None)
    }
}

/// A convenience tracer that records events into a vector (for tests and
/// offline analysis).
#[derive(Default)]
pub struct VecTracer {
    events: std::rc::Rc<std::cell::RefCell<Vec<(u64, TraceEvent)>>>,
}

impl VecTracer {
    /// Creates an empty recorder.
    pub fn new() -> VecTracer {
        VecTracer::default()
    }

    /// The boxed callback to install with `Core::set_tracer`.
    pub fn tracer(&self) -> Tracer {
        let sink = self.events.clone();
        Box::new(move |cycle, ev| sink.borrow_mut().push((cycle, ev)))
    }

    /// Snapshot of the recorded events.
    pub fn events(&self) -> Vec<(u64, TraceEvent)> {
        self.events.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_tracer_records_in_order() {
        let rec = VecTracer::new();
        let mut t = rec.tracer();
        t(1, TraceEvent::Wakeup { tid: 0 });
        t(5, TraceEvent::SwitchMasked { tid: 1 });
        let evs = rec.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].0, 1);
        assert_eq!(evs[1], (5, TraceEvent::SwitchMasked { tid: 1 }));
    }
}
