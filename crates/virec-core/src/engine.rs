//! The context-engine abstraction.
//!
//! The pipeline is identical for every architecture alternative in the
//! paper's evaluation; what differs is how thread register contexts are
//! stored and made available. A [`ContextEngine`] answers the decode stage's
//! register lookups and manages storage:
//!
//! * [`crate::engines::VirecEngine`] — the paper's contribution (VRMU + BSI).
//! * [`crate::engines::BankedEngine`] — statically banked full contexts.
//! * [`crate::engines::SoftwareEngine`] — save/restore through memory.
//! * [`crate::engines::PrefetchEngine`] — double-buffer context prefetching
//!   (full or oracle-exact).

use crate::regions::RegRegion;
use crate::stats::CoreStats;
use virec_isa::{FlatMem, Instr, Reg};
use virec_mem::{Cache, Fabric};

/// Mutable access to the core-owned resources an engine needs each cycle.
pub struct EngineEnv<'a> {
    /// The data cache (the ViReC backing store).
    pub dcache: &'a mut Cache,
    /// The crossbar + DRAM fabric.
    pub fabric: &'a mut Fabric,
    /// Functional memory (register-backing region included).
    pub mem: &'a mut FlatMem,
    /// This core's register-backing region layout.
    pub region: RegRegion,
    /// Statistics sink.
    pub stats: &'a mut CoreStats,
}

/// A deterministic fault aimed at engine-internal state, delivered by the
/// fault-injection subsystem between pipeline cycles. Engines that do not
/// model the targeted structure report the fault as not applicable by
/// returning `None` from [`ContextEngine::inject_fault`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineFault {
    /// Flip `bit` of the value held in the `nth` occupied physical-register
    /// slot (a tag-store entry for ViReC, a bank cell for banked engines).
    /// `nth` wraps modulo the current occupancy.
    RegValue {
        /// Which occupied slot (modulo occupancy).
        nth: u64,
        /// Which bit of the 64-bit value (modulo 64).
        bit: u8,
    },
    /// Corrupt the `nth` occupied rollback-queue slot: rewrite one recorded
    /// register identity (or toggle the is-mem CSL signal), modelling an
    /// upset in the VRMU's in-flight tracking.
    RollbackSlot {
        /// Which queue slot (modulo occupancy).
        nth: u64,
        /// Selects the register/bit within the slot.
        bit: u8,
    },
    /// Mark the `nth` occupied tag-store entry as waiting for a fill that
    /// will never arrive (a lost BSI response).
    StuckFill {
        /// Which occupied entry (modulo occupancy).
        nth: u64,
    },
}

/// Outcome of retiring a VRMU way via [`ContextEngine::retire_way`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WayRetire {
    /// Physical index of the way that was masked out.
    pub idx: usize,
    /// Whether a provisioned spare way was activated to replace it (false
    /// means the store shrank — degraded capacity).
    pub spared: bool,
    /// Human-readable description of the retired site for campaign logs.
    pub desc: String,
}

/// A register the engine cannot serve to a read or a write: it is not
/// resident, or its fill has not landed. Decode acquires every register an
/// instruction touches before it issues, so a healthy pipeline never meets
/// one; corrupted engine state does (a stuck fill on a register an acquired
/// instruction reads), and the core latches it as a structural hazard
/// ([`crate::Core::structural_fault`]) instead of panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegFault {
    /// `(tid, reg)` holds no physical register.
    Spilled {
        /// The thread.
        tid: u8,
        /// The register.
        reg: Reg,
    },
    /// `(tid, reg)` holds a physical register whose fill is pending.
    FillPending {
        /// The thread.
        tid: u8,
        /// The register.
        reg: Reg,
    },
}

impl std::fmt::Display for RegFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegFault::Spilled { tid, reg } => write!(f, "t{tid} {reg} is not resident"),
            RegFault::FillPending { tid, reg } => write!(f, "t{tid} {reg} waits for its fill"),
        }
    }
}

/// Result of a decode-stage register acquisition attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// All registers of the instruction are available; it may issue.
    Ready,
    /// Not yet, and a retry may itself make progress (ViReC's victim
    /// selection advances on every try for a register with no entry yet):
    /// retry next cycle.
    Pending,
    /// Every register is allocated and only fills are outstanding. A retry
    /// changes nothing until a fill lands, and the engine's
    /// [`ContextEngine::tick`] asks for the cycle after one lands, so decode
    /// records no wake of its own.
    Filling,
}

/// Per-quantum register-use sets recorded from a run, used as the oracle for
/// exact-context prefetching (§6.1: "assuming an oracle prediction").
#[derive(Clone, Debug, Default)]
pub struct OracleSchedule {
    /// `sets[tid][quantum]` = bitmask over architectural registers used in
    /// that scheduling quantum.
    pub sets: Vec<Vec<u32>>,
}

impl OracleSchedule {
    /// The schedule a traced run implies: each thread's quantum `used`
    /// masks, in switch-out order.
    pub fn from_trace(trace: &QuantumTrace, nthreads: usize) -> OracleSchedule {
        let mut sets = vec![Vec::new(); nthreads];
        for q in &trace.quanta {
            if let Some(v) = sets.get_mut(q.tid as usize) {
                v.push(q.used);
            }
        }
        OracleSchedule { sets }
    }

    /// Register mask for a thread's `quantum`-th run, if recorded.
    pub fn mask(&self, tid: usize, quantum: usize) -> Option<u32> {
        self.sets.get(tid).and_then(|v| v.get(quantum)).copied()
    }
}

/// One scheduling quantum observed by the core's quantum tracer
/// ([`crate::Core::enable_quantum_trace`]). Register masks use bit `i` for
/// `x{i}` and bit 31 for the condition flags, matching
/// `virec_isa::dataflow`.
#[derive(Clone, Copy, Debug)]
pub struct QuantumRecord {
    /// The thread that ran.
    pub tid: u8,
    /// PC the quantum started fetching from.
    pub start_pc: u32,
    /// PC the thread will replay from after the switch-out flush.
    pub resume_pc: u32,
    /// Registers of every decode-acquired instruction (no flags bit; the
    /// mask [`OracleSchedule::from_trace`] records for the prefetch oracle).
    pub used: u32,
    /// Registers (and flags) read before being written within the quantum —
    /// the true demand set, a subset of static `live_in(start_pc)`.
    pub demand: u32,
    /// Registers resident in engine storage at switch-out, sampled *after*
    /// the §5.1 rollback-queue compaction (zero if the engine has no
    /// per-register bookkeeping).
    pub resident: u32,
    /// Subset of `resident` whose commit (C) bit is set.
    pub committed: u32,
    /// Whether `resident`/`committed` carry real engine state.
    pub has_live_bits: bool,
    /// Whether the quantum ended because the thread halted.
    pub halted: bool,
}

/// All quanta of a run, in switch-out order.
#[derive(Clone, Debug, Default)]
pub struct QuantumTrace {
    /// Closed quanta (a run aborted by the cycle budget may additionally
    /// have one unclosed quantum in flight, which is dropped).
    pub quanta: Vec<QuantumRecord>,
}

/// Storage and availability of thread register contexts.
pub trait ContextEngine {
    /// Attempts to make every register of `instr` available for `tid`.
    /// Called from decode until it returns `Ready`: the next cycle after
    /// `Pending`, the cycle after a fill lands after `Filling`. On `Ready`
    /// the engine has locked the registers and recorded the instruction as
    /// in-flight.
    fn acquire(
        &mut self,
        now: u64,
        tid: u8,
        instr: &Instr,
        env: &mut EngineEnv<'_>,
    ) -> AcquireOutcome;

    /// Reads the current value of a resident register, or the
    /// [`RegFault`] that makes it unreadable.
    fn read(&self, tid: u8, reg: Reg) -> Result<u64, RegFault>;

    /// Writes a resident register, or reports the [`RegFault`] that makes
    /// it unwritable.
    fn write(&mut self, tid: u8, reg: Reg, value: u64) -> Result<(), RegFault>;

    /// The oldest in-flight instruction committed.
    fn commit_instr(&mut self, tid: u8, instr: &Instr);

    /// A branch redirect squashed the youngest in-flight (acquired but not
    /// issued) instruction.
    fn abort_youngest(&mut self, tid: u8, instr: &Instr);

    /// A context switch flushed every in-flight instruction of `tid`
    /// (the rollback-queue compaction of §5.1).
    fn flush_all_inflight(&mut self, tid: u8);

    /// The CSL switched from `out_tid` to `in_tid`.
    fn on_switch(&mut self, now: u64, out_tid: u8, in_tid: u8, env: &mut EngineEnv<'_>);

    /// Whether `tid` can be scheduled right now (e.g. its context bank is
    /// loaded). Engines may use this call to start loading.
    fn thread_ready(&mut self, now: u64, tid: u8, env: &mut EngineEnv<'_>) -> bool;

    /// Thread `tid` halted; its context storage may be reclaimed.
    fn on_thread_halt(&mut self, tid: u8, env: &mut EngineEnv<'_>) {
        let _ = (tid, env);
    }

    /// Advances engine-internal machinery (BSI, transfer queues) one cycle
    /// and returns the next cycle at which it has work of its own: `now + 1`
    /// while requests wait to issue or after a fill landed (decode retries
    /// a `Filling` acquire then), else the earliest hit completion.
    /// `None` means quiescent until the pipeline hands it more work. MSHR
    /// waits return nothing: the dcache's `next_event` covers their fills.
    fn tick(&mut self, now: u64, env: &mut EngineEnv<'_>) -> Option<u64>;

    /// CSL mask: a register load or store is outstanding in the BSI (§5.2).
    fn bsi_busy(&self) -> bool {
        false
    }

    /// CSL mask: whether the oldest in-flight instruction is a memory
    /// operation (`None` when unknown or the backend is empty, which the
    /// CSL treats as permissive).
    fn oldest_inflight_is_mem(&self) -> Option<bool> {
        None
    }

    /// Applies a fault to engine-internal state. Returns a description of
    /// the corrupted site, or `None` when the engine has no such structure
    /// (or it is currently empty) — the campaign records the injection as
    /// not applied.
    fn inject_fault(&mut self, fault: EngineFault) -> Option<String> {
        let _ = fault;
        None
    }

    /// RAS hook: permanently retires the `nth` occupied physical-register
    /// way (same `nth`-modulo-occupancy addressing as
    /// [`EngineFault::RegValue`]), relocating or spilling its occupant and
    /// activating a spare way when `use_spare` is set and one is
    /// provisioned. Returns `None` when the engine has no maskable ways or
    /// retiring would shrink the store below its in-flight floor.
    fn retire_way(
        &mut self,
        nth: u64,
        use_spare: bool,
        env: &mut EngineEnv<'_>,
    ) -> Option<WayRetire> {
        let _ = (nth, use_spare, env);
        None
    }

    /// RAS hook: re-applies a way retirement by *physical* index after a
    /// checkpoint restore rewound the tag store (idempotent). Returns
    /// whether the mask is in place afterwards.
    fn remask_way(&mut self, idx: usize, use_spare: bool, env: &mut EngineEnv<'_>) -> bool {
        let _ = (idx, use_spare, env);
        false
    }

    /// Spare VRMU ways still available for retirement (0 for engines
    /// without maskable ways).
    fn spare_ways_left(&self) -> usize {
        0
    }

    /// `(resident, committed)` architectural-register masks for `tid`:
    /// which registers currently occupy engine storage and which of those
    /// have their commit (C) bit set (§5.1). `None` when the engine keeps
    /// no per-register residency bookkeeping (banked/software/prefetch
    /// engines hold full contexts).
    fn live_bits(&self, tid: u8) -> Option<(u32, u32)> {
        let _ = tid;
        None
    }

    /// `(occupied, capacity)` of the engine's register storage, for
    /// watchdog dumps and fault-site selection.
    fn occupancy(&self) -> (usize, usize) {
        (0, 0)
    }

    /// One-line summary of engine-internal state for livelock dumps.
    fn debug_state(&self) -> String {
        let (used, cap) = self.occupancy();
        format!("occupancy {used}/{cap}")
    }

    /// Writes all live register state back to the backing region so the
    /// final memory image can be compared against the golden interpreter.
    fn drain(&mut self, region: RegRegion, mem: &mut FlatMem);

    /// Deep-copies the engine, including all in-flight machinery, for
    /// architectural checkpointing (the runner snapshots the whole machine
    /// and restores it on a detected-uncorrectable fault).
    fn clone_box(&self) -> Box<dyn ContextEngine>;
}

impl Clone for Box<dyn ContextEngine> {
    fn clone(&self) -> Box<dyn ContextEngine> {
        self.clone_box()
    }
}
