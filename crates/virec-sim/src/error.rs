//! Typed simulation errors.
//!
//! Every way a run can fail — budget exhaustion, livelock, golden-model
//! divergence, a wedged golden run, or a detected injected fault — is a
//! [`SimError`] variant carrying a [`RunDiagnostics`] snapshot of the core
//! at the moment of failure. `Display` renders a structured one-liner
//! suitable for logs and the CLI. Every run entry returns it in a
//! `Result`; none panics on a failed run.

use virec_core::{Core, CoreConfig, EngineKind, PolicyKind};
use virec_isa::Reg;

/// Snapshot of a core's identity and progress counters at failure time.
#[derive(Clone, Debug)]
pub struct RunDiagnostics {
    /// Workload name (e.g. `spatter_gather`).
    pub workload: String,
    /// Context engine the core was running.
    pub engine: EngineKind,
    /// Replacement policy (meaningful for ViReC-family engines).
    pub policy: PolicyKind,
    /// Hardware thread count.
    pub nthreads: usize,
    /// Cycle at which the failure was raised.
    pub cycles: u64,
    /// Instructions committed so far.
    pub instructions: u64,
    /// Context switches taken so far.
    pub context_switches: u64,
    /// Register-file misses so far (0 for engines that never miss).
    pub rf_misses: u64,
    /// Last committed PC per thread (`None` if the thread never committed).
    pub last_commit_pc: Vec<Option<u32>>,
}

impl RunDiagnostics {
    /// Captures the diagnostic snapshot from a live core (boxed: the
    /// snapshot rides inside `SimError`, which stays small on the Ok path).
    pub fn capture(workload: &str, core: &Core, cycles: u64) -> Box<RunDiagnostics> {
        let cfg: &CoreConfig = core.config();
        let stats = core.stats();
        Box::new(RunDiagnostics {
            workload: workload.to_string(),
            engine: cfg.engine,
            policy: cfg.policy,
            nthreads: cfg.nthreads,
            cycles,
            instructions: stats.instructions,
            context_switches: stats.context_switches,
            rf_misses: stats.rf_misses,
            last_commit_pc: core.last_commit_pcs().to_vec(),
        })
    }

    /// A placeholder snapshot for failures raised outside a live core —
    /// e.g. a custom experiment cell observing its cancellation gate. Only
    /// the workload label carries information; every counter is zero.
    pub fn placeholder(label: &str) -> Box<RunDiagnostics> {
        Box::new(RunDiagnostics {
            workload: label.to_string(),
            engine: EngineKind::ViReC,
            policy: PolicyKind::Lrc,
            nthreads: 0,
            cycles: 0,
            instructions: 0,
            context_switches: 0,
            rf_misses: 0,
            last_commit_pc: Vec::new(),
        })
    }

    /// Renders the snapshot as a compact `key=value` record.
    pub fn summary(&self) -> String {
        let pcs: Vec<String> = self
            .last_commit_pc
            .iter()
            .map(|pc| match pc {
                Some(pc) => format!("{pc:#x}"),
                None => "-".to_string(),
            })
            .collect();
        format!(
            "workload={} engine={:?} policy={} nthreads={} cycles={} instructions={} \
             ctx_switches={} rf_misses={} last_commit_pc=[{}]",
            self.workload,
            self.engine,
            self.policy.label(),
            self.nthreads,
            self.cycles,
            self.instructions,
            self.context_switches,
            self.rf_misses,
            pcs.join(",")
        )
    }
}

/// Where the architectural state diverged from the golden interpreter.
#[derive(Clone, Debug)]
pub enum DivergenceSite {
    /// A register's final value disagrees.
    Register {
        /// Thread whose register diverged.
        thread: usize,
        /// The diverging register.
        reg: Reg,
        /// Value the timing core produced.
        got: u64,
        /// Value the golden interpreter produced.
        want: u64,
    },
    /// A byte range of the data segment disagrees.
    DataRange {
        /// Inclusive start of the compared window.
        lo: usize,
        /// Exclusive end of the compared window.
        hi: usize,
        /// Address of the first mismatching byte.
        first_mismatch: usize,
    },
}

impl std::fmt::Display for DivergenceSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivergenceSite::Register {
                thread,
                reg,
                got,
                want,
            } => write!(
                f,
                "thread {thread} register {reg} diverged (got {got:#x}, want {want:#x})"
            ),
            DivergenceSite::DataRange {
                lo,
                hi,
                first_mismatch,
            } => write!(
                f,
                "data segment diverged (window {lo:#x}..{hi:#x}, first mismatch at {first_mismatch:#x})"
            ),
        }
    }
}

/// Everything that can go wrong during a simulation run.
#[derive(Clone, Debug)]
pub enum SimError {
    /// A run or service was asked to build with an invalid shape (no
    /// slots or cores, a multi-slot run with options that act on slot 0
    /// only, an empty task mix) — rejected before any core exists, so the
    /// diagnostics are a placeholder.
    Config {
        /// What was wrong with the configuration.
        detail: String,
        /// Placeholder snapshot (no core was live yet).
        diag: Box<RunDiagnostics>,
    },
    /// The run consumed its whole cycle budget while still making progress.
    CycleBudgetExceeded {
        /// The configured budget (`CoreConfig::max_cycles`).
        budget: u64,
        /// Core snapshot at the abort cycle.
        diag: Box<RunDiagnostics>,
    },
    /// No instruction committed for a long window: the machine is wedged,
    /// not slow.
    Livelock {
        /// Cycles since the last commit when the watchdog fired.
        stalled_cycles: u64,
        /// Multi-line pipeline/engine/MSHR state dump for postmortems.
        dump: String,
        /// Core snapshot at the abort cycle.
        diag: Box<RunDiagnostics>,
    },
    /// The finished run's architectural state disagrees with the golden
    /// interpreter.
    GoldenDivergence {
        /// First divergence found.
        site: DivergenceSite,
        /// Core snapshot after the run.
        diag: Box<RunDiagnostics>,
    },
    /// The golden interpreter itself failed to halt within its step cap —
    /// the reference model, not the timing model, is stuck.
    GoldenRunStuck {
        /// Thread whose golden run did not halt.
        thread: usize,
        /// Step cap the interpreter was given.
        step_cap: u64,
        /// Core snapshot after the run.
        diag: Box<RunDiagnostics>,
    },
    /// The run's wall-clock gate tripped: either its per-cell deadline
    /// expired or a cooperative cancellation (SIGINT abort) was requested.
    Deadline {
        /// Wall-clock milliseconds the run had consumed when it tripped.
        elapsed_ms: u64,
        /// The configured deadline in milliseconds (0 when the trip came
        /// from an external cancellation with no deadline set).
        limit_ms: u64,
        /// Core snapshot at the abort cycle.
        diag: Box<RunDiagnostics>,
    },
    /// The modeled protection logic flagged a detected-but-uncorrectable
    /// error (double-bit under SEC-DED, parity mismatch) and no checkpoint
    /// was available to restore — the run must be re-executed from scratch.
    Uncorrectable {
        /// The corrupted site, in the stable kebab-case [`crate::fault::FaultSite`]
        /// spelling.
        site: String,
        /// Human-readable description of the detected corruption.
        detail: String,
        /// Core snapshot at the detection cycle.
        diag: Box<RunDiagnostics>,
    },
    /// The pipeline observed an internal structural hazard (e.g. a failed
    /// MSHR retire from a corrupted id) — a condition the hardware would
    /// raise a machine-check for, degraded to a typed error instead of a
    /// process abort.
    StructuralHazard {
        /// What the pipeline observed.
        detail: String,
        /// Core snapshot at the detection cycle.
        diag: Box<RunDiagnostics>,
    },
    /// An injected fault was caught: the underlying failure is wrapped so
    /// campaign drivers can separate detection from the detection mechanism.
    FaultDetected {
        /// Human-readable descriptions of the faults that were applied.
        faults: Vec<String>,
        /// The error the corrupted run surfaced.
        cause: Box<SimError>,
        /// Core snapshot from the failing run.
        diag: Box<RunDiagnostics>,
    },
}

impl SimError {
    /// Stable machine-readable kind tag (one token, for CSV/log fields).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Config { .. } => "config",
            SimError::CycleBudgetExceeded { .. } => "cycle_budget",
            SimError::Livelock { .. } => "livelock",
            SimError::GoldenDivergence { .. } => "golden_divergence",
            SimError::GoldenRunStuck { .. } => "golden_stuck",
            SimError::Deadline { .. } => "deadline",
            SimError::Uncorrectable { .. } => "uncorrectable",
            SimError::StructuralHazard { .. } => "structural_hazard",
            SimError::FaultDetected { .. } => "fault_detected",
        }
    }

    /// True when this failure came from an expired per-cell wall-clock
    /// deadline (as opposed to an external cancellation, which is a
    /// property of the interrupted process, not of the cell — resumable
    /// runs re-execute cancelled cells but replay expired ones).
    pub fn deadline_expired(&self) -> bool {
        match self.root_cause() {
            SimError::Deadline {
                elapsed_ms,
                limit_ms,
                ..
            } => *limit_ms > 0 && elapsed_ms >= limit_ms,
            _ => false,
        }
    }

    /// The diagnostic snapshot attached to this error.
    pub fn diagnostics(&self) -> &RunDiagnostics {
        match self {
            SimError::Config { diag, .. }
            | SimError::CycleBudgetExceeded { diag, .. }
            | SimError::Livelock { diag, .. }
            | SimError::GoldenDivergence { diag, .. }
            | SimError::GoldenRunStuck { diag, .. }
            | SimError::Deadline { diag, .. }
            | SimError::Uncorrectable { diag, .. }
            | SimError::StructuralHazard { diag, .. }
            | SimError::FaultDetected { diag, .. } => diag,
        }
    }

    /// Unwraps `FaultDetected` layers to the root failure.
    pub fn root_cause(&self) -> &SimError {
        match self {
            SimError::FaultDetected { cause, .. } => cause.root_cause(),
            other => other,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config { detail, diag } => {
                write!(f, "{}: invalid configuration — {}", diag.workload, detail)
            }
            SimError::CycleBudgetExceeded { budget, diag } => write!(
                f,
                "{}: exceeded {} cycles (engine {:?}, {} threads) [{}]",
                diag.workload,
                budget,
                diag.engine,
                diag.nthreads,
                diag.summary()
            ),
            SimError::Livelock {
                stalled_cycles,
                dump,
                diag,
            } => write!(
                f,
                "{}: livelock — no commit for {} cycles [{}]\n{}",
                diag.workload,
                stalled_cycles,
                diag.summary(),
                dump
            ),
            SimError::GoldenDivergence { site, diag } => {
                write!(f, "{}: {} [{}]", diag.workload, site, diag.summary())
            }
            SimError::GoldenRunStuck {
                thread,
                step_cap,
                diag,
            } => write!(
                f,
                "golden run of {} did not halt (thread {}, {} steps) [{}]",
                diag.workload,
                thread,
                step_cap,
                diag.summary()
            ),
            SimError::Deadline {
                elapsed_ms,
                limit_ms,
                diag,
            } => {
                if *limit_ms > 0 && elapsed_ms >= limit_ms {
                    write!(
                        f,
                        "{}: wall-clock deadline of {} ms expired after {} ms [{}]",
                        diag.workload,
                        limit_ms,
                        elapsed_ms,
                        diag.summary()
                    )
                } else {
                    write!(
                        f,
                        "{}: cancelled after {} ms [{}]",
                        diag.workload,
                        elapsed_ms,
                        diag.summary()
                    )
                }
            }
            SimError::Uncorrectable { site, detail, diag } => write!(
                f,
                "{}: uncorrectable error at {} ({}) [{}]",
                diag.workload,
                site,
                detail,
                diag.summary()
            ),
            SimError::StructuralHazard { detail, diag } => write!(
                f,
                "{}: structural hazard — {} [{}]",
                diag.workload,
                detail,
                diag.summary()
            ),
            SimError::FaultDetected {
                faults,
                cause,
                diag,
            } => write!(
                f,
                "{}: injected fault detected ({}) -> {}",
                diag.workload,
                faults.join("; "),
                cause
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::FaultDetected { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Box<RunDiagnostics> {
        Box::new(RunDiagnostics {
            workload: "test_wl".into(),
            engine: EngineKind::ViReC,
            policy: PolicyKind::Lrc,
            nthreads: 2,
            cycles: 1234,
            instructions: 99,
            context_switches: 3,
            rf_misses: 7,
            last_commit_pc: vec![Some(0x40), None],
        })
    }

    #[test]
    fn display_keeps_legacy_phrases() {
        let e = SimError::GoldenDivergence {
            site: DivergenceSite::Register {
                thread: 1,
                reg: Reg::new(4),
                got: 1,
                want: 2,
            },
            diag: diag(),
        };
        let s = e.to_string();
        assert!(s.contains("register"), "{s}");
        assert!(s.contains("diverged"), "{s}");

        let e = SimError::GoldenDivergence {
            site: DivergenceSite::DataRange {
                lo: 0,
                hi: 64,
                first_mismatch: 8,
            },
            diag: diag(),
        };
        assert!(e.to_string().contains("data segment diverged"));

        let e = SimError::GoldenRunStuck {
            thread: 0,
            step_cap: 100,
            diag: diag(),
        };
        assert!(e.to_string().contains("did not halt"));

        let e = SimError::CycleBudgetExceeded {
            budget: 500,
            diag: diag(),
        };
        assert!(e.to_string().contains("exceeded 500 cycles"));
    }

    #[test]
    fn kinds_and_root_cause() {
        let inner = SimError::Livelock {
            stalled_cycles: 10,
            dump: "t0 wedged".into(),
            diag: diag(),
        };
        let wrapped = SimError::FaultDetected {
            faults: vec!["tag-store[0] bit 3".into()],
            cause: Box::new(inner),
            diag: diag(),
        };
        assert_eq!(wrapped.kind(), "fault_detected");
        assert_eq!(wrapped.root_cause().kind(), "livelock");
        assert_eq!(wrapped.diagnostics().workload, "test_wl");
    }

    #[test]
    fn deadline_display_distinguishes_expiry_from_cancellation() {
        let expired = SimError::Deadline {
            elapsed_ms: 120,
            limit_ms: 100,
            diag: diag(),
        };
        assert!(expired.to_string().contains("deadline of 100 ms expired"));
        assert!(expired.deadline_expired());
        assert_eq!(expired.kind(), "deadline");

        let cancelled = SimError::Deadline {
            elapsed_ms: 7,
            limit_ms: 0,
            diag: diag(),
        };
        assert!(cancelled.to_string().contains("cancelled after 7 ms"));
        assert!(!cancelled.deadline_expired());

        let placeholder = RunDiagnostics::placeholder("cell/key");
        assert_eq!(placeholder.workload, "cell/key");
        assert_eq!(placeholder.cycles, 0);
    }

    #[test]
    fn summary_lists_per_thread_pcs() {
        let s = diag().summary();
        assert!(s.contains("last_commit_pc=[0x40,-]"), "{s}");
        assert!(s.contains("engine=ViReC"));
    }
}
