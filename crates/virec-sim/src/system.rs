//! Multi-core near-memory systems (Figure 11): several processors share the
//! crossbar and DRAM, so memory latency observed by each core grows with
//! system activity. A [`System`] checks its shape and holds its per-core
//! configurations and workloads; running it is a run of the runner
//! ([`crate::runner`]) over one slot per core.

use crate::cancel::RunGate;
use crate::error::{RunDiagnostics, SimError};
use crate::runner::{RunOptions, Runner};
use virec_core::{CoreConfig, CoreStats};
use virec_mem::{FabricConfig, FabricStats};
use virec_workloads::{Layout, Workload, WorkloadCtor};

/// Configuration of a multi-core system. Every core runs the same core
/// configuration and its own instance of the same workload on a private
/// slice of memory (the paper's per-processor offload regions).
///
/// The system's cycle budget is not configured here: it is derived as the
/// maximum of the per-core `CoreConfig::max_cycles` values, so a single
/// knob governs both single-core and system runs.
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Number of near-memory processors on the crossbar.
    pub ncores: usize,
    /// Per-core configuration.
    pub core: CoreConfig,
    /// Shared fabric configuration.
    pub fabric: FabricConfig,
}

/// Why a [`System`] (or the serve layer built on top of it) could not be
/// constructed. Surfaced as [`SimError::Config`] through `From`, so
/// callers working at the `SimError` level get a typed `config` kind
/// instead of a construction panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemConfigError {
    /// `ncores` was zero — a system needs at least one core.
    ZeroCores,
    /// The workload-spec slice length disagrees with `ncores`.
    WorkloadArity {
        /// `cfg.ncores`.
        expected: usize,
        /// `specs.len()`.
        got: usize,
    },
    /// The per-core-config slice length disagrees with `ncores`.
    CoreArity {
        /// `cfg.ncores`.
        expected: usize,
        /// `core_cfgs.len()`.
        got: usize,
    },
}

impl std::fmt::Display for SystemConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemConfigError::ZeroCores => {
                write!(f, "a system needs at least one core (ncores == 0)")
            }
            SystemConfigError::WorkloadArity { expected, got } => {
                write!(
                    f,
                    "one workload spec per core: expected {expected}, got {got}"
                )
            }
            SystemConfigError::CoreArity { expected, got } => {
                write!(
                    f,
                    "one core config per core: expected {expected}, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for SystemConfigError {}

impl From<SystemConfigError> for SimError {
    fn from(e: SystemConfigError) -> SimError {
        SimError::Config {
            detail: e.to_string(),
            diag: RunDiagnostics::placeholder("system-config"),
        }
    }
}

/// Result of a system run.
#[derive(Clone, Debug)]
pub struct SystemResult {
    /// Cycles until *every* core finished.
    pub cycles: u64,
    /// Per-core statistics.
    pub per_core: Vec<CoreStats>,
    /// Shared crossbar/DRAM statistics (for observed-latency analysis).
    pub fabric: FabricStats,
}

impl SystemResult {
    /// Mean cycles a memory request queued in the fabric before service —
    /// the "observed latency" increase of Figure 11.
    pub fn mean_queue_delay(&self) -> f64 {
        let reqs = self.fabric.reads + self.fabric.writes;
        if reqs == 0 {
            0.0
        } else {
            self.fabric.queue_cycles as f64 / reqs as f64
        }
    }

    /// Aggregate instructions per cycle across the whole system.
    pub fn total_ipc(&self) -> f64 {
        let insts: u64 = self.per_core.iter().map(|s| s.instructions).sum();
        insts as f64 / self.cycles as f64
    }

    /// Mean per-core IPC (0.0 for an empty system, not a division by
    /// zero).
    pub fn mean_core_ipc(&self) -> f64 {
        if self.per_core.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .per_core
            .iter()
            .map(|s| s.instructions as f64 / self.cycles as f64)
            .sum();
        sum / self.per_core.len() as f64
    }
}

/// A system of near-memory cores sharing one fabric. Running it is a run
/// of the runner over one slot per core, held to one watchdog over the
/// summed commits and the most generous per-core `max_cycles` as its
/// budget, since the slowest core bounds completion under shared-fabric
/// contention.
pub struct System {
    cores: Vec<CoreConfig>,
    workloads: Vec<Workload>,
    /// The default run options over the system's fabric, plus
    /// [`System::set_dense_loop`]'s choice.
    opts: RunOptions,
}

impl System {
    /// Builds a system where core `i` runs `ctor(n, Layout::for_core(i))`.
    ///
    /// # Panics
    /// Panics on an invalid shape; see [`System::try_new`].
    pub fn new(cfg: SystemConfig, ctor: WorkloadCtor, n: u64) -> System {
        Self::try_new(cfg, ctor, n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`System::new`]: rejects `ncores == 0` with a
    /// typed [`SystemConfigError`] instead of building a degenerate
    /// system.
    pub fn try_new(
        cfg: SystemConfig,
        ctor: WorkloadCtor,
        n: u64,
    ) -> Result<System, SystemConfigError> {
        let specs = vec![(ctor, n); cfg.ncores];
        Self::try_new_heterogeneous(cfg, &vec![cfg.core; cfg.ncores], &specs)
    }

    /// Fully heterogeneous construction: per-core configurations *and*
    /// per-core workloads — e.g. banked and ViReC processors contending on
    /// the same crossbar, each offloaded a different kernel.
    ///
    /// # Panics
    /// Panics if the slice lengths disagree with `cfg.ncores`; see
    /// [`System::try_new_heterogeneous`].
    pub fn new_heterogeneous(
        cfg: SystemConfig,
        core_cfgs: &[CoreConfig],
        specs: &[(WorkloadCtor, u64)],
    ) -> System {
        Self::try_new_heterogeneous(cfg, core_cfgs, specs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`System::new_heterogeneous`]: every invalid
    /// shape (zero cores, mismatched spec or core-config arity) is a
    /// typed [`SystemConfigError`] instead of an assertion failure.
    pub fn try_new_heterogeneous(
        cfg: SystemConfig,
        core_cfgs: &[CoreConfig],
        specs: &[(WorkloadCtor, u64)],
    ) -> Result<System, SystemConfigError> {
        if cfg.ncores == 0 {
            return Err(SystemConfigError::ZeroCores);
        }
        if specs.len() != cfg.ncores {
            return Err(SystemConfigError::WorkloadArity {
                expected: cfg.ncores,
                got: specs.len(),
            });
        }
        if core_cfgs.len() != cfg.ncores {
            return Err(SystemConfigError::CoreArity {
                expected: cfg.ncores,
                got: core_cfgs.len(),
            });
        }
        let workloads = specs
            .iter()
            .enumerate()
            .map(|(c, &(ctor, n))| ctor(n, Layout::for_core(c)))
            .collect();
        let opts = RunOptions {
            fabric: cfg.fabric,
            ..RunOptions::default()
        };
        Ok(System {
            cores: core_cfgs.to_vec(),
            workloads,
            opts,
        })
    }

    /// Forces the dense per-cycle loop for this system (normally the run
    /// loop fast-forwards over provably idle spans; `VIREC_NO_SKIP=1` has
    /// the same effect globally). Both loops produce byte-identical
    /// results, so this is a debugging/differential-testing knob.
    pub fn set_dense_loop(&mut self, dense: bool) {
        self.opts.dense_loop = dense;
    }

    /// Fallible system run: executes to completion and verifies every core
    /// against the golden interpreter, returning a typed [`SimError`] on
    /// budget exhaustion, livelock, or divergence.
    pub fn try_run(&mut self) -> Result<SystemResult, SimError> {
        self.try_run_gated(&RunGate::unbounded())
    }

    /// [`System::try_run`] under a cancellation gate: the step loop polls
    /// `gate` and degrades to a typed [`SimError::Deadline`] when the
    /// per-cell wall-clock deadline expires or cancellation is requested.
    pub fn try_run_gated(&mut self, gate: &RunGate) -> Result<SystemResult, SimError> {
        let opts = RunOptions {
            gate: gate.clone(),
            ..self.opts.clone()
        };
        let m = Runner::run(&self.cores, &self.workloads, &opts, false)?.m;
        Ok(SystemResult {
            cycles: m.now,
            per_core: m.slots.iter().map(|c| *c.stats()).collect(),
            fabric: *m.fabric.stats(),
        })
    }

    /// Runs the system to completion and verifies every core against the
    /// golden interpreter.
    ///
    /// # Panics
    /// Panics with the [`SimError`] display on any failure; use
    /// [`System::try_run`] to handle failures structurally.
    pub fn run(&mut self) -> SystemResult {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virec_workloads::kernels;

    fn sys_cfg(ncores: usize, core: CoreConfig) -> SystemConfig {
        SystemConfig {
            ncores,
            core,
            fabric: FabricConfig::default(),
        }
    }

    #[test]
    fn two_core_system_completes_and_verifies() {
        let cfg = sys_cfg(2, CoreConfig::virec(4, 32));
        let mut sys = System::new(cfg, kernels::spatter::gather, 256);
        let r = sys.run();
        assert_eq!(r.per_core.len(), 2);
        assert!(r.cycles > 0);
    }

    #[test]
    fn mixed_workload_system_verifies() {
        let cfg = sys_cfg(3, CoreConfig::virec(4, 32));
        let specs: Vec<(virec_workloads::WorkloadCtor, u64)> = vec![
            (kernels::spatter::gather, 256),
            (kernels::stream::stream_triad, 256),
            (kernels::sparse::spmv, 64),
        ];
        let mut sys = System::new_heterogeneous(cfg, &[cfg.core; 3], &specs);
        let r = sys.run();
        assert_eq!(r.per_core.len(), 3);
        // All three kernels committed work.
        for s in &r.per_core {
            assert!(s.instructions > 100);
        }
    }

    #[test]
    #[should_panic(expected = "one workload spec per core")]
    fn mixed_arity_checked() {
        let cfg = sys_cfg(2, CoreConfig::banked(2));
        let specs: Vec<(virec_workloads::WorkloadCtor, u64)> = vec![(kernels::spatter::gather, 64)];
        let _ = System::new_heterogeneous(cfg, &[cfg.core; 2], &specs);
    }

    #[test]
    fn mixed_arity_is_a_typed_error() {
        let cfg = sys_cfg(2, CoreConfig::banked(2));
        let specs: Vec<(virec_workloads::WorkloadCtor, u64)> = vec![(kernels::spatter::gather, 64)];
        let err = System::try_new_heterogeneous(cfg, &[cfg.core; 2], &specs)
            .err()
            .expect("must fail");
        assert_eq!(
            err,
            SystemConfigError::WorkloadArity {
                expected: 2,
                got: 1
            }
        );
        let sim: SimError = err.into();
        assert_eq!(sim.kind(), "config");
        assert!(sim.to_string().contains("one workload spec per core"));
    }

    #[test]
    fn core_config_arity_is_a_typed_error() {
        let cfg = sys_cfg(2, CoreConfig::banked(2));
        let specs: Vec<(virec_workloads::WorkloadCtor, u64)> = vec![
            (kernels::spatter::gather, 64),
            (kernels::spatter::gather, 64),
        ];
        let err = System::try_new_heterogeneous(cfg, &[CoreConfig::banked(2)], &specs)
            .err()
            .expect("must fail");
        assert_eq!(
            err,
            SystemConfigError::CoreArity {
                expected: 2,
                got: 1
            }
        );
        assert!(err.to_string().contains("one core config per core"));
    }

    #[test]
    fn zero_cores_is_a_typed_error() {
        let cfg = sys_cfg(0, CoreConfig::banked(2));
        let err = System::try_new(cfg, kernels::spatter::gather, 64)
            .err()
            .expect("must fail");
        assert_eq!(err, SystemConfigError::ZeroCores);
        let sim: SimError = err.into();
        assert_eq!(sim.kind(), "config");
    }

    #[test]
    fn mean_core_ipc_of_an_empty_result_is_zero() {
        let r = SystemResult {
            cycles: 100,
            per_core: Vec::new(),
            fabric: FabricStats::default(),
        };
        assert_eq!(r.mean_core_ipc(), 0.0);
    }

    #[test]
    fn try_new_builds_a_working_system() {
        let cfg = sys_cfg(2, CoreConfig::banked(2));
        let mut sys = System::try_new(cfg, kernels::spatter::gather, 64).expect("valid shape");
        let r = sys.try_run().expect("runs");
        assert_eq!(r.per_core.len(), 2);
    }

    #[test]
    fn heterogeneous_engines_share_the_fabric() {
        // A banked core and a ViReC core contend for the same DRAM; both
        // must verify, and both make progress.
        let cfg = sys_cfg(2, CoreConfig::banked(4));
        let cores = [CoreConfig::banked(4), CoreConfig::virec(8, 52)];
        let specs: Vec<(virec_workloads::WorkloadCtor, u64)> = vec![
            (kernels::spatter::gather, 256),
            (kernels::spatter::gather, 256),
        ];
        let mut sys = System::new_heterogeneous(cfg, &cores, &specs);
        let r = sys.run();
        assert!(r.per_core[0].instructions > 1000);
        assert!(r.per_core[1].instructions > 1000);
        // The ViReC core ran 8 threads, the banked core 4.
        assert!(r.per_core[1].context_switches > r.per_core[0].context_switches / 4);
    }

    #[test]
    fn budget_derives_from_core_configs_and_is_typed() {
        let mut core = CoreConfig::banked(4);
        core.max_cycles = 3_000; // far too small for 512 elements
        let cfg = sys_cfg(2, core);
        let mut sys = System::new(cfg, kernels::spatter::gather, 512);
        let err = sys.try_run().unwrap_err();
        match &err {
            SimError::CycleBudgetExceeded { budget, diag } => {
                assert_eq!(*budget, 3_000);
                assert!(!diag.workload.is_empty());
            }
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn heterogeneous_budget_takes_the_max() {
        let (mut tiny, mut small) = (CoreConfig::banked(2), CoreConfig::banked(2));
        tiny.max_cycles = 100;
        small.max_cycles = 200;
        let big = CoreConfig::virec(4, 32); // preset budget 200M
        let cfg = sys_cfg(2, small);
        let specs = [(kernels::spatter::gather as WorkloadCtor, 64); 2];
        // Two budgets too small to finish in: the run is held to the larger.
        let mut sys = System::new_heterogeneous(cfg, &[tiny, small], &specs);
        let err = sys.try_run().expect_err("both budgets are too small");
        assert!(
            matches!(err, SimError::CycleBudgetExceeded { budget: 200, .. }),
            "{err}"
        );
        // The generous budget lets both cores finish despite `small`'s cap.
        let mut sys = System::new_heterogeneous(cfg, &[small, big], &specs);
        let r = sys.try_run().expect("system completes under max budget");
        assert!(r.cycles > 0);
    }

    #[test]
    fn contention_slows_cores_down() {
        // Per-core IPC must drop as more cores share the fabric.
        let run = |ncores: usize| {
            let cfg = sys_cfg(ncores, CoreConfig::banked(4));
            System::new(cfg, kernels::spatter::gather, 512).run()
        };
        let one = run(1);
        let four = run(4);
        let ipc1 = one.per_core[0].ipc();
        let ipc4 = four.per_core[0].ipc();
        assert!(
            ipc4 < ipc1,
            "core 0 IPC should drop under contention: {ipc4} vs {ipc1}"
        );
    }
}
