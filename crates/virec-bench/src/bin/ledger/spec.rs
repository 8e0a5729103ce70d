//! The six workloads: what each one runs, at what size, and why.

use std::sync::Arc;
use virec_bench::harness::{EngineSel, SuiteSweep};
use virec_core::CoreConfig;
use virec_isa::FlatMem;
use virec_mem::{FabricConfig, FabricTopology};
use virec_sim::experiment::{ExperimentSpec, RetryPolicy};
use virec_sim::runner::golden_arch_digest;
use virec_sim::serve::default_mix;
use virec_sim::{ProtectionConfig, RasConfig, ServeConfig, ServeFaultPlan, TaskService};
use virec_workloads::{data, kernels, Layout, Workload};

/// The ledger's ViReC engine: 8 threads sharing a 40-entry register file.
pub fn virec() -> CoreConfig {
    CoreConfig::virec(8, 40)
}

/// The banked baseline at the same thread count.
pub fn banked() -> CoreConfig {
    CoreConfig::banked(8)
}

/// Far memory: a host core reaching across a CXL-class 400-cycle hop.
pub fn far_fabric() -> FabricConfig {
    FabricConfig {
        xbar_latency: 400,
        ..FabricConfig::default()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    GatherFar,
    ScatterFar,
    ComputeNear,
    SuiteSweep,
    ServeMesh,
    FaultCampaign,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::GatherFar,
        Kind::ScatterFar,
        Kind::ComputeNear,
        Kind::SuiteSweep,
        Kind::ServeMesh,
        Kind::FaultCampaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::GatherFar => "gather_far",
            Kind::ScatterFar => "scatter_far",
            Kind::ComputeNear => "compute_near",
            Kind::SuiteSweep => "suite_sweep",
            Kind::ServeMesh => "serve_mesh",
            Kind::FaultCampaign => "fault_campaign",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Full-size spec of this workload.
    pub fn spec(self) -> Spec {
        let (n, warmup, iterations, count) = match self {
            Kind::GatherFar => (65536, 1, 12, 0),
            Kind::ScatterFar => (8192, 1, 10, 0),
            Kind::ComputeNear => (65536, 1, 10, 0),
            Kind::SuiteSweep => (1024, 1, 5, 0),
            Kind::ServeMesh => (512, 0, 2, 200),
            // The campaign warms up on one clean run instead of a whole
            // iteration.
            Kind::FaultCampaign => (2048, 0, 2, 64),
        };
        Spec {
            kind: self,
            n,
            warmup,
            iterations,
            count,
        }
    }
}

/// Sizes of one workload. The command has no knob for these; the smoke
/// test shrinks them.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub kind: Kind,
    /// Problem size of each run, in elements.
    pub n: u64,
    /// Untimed iterations before the timed ones.
    pub warmup: usize,
    /// Timed iterations when the command is not given `--seconds`.
    pub iterations: usize,
    /// Serve tasks or campaign injections per iteration.
    pub count: usize,
}

/// One single-core run of a job list.
pub struct Job {
    /// `kernel/engine`, the op name in the trace.
    pub label: String,
    pub kernel: &'static str,
    pub engine: String,
    pub workload: Workload,
    pub cfg: CoreConfig,
    pub fabric: FabricConfig,
    /// The `arch_digest` a correct run ends with.
    pub golden: u64,
}

impl Job {
    pub fn new(
        workload: Workload,
        engine: &str,
        cfg: CoreConfig,
        fabric: FabricConfig,
        golden: u64,
    ) -> Job {
        Job {
            label: format!("{}/{engine}", workload.name),
            kernel: workload.name,
            engine: engine.to_string(),
            workload,
            cfg,
            fabric,
            golden,
        }
    }
}

/// The `arch_digest` a correct run of `w` on `nthreads` threads ends with,
/// from the golden interpreter: the benchmark's expected output.
pub fn golden(w: &Workload, nthreads: usize) -> u64 {
    golden_arch_digest(w, nthreads, 1 << 40).expect("built-in kernels halt")
}

/// Everything a workload builds before its first timed op.
pub enum Setup {
    /// A closed loop over a fixed job list (gather_far, scatter_far,
    /// compute_near).
    Runs(Vec<Job>),
    /// The figure-regeneration sweep, declared and lint-preflighted, with
    /// the golden digest of each cell in declaration order.
    Sweep(SuiteSweep, ExperimentSpec, Vec<u64>),
    /// The serving configuration, the service the first iteration runs
    /// (later iterations build a fresh one, untimed), and the golden
    /// digest of each kernel of the mix.
    Serve(ServeConfig, Option<Box<TaskService>>, Vec<u64>),
    /// The attacked job and the campaign's base seed.
    Campaign(Job, u64),
}

/// `gather`'s program over an index stream salted by `seed`: the same
/// kernel and data values as `kernels::spatter::gather`, with
/// `data::uniform_indices(n, n, seed)` as its indices.
pub fn seeded_gather(n: u64, seed: u64) -> Workload {
    let base = kernels::spatter::gather(n, Layout::for_core(0));
    let (layout, program) = (base.layout, base.program().clone());
    let values = Arc::new(data::values(n as usize, 1));
    let indices = Arc::new(data::uniform_indices(n, n as usize, seed));
    let data_base = layout.data_base;
    Workload::from_parts(
        "gather",
        n,
        layout,
        program,
        Box::new(move |mem: &mut FlatMem| {
            for (i, v) in values.iter().enumerate() {
                mem.write_u64(data_base + i as u64 * 8, *v);
            }
            for (i, ix) in indices.iter().enumerate() {
                mem.write_u64(data_base + (n + i as u64) * 8, *ix);
            }
        }),
        Box::new(move |tid, nthreads| base.thread_ctx(tid, nthreads)),
    )
}

/// The sweep `virec-cli sweep` and figure regeneration run.
pub fn suite_sweep(n: u64) -> SuiteSweep {
    SuiteSweep {
        name: "ledger_sweep".into(),
        workloads: virec_workloads::suite_names()
            .into_iter()
            .map(String::from)
            .collect(),
        engines: vec![
            EngineSel::Banked,
            EngineSel::Virec(80),
            EngineSel::Software,
            EngineSel::PrefetchFull,
        ],
        n,
        threads: 8,
        retry: RetryPolicy::default(),
    }
}

/// The sweep's cells as single-core jobs in declaration order, labelled
/// with their cell keys. `golden` is per cell, as in [`Setup::Sweep`].
pub fn sweep_jobs(sweep: &SuiteSweep, golden: &[u64]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for wname in &sweep.workloads {
        for engine in &sweep.engines {
            let w = virec_workloads::by_name(wname, sweep.n, Layout::for_core(0))
                .expect("sweep names come from the suite");
            let cfg = engine.cfg(&w, sweep.threads);
            let g = golden[jobs.len()];
            let mut job = Job::new(w, &engine.label(), cfg, FabricConfig::default(), g);
            job.label = sweep.key(wname, engine);
            jobs.push(job);
        }
    }
    jobs
}

/// Four ViReC cores on a 2x2 mesh under SEC-DED and RAS, with transient
/// task upsets and link wear, arriving just below the shedding knee.
pub fn serve_config(spec: &Spec, seed: u64) -> ServeConfig {
    ServeConfig {
        fabric: FabricConfig {
            topology: FabricTopology::Mesh { cols: 2, rows: 2 },
            ..FabricConfig::default()
        },
        mean_interarrival: 2600,
        protection: ProtectionConfig::secded(),
        faults: ServeFaultPlan {
            transient: 16,
            ..ServeFaultPlan::links(8)
        },
        ras: Some(RasConfig::default()),
        mix: default_mix(spec.n),
        ..ServeConfig::streaming(4, virec(), spec.count, seed)
    }
}

/// Builds a workload's inputs, its expected outputs, and everything
/// constructed before its first timed op.
pub fn setup(spec: &Spec, seed: u64) -> Setup {
    let n = spec.n;
    let pair = |w: &dyn Fn() -> Workload, fabric: FabricConfig| {
        let (a, b) = (w(), w());
        let g = golden(&a, virec().nthreads);
        [
            Job::new(a, "virec", virec(), fabric, g),
            Job::new(b, "banked", banked(), fabric, g),
        ]
    };
    let layout = Layout::for_core(0);
    match spec.kind {
        Kind::GatherFar => Setup::Runs(pair(&|| seeded_gather(n, seed), far_fabric()).into()),
        Kind::ScatterFar => {
            Setup::Runs(pair(&|| kernels::spatter::scatter(n, layout), far_fabric()).into())
        }
        Kind::ComputeNear => {
            let near = FabricConfig::default();
            let mut jobs: Vec<Job> = pair(&|| kernels::stream::reduction(n, layout), near).into();
            jobs.extend(pair(&|| kernels::stream::stream_triad(n, layout), near));
            Setup::Runs(jobs)
        }
        Kind::SuiteSweep => {
            let sweep = suite_sweep(n);
            let spec = sweep.spec();
            let mut cells = Vec::new();
            for wname in &sweep.workloads {
                let w = virec_workloads::by_name(wname, n, layout).expect("a suite kernel");
                let g = golden(&w, sweep.threads);
                cells.extend(sweep.engines.iter().map(|_| g));
            }
            Setup::Sweep(sweep, spec, cells)
        }
        Kind::ServeMesh => {
            let cfg = serve_config(spec, seed);
            let mix = cfg
                .mix
                .iter()
                .map(|&(ctor, n)| golden(&ctor(n, layout), cfg.core.nthreads))
                .collect();
            let service = TaskService::new(cfg.clone()).expect("the serve config is valid");
            Setup::Serve(cfg, Some(Box::new(service)), mix)
        }
        Kind::FaultCampaign => {
            let w = kernels::spatter::gather(n, layout);
            let g = golden(&w, virec().nthreads);
            // Injection i uses base + i, so spacing the bases `count`
            // apart gives consecutive ledger seeds disjoint injections.
            Setup::Campaign(
                Job::new(w, "virec", virec(), FabricConfig::default(), g),
                seed * spec.count as u64,
            )
        }
    }
}
