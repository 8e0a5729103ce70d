//! The traced step loop: a ledger-side copy of the fault-free path of
//! `virec_sim::runner::try_run_single` (no faults, checkpoints, RAS or
//! gate), built only from public API, with every call into a layer
//! bracketed by a tick read. The ledger replays each run through it and
//! aborts unless the replay reproduces the runner's cycles, `CoreStats`
//! and `arch_digest` exactly, so the spans always time the same program
//! the untraced phase ran.

use crate::trace::{ticks, Acc, Trace};
use virec_core::{Core, CoreConfig, CoreStats, OracleSchedule};
use virec_isa::FlatMem;
use virec_mem::{Fabric, FabricConfig, FabricStats};
use virec_sim::offload::offload;
use virec_sim::runner::{arch_digest, try_verify_against_golden};
use virec_sim::{Watchdog, DEFAULT_LIVELOCK_CYCLES};
use virec_workloads::{layout, Workload};

/// Per-layer spans of one replayed run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    pub run: Acc,
    pub image: Acc,
    pub fabric_tick: Acc,
    pub core_tick: Acc,
    pub next_event: Acc,
    pub credit: Acc,
    pub digest: Acc,
    pub verify: Acc,
}

impl Spans {
    /// Folds these spans into `trace` under (`workload`, `op`).
    pub fn record(&self, trace: &mut Trace, key: (&str, &str)) {
        let run = Some("run");
        trace.add(key, "run", "loop", None, self.run);
        trace.add(key, "image.build", "image", run, self.image);
        trace.add(key, "fabric.tick", "fabric", run, self.fabric_tick);
        trace.add(key, "core.tick", "core", run, self.core_tick);
        trace.add(key, "loop.next_event", "loop", run, self.next_event);
        trace.add(key, "loop.credit", "loop", run, self.credit);
        trace.add(key, "golden.digest", "golden", run, self.digest);
        trace.add(key, "golden.verify", "golden", run, self.verify);
    }
}

/// Outcome of one replayed run.
#[derive(Clone, Debug)]
pub struct Replay {
    pub cycles: u64,
    pub stats: CoreStats,
    pub arch_digest: u64,
    pub fabric: FabricStats,
    /// Steps where `Core::next_event` answered `now + 1` (the fast path).
    pub fastpath: u64,
    pub spans: Spans,
}

impl Replay {
    /// Host steps (loop iterations) the replay took.
    pub fn steps(&self) -> u64 {
        self.spans.core_tick.count
    }
}

/// Replays `w` on `cfg` over `fabric_cfg`, mirroring the runner's
/// fault-free event-driven loop call for call.
pub fn replay(cfg: CoreConfig, w: &Workload, fabric_cfg: FabricConfig) -> Result<Replay, String> {
    let mut sp = Spans::default();
    let run_start = ticks();

    let t = ticks();
    let mut mem = FlatMem::new(
        0,
        layout::mem_size(1).max((w.layout.data_base + w.layout.data_size) as usize),
    );
    let region = offload(&mut mem, w, cfg.nthreads);
    let mut core = Core::with_oracle(
        cfg,
        w.program().clone(),
        region,
        w.layout.code_base,
        (0, 1),
        OracleSchedule::default(),
    );
    let mut fabric = Fabric::new(fabric_cfg);
    let mut watchdog = Watchdog::new(DEFAULT_LIVELOCK_CYCLES);
    sp.image.add(t, ticks());

    let mut fastpath = 0u64;
    let mut now = 0u64;
    while !core.done() {
        let t0 = ticks();
        fabric.tick(now);
        let t1 = ticks();
        core.tick(now, &mut fabric, &mut mem);
        let t2 = ticks();
        sp.fabric_tick.add(t0, t1);
        sp.core_tick.add(t1, t2);

        if let Some(detail) = core.structural_fault() {
            return Err(format!("structural hazard at cycle {now}: {detail}"));
        }
        if let Some(detail) = fabric.noc_fault() {
            return Err(format!("noc fault at cycle {now}: {detail}"));
        }
        now += 1;
        if let Err(stalled) = watchdog.observe(now, core.stats().instructions) {
            return Err(format!("livelock: {stalled} cycles without a commit"));
        }
        if now >= cfg.max_cycles {
            return Err(format!("cycle budget {} exceeded", cfg.max_cycles));
        }

        if !core.done() {
            let ticked = now - 1;
            let t3 = ticks();
            let core_next = core.next_event(ticked, &fabric);
            if core_next == Some(now) {
                sp.next_event.add(t3, ticks());
                fastpath += 1;
                continue;
            }
            let mut wake = [core_next, fabric.next_event(ticked)]
                .into_iter()
                .flatten()
                .min()
                .unwrap_or(u64::MAX);
            if let Some(deadline) = watchdog.deadline() {
                wake = wake.min(deadline - 1);
            }
            wake = wake.min(cfg.max_cycles - 1);
            let t4 = ticks();
            sp.next_event.add(t3, t4);
            if wake > now {
                core.credit_skipped(wake - now);
                sp.credit.add(t4, ticks());
                now = wake;
            }
        }
    }
    core.finalize_stats();
    core.drain(&mut mem);

    let t = ticks();
    let digest = arch_digest(&core, &mem, w, cfg.nthreads);
    let t_mid = ticks();
    let verified = try_verify_against_golden(w, cfg.nthreads, &core, &mem, now);
    let t_end = ticks();
    sp.digest.add(t, t_mid);
    sp.verify.add(t_mid, t_end);
    sp.run.add(run_start, t_end);
    verified.map_err(|e| format!("golden verification: {e}"))?;

    Ok(Replay {
        cycles: now,
        stats: *core.stats(),
        arch_digest: digest,
        fabric: *fabric.stats(),
        fastpath,
        spans: sp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{far_fabric, virec};
    use virec_bench::harness::EngineSel;
    use virec_sim::runner::{try_run_single, RunOptions};
    use virec_workloads::{kernels, Layout};

    /// The traced loop must reproduce the runner exactly on every engine,
    /// on read-heavy (skip path), store-heavy (the no-skip path) and
    /// compute-bound kernels, near and far. If the runner's loop changes
    /// and this copy does not, the ledger would time a different program.
    #[test]
    fn replay_reproduces_try_run_single() {
        let ctors = [
            kernels::spatter::gather,
            kernels::spatter::scatter,
            kernels::stream::reduction,
        ];
        for ctor in ctors {
            let w = ctor(256, Layout::for_core(0));
            let cfgs = [
                ("banked", EngineSel::Banked.cfg(&w, 8)),
                ("virec", virec()),
                ("software", EngineSel::Software.cfg(&w, 8)),
                ("pf_full", EngineSel::PrefetchFull.cfg(&w, 8)),
            ];
            for fabric in [FabricConfig::default(), far_fabric()] {
                for (engine, cfg) in cfgs {
                    let opts = RunOptions {
                        fabric,
                        ..RunOptions::default()
                    };
                    let want = try_run_single(cfg, &w, &opts).expect("runner succeeds");
                    let got = replay(cfg, &w, fabric).expect("replay succeeds");
                    let at = format!("{} on {engine}, xbar {}", w.name, fabric.xbar_latency);
                    assert_eq!(got.cycles, want.cycles, "cycles: {at}");
                    assert_eq!(got.stats, want.stats, "stats: {at}");
                    assert_eq!(got.arch_digest, want.arch_digest, "digest: {at}");
                    assert_eq!(got.fabric, want.fabric, "fabric: {at}");
                    assert!(got.steps() > 0 && got.steps() <= got.cycles, "{at}");
                }
            }
        }
    }
}
