//! Replacement-policy shoot-out on a register-cache under pressure —
//! reproduces the §4 story: thread-aware policies (MRT-*) beat
//! scheduling-oblivious ones, and the commit bit (LRC) refines the choice
//! within a thread.
//!
//! ```sh
//! cargo run --release --example policy_comparison
//! ```

use virec::core::{CoreConfig, PolicyKind};
use virec::sim::report::{f3, pct, Table};
use virec::sim::runner::{try_run_single, RunOptions};
use virec::sim::SimError;
use virec::workloads::{kernels, Layout};

fn main() -> Result<(), SimError> {
    let n = 4096;
    let layout = Layout::for_core(0);
    let opts = RunOptions::default();

    for (wname, workload) in [
        ("gather", kernels::spatter::gather(n, layout)),
        ("meabo", kernels::meabo::meabo(n, layout)),
    ] {
        // 8 threads sharing 40% of the active context: high contention.
        let active = workload.active_context_size();
        let regs = ((8 * active) as f64 * 0.4).ceil() as usize;
        let regs = regs.max(12);

        let mut t = Table::new(
            &format!("{wname}: 8 threads, {regs} physical registers (40% context)"),
            &["policy", "cycles", "rf_hit_rate", "speedup_vs_plru"],
        );
        let mut plru_cycles = None;
        for policy in [
            PolicyKind::Plru,
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Random,
            PolicyKind::MrtPlru,
            PolicyKind::MrtLru,
            PolicyKind::Lrc,
        ] {
            let mut cfg = CoreConfig::virec(8, regs);
            cfg.policy = policy;
            let r = try_run_single(cfg, &workload, &opts)?;
            let base = *plru_cycles.get_or_insert(r.cycles as f64);
            t.row(vec![
                policy.label().into(),
                r.cycles.to_string(),
                pct(r.stats.rf_hit_rate()),
                f3(base / r.cycles as f64),
            ]);
        }
        t.print();
    }
    Ok(())
}
