//! End-to-end cross-validation of static analysis against the timing
//! models, over the entire workload suite:
//!
//! * the recorded prefetch oracle equals the traced per-quantum used sets,
//!   and every quantum's demand set is contained in static liveness;
//! * the ViReC engine's LRC commit-bit state after §5.1 compaction
//!   matches the static rollback-window bound;
//! * dynamic future-use sets from golden-interpreter traces are contained
//!   in static live-in at every executed PC;
//! * a purely liveness-derived oracle schedule can drive a prefetch-exact
//!   core to a correct (golden-verified) run.

use virec_core::{CoreConfig, OracleSchedule};
use virec_isa::dataflow::ALL_REGS;
use virec_sim::{try_run_single, try_run_single_traced, RunOptions};
use virec_verify::{check_liveness_on_golden_trace, check_lrc, StaticOracle};
use virec_workloads::{suite, Layout};

const N: u64 = 256;
const NTHREADS: usize = 4;

#[test]
fn recorded_oracle_matches_trace_and_demand_is_live() {
    for w in suite(N, Layout::for_core(0)) {
        let oracle = StaticOracle::build(w.program(), ALL_REGS).expect(w.name);
        let (_, trace) =
            try_run_single_traced(CoreConfig::banked(NTHREADS), &w, &RunOptions::default())
                .expect(w.name);
        let recorded = OracleSchedule::from_trace(&trace, NTHREADS);
        let check = oracle
            .cross_check(&trace, Some(&recorded))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(check.quanta > 0, "{}: no quanta traced", w.name);
    }
}

#[test]
fn virec_demand_is_live_too() {
    // The demand ⊆ live-in invariant is engine-independent; check it on
    // the ViReC core as well (quantum boundaries differ from banked).
    for w in suite(N, Layout::for_core(0)) {
        let oracle = StaticOracle::build(w.program(), ALL_REGS).expect(w.name);
        let (_, trace) =
            try_run_single_traced(CoreConfig::virec(NTHREADS, 24), &w, &RunOptions::default())
                .expect(w.name);
        oracle
            .cross_check(&trace, None)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    }
}

#[test]
fn lrc_live_bits_respect_static_liveness() {
    for w in suite(N, Layout::for_core(0)) {
        let report = check_lrc(&w, NTHREADS, 24).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(report.sampled > 0, "{}: no live-bit samples", w.name);
    }
}

#[test]
fn golden_future_use_is_contained_in_liveness() {
    for w in suite(64, Layout::for_core(0)) {
        let report = check_liveness_on_golden_trace(&w, NTHREADS)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(report.steps_checked > 0, "{}: empty golden trace", w.name);
    }
}

#[test]
fn liveness_derived_schedule_drives_prefetch_exact_correctly() {
    // Derive oracle contexts purely from static liveness (no recording run)
    // and replay them through the prefetch-exact engine. Quantum boundaries
    // differ between the banked trace and the replay, so correctness comes
    // from the demand-fill fallback — which the default golden verification
    // checks bit-for-bit.
    for w in suite(N, Layout::for_core(0)) {
        let oracle = StaticOracle::build(w.program(), ALL_REGS).expect(w.name);
        let (_, trace) =
            try_run_single_traced(CoreConfig::banked(NTHREADS), &w, &RunOptions::default())
                .expect(w.name);
        let derived = oracle.derive_schedule(&trace, NTHREADS);
        let opts = RunOptions {
            oracle: derived,
            ..RunOptions::default()
        };
        let result = try_run_single(CoreConfig::prefetch_exact(NTHREADS, 12), &w, &opts)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(result.stats.instructions > 0, "{}", w.name);
    }
}
