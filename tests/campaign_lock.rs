//! Campaign lock: the outcome of every injection of two protected
//! campaigns on gather is pinned to literal values. The benchmark counts
//! Detected, Crashed and Silent injections as failed operations, and an
//! injection's outcome can move while every clean run's cycle count stays
//! put (a fabric or cache change that alters what a corrupted response
//! hits). So a change to the memory side must leave these rows exactly as
//! they are.

use virec::core::CoreConfig;
use virec::sim::{run_campaign_with, CampaignOptions, FaultSite, InjectionOutcome};
use virec::workloads::{kernels, Layout};

use InjectionOutcome::*;

const N: u64 = 512;
const INJECTIONS: usize = 16;
const BASE_SEED: u64 = 64;

/// The clean run's cycles and every injection's `(seed, outcome,
/// replay_cycles)` of a protected campaign over `sites`.
fn campaign(sites: &[FaultSite]) -> (u64, Vec<(u64, InjectionOutcome, Option<u64>)>) {
    let workload = kernels::spatter::gather(N, Layout::for_core(0));
    let report = run_campaign_with(
        CoreConfig::virec(8, 40),
        &workload,
        INJECTIONS,
        BASE_SEED,
        sites,
        &CampaignOptions::protected(),
    );
    let rows = report
        .records
        .iter()
        .map(|r| (r.seed, r.outcome, r.replay_cycles))
        .collect();
    (report.clean_cycles, rows)
}

#[test]
fn every_site_campaign_is_pinned() {
    let got = campaign(&FaultSite::ALL);
    let rows = vec![
        (64, Recovered, None),
        (65, Corrected, None),
        (66, Corrected, None),
        (67, CheckpointRecovered, Some(587)),
        (68, CheckpointRecovered, Some(484)),
        (69, Corrected, None),
        (70, Corrected, None),
        (71, Recovered, None),
        (72, Recovered, None),
        (73, NotApplied, None),
        (74, CheckpointRecovered, Some(558)),
        (75, Recovered, None),
        (76, Corrected, None),
        (77, Corrected, None),
        (78, Corrected, None),
        (79, Recovered, None),
    ];
    assert_eq!(got, (8445, rows));
}

#[test]
fn fabric_response_campaign_is_pinned() {
    let got = campaign(&[FaultSite::FabricResponse]);
    let rows = vec![
        (64, Corrected, None),
        (65, Corrected, None),
        (66, Corrected, None),
        (67, Corrected, None),
        (68, Corrected, None),
        (69, Corrected, None),
        (70, Corrected, None),
        (71, NotApplied, None),
        (72, Corrected, None),
        (73, NotApplied, None),
        (74, Corrected, None),
        (75, NotApplied, None),
        (76, NotApplied, None),
        (77, NotApplied, None),
        (78, Corrected, None),
        (79, NotApplied, None),
    ];
    assert_eq!(got, (8445, rows));
}
