//! Fuzzing of the journal record parser. A resumed sweep feeds every line
//! of its journal to `parse_record`, including a torn last line from a
//! crash mid-append, so the parser must return `None` on anything it cannot
//! read and never panic. Records written by `record_line` must parse back
//! to an outcome that re-encodes to the identical line, or journals written
//! by an earlier build would stop resuming.

use proptest::prelude::*;
use std::sync::OnceLock;
use virec_core::{CoreConfig, CoreStats};
use virec_mem::{CacheStats, FabricStats};
use virec_sim::experiment::{CellData, CellOutcome};
use virec_sim::journal::{parse_record, record_line};
use virec_sim::runner::RunResult;
use virec_sim::SystemResult;
use virec_sim::{builder, EccStats, Executor, ExperimentSpec, RasStats, RetryPolicy, RunOptions};
use virec_workloads::{kernels, Layout};

/// The journal lines of a real two-cell sweep: a verified run and a
/// cycle-budget failure.
fn sweep_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let mut spec = ExperimentSpec::new("journal_fuzz").with_retry(RetryPolicy::none());
        let gather = builder(kernels::spatter::gather, 128, Layout::for_core(0));
        spec.single(
            "gather/virec",
            gather.clone(),
            CoreConfig::virec(4, 32),
            &RunOptions::default(),
        );
        let mut starved = CoreConfig::banked(4);
        starved.max_cycles = 500;
        spec.single("gather/starved", gather, starved, &RunOptions::default());
        let res = Executor::new(1).run(&spec);
        res.cells
            .iter()
            .map(|c| record_line(&c.key, &c.outcome))
            .collect()
    })
}

/// Characters a JSON record is made of, plus a few that never occur in one.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', ' ', '0', '1', '9', '-', '+', '.', 'e', 'E', 'x', 'a',
    'f', 'n', 'u', 't', 'r', 'l', 's', 'k', 'y', '\n', '\t', '\u{0}', 'é', '😀',
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..200)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

#[derive(Clone, Debug)]
enum Mutation {
    Delete(usize, usize),
    Insert(usize, usize),
    Replace(usize, usize),
    Duplicate(usize, usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), 1usize..16).prop_map(|(at, n)| Mutation::Delete(at, n)),
        (any::<usize>(), 0..ALPHABET.len()).prop_map(|(at, c)| Mutation::Insert(at, c)),
        (any::<usize>(), 0..ALPHABET.len()).prop_map(|(at, c)| Mutation::Replace(at, c)),
        (any::<usize>(), 1usize..40).prop_map(|(at, n)| Mutation::Duplicate(at, n)),
    ]
}

fn mutate(line: &str, muts: &[Mutation]) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for m in muts {
        let len = chars.len();
        match *m {
            Mutation::Delete(at, n) => {
                let at = at % (len + 1);
                chars.drain(at..(at + n).min(len));
            }
            Mutation::Insert(at, c) => chars.insert(at % (len + 1), ALPHABET[c]),
            Mutation::Replace(at, c) => {
                if len > 0 {
                    chars[at % len] = ALPHABET[c];
                }
            }
            Mutation::Duplicate(at, n) => {
                let at = at % (len + 1);
                let seg = chars[at..(at + n).min(len)].to_vec();
                chars.splice(at..at, seg);
            }
        }
    }
    chars.into_iter().collect()
}

#[test]
fn sweep_records_reencode_identically() {
    let lines = sweep_lines();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("\"status\":\"ok\""), "{}", lines[0]);
    assert!(lines[1].contains("\"status\":\"failed\""), "{}", lines[1]);
    for line in lines {
        let (key, outcome) =
            parse_record(line).unwrap_or_else(|| panic!("record must parse: {line}"));
        assert_eq!(&record_line(&key, &outcome), line);
    }
}

#[test]
fn truncated_records_never_panic() {
    for line in sweep_lines() {
        for (cut, _) in line.char_indices() {
            assert!(
                parse_record(&line[..cut]).is_none(),
                "a torn record must not parse: {}",
                &line[..cut]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_text_never_panics(s in text()) {
        let _ = parse_record(&s);
    }

    #[test]
    fn mutated_records_never_panic(
        which in 0usize..2,
        muts in prop::collection::vec(mutation(), 1..6),
    ) {
        let line = mutate(&sweep_lines()[which], &muts);
        if let Some((key, outcome)) = parse_record(&line) {
            // Whatever still parses must itself be a stable record.
            let again = record_line(&key, &outcome);
            let (key2, outcome2) = parse_record(&again).expect("re-encoded record parses");
            prop_assert_eq!(record_line(&key2, &outcome2), again);
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned record shapes
// ---------------------------------------------------------------------------
// A journal written by one build must resume under the next, so the bytes
// `record_line` writes are part of the format. Each literal below was
// taken from the encoder and must not move when the codec is reworked.

fn core_stats(base: u64) -> CoreStats {
    let cache = |b: u64| CacheStats {
        hits: b + 1,
        misses: b + 2,
        mshr_stalls: b + 3,
        port_stalls: b + 4,
        evictions: b + 5,
        writebacks: b + 6,
        pinned_bypasses: b + 7,
        reg_hits: b + 8,
        reg_misses: b + 9,
    };
    CoreStats {
        cycles: base + 1,
        instructions: base + 2,
        context_switches: base + 3,
        switches_masked: base + 4,
        rf_hits: base + 5,
        rf_misses: base + 6,
        rf_dummy_fills: base + 7,
        rf_spills: base + 8,
        stall_reg_fill: base + 9,
        stall_mem: base + 10,
        stall_idle: base + 11,
        stall_fetch: base + 12,
        stall_sq_full: base + 13,
        stall_ctx_software: base + 14,
        branch_mispredicts: base + 15,
        dcache: cache(base + 100),
        icache: cache(base + 200),
    }
}

/// Every fabric counter distinct and non-zero; `per_port` has a zero gap
/// (ports 1 and 3) before its last non-zero entry (port 4).
fn fabric_stats(base: u64) -> FabricStats {
    let mut f = FabricStats {
        reads: base + 1,
        writes: base + 2,
        row_hits: base + 3,
        row_conflicts: base + 4,
        row_empty: base + 5,
        queue_cycles: base + 6,
        scrub_reads: base + 7,
        noc_hops: base + 8,
        noc_crc_detected: base + 9,
        noc_retransmissions: base + 10,
        noc_links_retired: base + 11,
        noc_links_fenced: base + 12,
        ..FabricStats::default()
    };
    f.per_port[0] = [base + 20, base + 21];
    f.per_port[2] = [0, base + 22];
    f.per_port[4] = [base + 23, 0];
    f
}

fn full_run() -> RunResult {
    RunResult {
        cycles: 18_446_744_073_709_551_557,
        stats: core_stats(1000),
        faults_applied: vec!["cycle 9: dram word 0x40 bit 3".into(), "second".into()],
        arch_digest: 0xfedc_ba98_7654_3210,
        ecc: EccStats {
            corrected: 301,
            detected_uncorrectable: 302,
            unprotected: 303,
            parity_escapes: 304,
            checkpoints_taken: 305,
            restores: 306,
            replay_cycles: 307,
        },
        checkpoint_clone_ns: 0,
        ras: RasStats {
            scrub_reads: 401,
            ce_observations: 402,
            predictive_retirements: 403,
            demand_retirements: 404,
            degraded_regions: 405,
            migrated_lines: 406,
            suppressed_assertions: 407,
        },
        fabric: fabric_stats(500),
    }
}

fn quiet_run() -> RunResult {
    RunResult {
        cycles: 77,
        stats: core_stats(0),
        faults_applied: Vec::new(),
        arch_digest: 5,
        ecc: EccStats::default(),
        checkpoint_clone_ns: 0,
        ras: RasStats::default(),
        fabric: FabricStats::default(),
    }
}

fn pinned() -> Vec<(&'static str, CellOutcome)> {
    vec![
        ("full", CellOutcome::Ok(CellData::Run(Box::new(full_run())))),
        (
            "quiet",
            CellOutcome::Ok(CellData::Run(Box::new(quiet_run()))),
        ),
        (
            "sys",
            CellOutcome::Ok(CellData::System(Box::new(SystemResult {
                cycles: 4242,
                per_core: vec![core_stats(2000), CoreStats::default()],
                fabric: fabric_stats(600),
            }))),
        ),
        (
            "m",
            CellOutcome::Ok(CellData::Metrics(vec![
                ("third".into(), 1.0 / 3.0),
                ("nan".into(), f64::NAN),
                ("inf".into(), f64::INFINITY),
                ("ninf".into(), f64::NEG_INFINITY),
                ("neg0".into(), -0.0),
            ])),
        ),
        (
            "f",
            CellOutcome::Ok(CellData::Fields(vec![
                ("engine".into(), "virec".into()),
                ("note".into(), "a \"quoted\"\nline".into()),
            ])),
        ),
        (
            "bad",
            CellOutcome::Failed {
                kind: "livelock".into(),
                error: "no commit in 100 cycles\nsecond line".into(),
                retried: true,
            },
        ),
    ]
}

const FULL: &str = concat!(
    r#"{"key":"full","status":"ok","data":{"kind":"run","cycles":18446744073709551557,"#,
    r#""arch_digest":"0xfedcba9876543210","#,
    r#""faults_applied":["cycle 9: dram word 0x40 bit 3","second"],"#,
    r#""stats":{"cycles":1001,"instructions":1002,"context_switches":1003,"#,
    r#""switches_masked":1004,"rf_hits":1005,"rf_misses":1006,"rf_dummy_fills":1007,"#,
    r#""rf_spills":1008,"stall_reg_fill":1009,"stall_mem":1010,"stall_idle":1011,"#,
    r#""stall_fetch":1012,"stall_sq_full":1013,"stall_ctx_software":1014,"#,
    r#""branch_mispredicts":1015,"#,
    r#""dcache":{"hits":1101,"misses":1102,"mshr_stalls":1103,"port_stalls":1104,"#,
    r#""evictions":1105,"writebacks":1106,"pinned_bypasses":1107,"reg_hits":1108,"#,
    r#""reg_misses":1109},"#,
    r#""icache":{"hits":1201,"misses":1202,"mshr_stalls":1203,"port_stalls":1204,"#,
    r#""evictions":1205,"writebacks":1206,"pinned_bypasses":1207,"reg_hits":1208,"#,
    r#""reg_misses":1209}},"#,
    r#""ecc":{"corrected":301,"detected_uncorrectable":302,"unprotected":303,"#,
    r#""parity_escapes":304,"checkpoints_taken":305,"restores":306,"replay_cycles":307},"#,
    r#""ras":{"scrub_reads":401,"ce_observations":402,"predictive_retirements":403,"#,
    r#""demand_retirements":404,"degraded_regions":405,"migrated_lines":406,"#,
    r#""suppressed_assertions":407},"#,
    r#""fabric":{"reads":501,"writes":502,"row_hits":503,"row_conflicts":504,"#,
    r#""row_empty":505,"queue_cycles":506,"scrub_reads":507,"#,
    r#""per_port":[[520,521],[0,0],[0,522],[0,0],[523,0]],"#,
    r#""noc_hops":508,"noc_crc_detected":509,"noc_retransmissions":510,"#,
    r#""noc_links_retired":511,"noc_links_fenced":512}}}"#,
);

const QUIET: &str = concat!(
    r#"{"key":"quiet","status":"ok","data":{"kind":"run","cycles":77,"#,
    r#""arch_digest":"0x0000000000000005","faults_applied":[],"#,
    r#""stats":{"cycles":1,"instructions":2,"context_switches":3,"switches_masked":4,"#,
    r#""rf_hits":5,"rf_misses":6,"rf_dummy_fills":7,"rf_spills":8,"stall_reg_fill":9,"#,
    r#""stall_mem":10,"stall_idle":11,"stall_fetch":12,"stall_sq_full":13,"#,
    r#""stall_ctx_software":14,"branch_mispredicts":15,"#,
    r#""dcache":{"hits":101,"misses":102,"mshr_stalls":103,"port_stalls":104,"#,
    r#""evictions":105,"writebacks":106,"pinned_bypasses":107,"reg_hits":108,"#,
    r#""reg_misses":109},"#,
    r#""icache":{"hits":201,"misses":202,"mshr_stalls":203,"port_stalls":204,"#,
    r#""evictions":205,"writebacks":206,"pinned_bypasses":207,"reg_hits":208,"#,
    r#""reg_misses":209}}}}"#,
);

const SYSTEM: &str = concat!(
    r#"{"key":"sys","status":"ok","data":{"kind":"system","cycles":4242,"#,
    r#""per_core":[{"cycles":2001,"instructions":2002,"context_switches":2003,"#,
    r#""switches_masked":2004,"rf_hits":2005,"rf_misses":2006,"rf_dummy_fills":2007,"#,
    r#""rf_spills":2008,"stall_reg_fill":2009,"stall_mem":2010,"stall_idle":2011,"#,
    r#""stall_fetch":2012,"stall_sq_full":2013,"stall_ctx_software":2014,"#,
    r#""branch_mispredicts":2015,"#,
    r#""dcache":{"hits":2101,"misses":2102,"mshr_stalls":2103,"port_stalls":2104,"#,
    r#""evictions":2105,"writebacks":2106,"pinned_bypasses":2107,"reg_hits":2108,"#,
    r#""reg_misses":2109},"#,
    r#""icache":{"hits":2201,"misses":2202,"mshr_stalls":2203,"port_stalls":2204,"#,
    r#""evictions":2205,"writebacks":2206,"pinned_bypasses":2207,"reg_hits":2208,"#,
    r#""reg_misses":2209}},"#,
    r#"{"cycles":0,"instructions":0,"context_switches":0,"switches_masked":0,"#,
    r#""rf_hits":0,"rf_misses":0,"rf_dummy_fills":0,"rf_spills":0,"stall_reg_fill":0,"#,
    r#""stall_mem":0,"stall_idle":0,"stall_fetch":0,"stall_sq_full":0,"#,
    r#""stall_ctx_software":0,"branch_mispredicts":0,"#,
    r#""dcache":{"hits":0,"misses":0,"mshr_stalls":0,"port_stalls":0,"evictions":0,"#,
    r#""writebacks":0,"pinned_bypasses":0,"reg_hits":0,"reg_misses":0},"#,
    r#""icache":{"hits":0,"misses":0,"mshr_stalls":0,"port_stalls":0,"evictions":0,"#,
    r#""writebacks":0,"pinned_bypasses":0,"reg_hits":0,"reg_misses":0}}],"#,
    r#""fabric":{"reads":601,"writes":602,"row_hits":603,"row_conflicts":604,"#,
    r#""row_empty":605,"queue_cycles":606,"scrub_reads":607,"#,
    r#""per_port":[[620,621],[0,0],[0,622],[0,0],[623,0]],"#,
    r#""noc_hops":608,"noc_crc_detected":609,"noc_retransmissions":610,"#,
    r#""noc_links_retired":611,"noc_links_fenced":612}}}"#,
);

const METRICS: &str = concat!(
    r#"{"key":"m","status":"ok","data":{"kind":"metrics","values":["#,
    r#"["third",0.3333333333333333],["nan","NaN"],["inf","inf"],["ninf","-inf"],"#,
    r#"["neg0",-0]]}}"#,
);

const FIELDS: &str = concat!(
    r#"{"key":"f","status":"ok","data":{"kind":"fields","values":["#,
    r#"["engine","virec"],["note","a \"quoted\"\nline"]]}}"#,
);

const FAILED: &str = concat!(
    r#"{"key":"bad","status":"failed","error_kind":"livelock","retried":true,"#,
    r#""error":"no commit in 100 cycles\nsecond line"}"#,
);

#[test]
fn record_lines_are_pinned() {
    let want = [FULL, QUIET, SYSTEM, METRICS, FIELDS, FAILED];
    for ((key, outcome), want) in pinned().iter().zip(want) {
        let line = record_line(key, outcome);
        assert_eq!(line, want, "record {key} moved");
        let (back_key, back) =
            parse_record(&line).unwrap_or_else(|| panic!("record {key} must parse"));
        assert_eq!(back_key, *key);
        assert_eq!(record_line(&back_key, &back), line, "{key} re-encodes");
    }
    // Every counter of the full run comes back in its own field.
    match parse_record(FULL) {
        Some((_, CellOutcome::Ok(CellData::Run(r)))) => {
            let orig = full_run();
            assert_eq!(r.cycles, orig.cycles);
            assert_eq!(r.arch_digest, orig.arch_digest);
            assert_eq!(r.faults_applied, orig.faults_applied);
            assert_eq!(r.stats, orig.stats);
            assert_eq!(r.ecc, orig.ecc);
            assert_eq!(r.ras, orig.ras);
            assert_eq!(r.fabric, orig.fabric);
        }
        other => panic!("full run must decode as a run: {other:?}"),
    }
}

#[test]
fn decoder_defaults_only_scrub_reads() {
    // Journals written before the RAS layer carry no fabric scrub count.
    let no_scrub = SYSTEM.replacen(r#""scrub_reads":607,"#, "", 1);
    assert_ne!(no_scrub, SYSTEM);
    match parse_record(&no_scrub) {
        Some((_, CellOutcome::Ok(CellData::System(s)))) => {
            let mut want = fabric_stats(600);
            want.scrub_reads = 0;
            assert_eq!(s.fabric, want);
            assert_eq!(s.per_core[0], core_stats(2000));
        }
        other => panic!("a fabric block without scrub_reads decodes: {other:?}"),
    }
    // Every other counter is required.
    for cut in [
        r#""rf_hits":1005,"#,
        r#""hits":1101,"#,
        r#""restores":306,"#,
    ] {
        let edited = FULL.replacen(cut, "", 1);
        assert_ne!(edited, FULL);
        assert!(
            parse_record(&edited).is_none(),
            "a record without {cut} must be rejected"
        );
    }
}

#[test]
fn decoder_rejects_malformed_optional_fabric_keys() {
    // Absent optional keys default; a present one must hold its type.
    let absent = [
        r#""per_port":[[620,621],[0,0],[0,622],[0,0],[623,0]],"#,
        r#""noc_hops":608,"#,
    ];
    for cut in absent {
        let edited = SYSTEM.replacen(cut, "", 1);
        assert_ne!(edited, SYSTEM);
        assert!(parse_record(&edited).is_some(), "{cut} is optional");
    }
    for (from, to) in [
        (r#""scrub_reads":607"#, r#""scrub_reads":"x""#),
        (r#""noc_hops":608"#, r#""noc_hops":"x""#),
        (r#""noc_links_fenced":612"#, r#""noc_links_fenced":-1"#),
        (
            r#""per_port":[[620,621],[0,0],[0,622],[0,0],[623,0]]"#,
            r#""per_port":7"#,
        ),
    ] {
        let edited = SYSTEM.replacen(from, to, 1);
        assert_ne!(edited, SYSTEM);
        assert!(
            parse_record(&edited).is_none(),
            "a fabric block with {to} must be rejected"
        );
    }
}
