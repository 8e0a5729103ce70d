//! Fuzzing of the journal record parser. A resumed sweep feeds every line
//! of its journal to `parse_record`, including a torn last line from a
//! crash mid-append, so the parser must return `None` on anything it cannot
//! read and never panic. Records written by `record_line` must parse back
//! to an outcome that re-encodes to the identical line, or journals written
//! by an earlier build would stop resuming.

use proptest::prelude::*;
use std::sync::OnceLock;
use virec_core::CoreConfig;
use virec_sim::journal::{parse_record, record_line};
use virec_sim::{builder, Executor, ExperimentSpec, RetryPolicy, RunOptions};
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
