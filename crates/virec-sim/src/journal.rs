//! Append-only cell journal for crash-safe, resumable sweeps.
//!
//! As the [`Executor`](crate::experiment::Executor) finishes each cell it
//! appends one JSON record to `results/<name>.journal.jsonl` and fsyncs
//! it. If the process is killed — OOM, Ctrl-C, power loss — a later run
//! with `--resume` replays the journaled outcomes verbatim and only
//! re-executes the remainder, producing tables and final JSON
//! byte-identical to an uninterrupted run.
//!
//! File layout:
//!
//! ```text
//! {"journal":"virec","version":1,"experiment":"fig09","fingerprint":"0x…"}
//! {"key":"gather/banked","status":"ok","data":{"kind":"run",…}}
//! {"key":"gather/virec80","status":"failed","error_kind":"livelock",…}
//! ```
//!
//! * The header is written via temp-file + `rename`, so a journal either
//!   exists with a valid header or not at all.
//! * Each record is flushed and `fdatasync`'d before the cell is counted
//!   complete; a crash can truncate at most the final, in-flight line.
//! * The header carries a fingerprint of the spec (name + cell keys); a
//!   journal from a different spec is refused rather than misapplied.
//! * Truncated or corrupt records are skipped with a warning — the cells
//!   they covered simply re-run.
//!
//! Counter blocks are written and read by walking each block's counter
//! table (`CoreStats::counters_mut` and its siblings on `CacheStats`,
//! `FabricStats`, `EccStats` and `RasStats`), so a block's keys and their
//! order are stated once, next to its struct. A failure row's
//! `error_kind` is stored as written and replays as the same string.
//!
//! Numeric fidelity: counters are `u64` and must round-trip exactly, so
//! the parser keeps raw number tokens and `arch_digest` travels as a hex
//! string (an `f64` detour would corrupt it). Metric values use Rust's
//! shortest-roundtrip float formatting; non-finite values are tagged
//! strings (`"NaN"`, `"inf"`, `"-inf"`).

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::ecc::EccStats;
use crate::experiment::{json_string, CellData, CellOutcome};
use crate::ras::RasStats;
use crate::runner::RunResult;
use crate::runner::SystemResult;
use virec_core::CoreStats;
use virec_mem::{CacheStats, FabricStats};

/// Journal location for experiment `name` under `dir`.
pub fn journal_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.journal.jsonl"))
}

/// FNV-1a fingerprint of a spec's identity: its name, every cell key in
/// declaration order, and its provenance metadata (problem size and
/// friends). A resumed journal must match or it is refused — cell keys
/// alone would happily replay a journal recorded at a different problem
/// size, whose rows describe different numbers under identical keys.
pub fn spec_fingerprint<'a>(
    name: &str,
    keys: impl Iterator<Item = &'a str>,
    meta: impl Iterator<Item = (&'a str, &'a str)>,
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    eat(name.as_bytes());
    for k in keys {
        eat(k.as_bytes());
    }
    for (k, v) in meta {
        eat(k.as_bytes());
        eat(v.as_bytes());
    }
    h
}

/// Where journals are written and whether existing ones are replayed.
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Directory holding `<name>.journal.jsonl` (usually the results dir).
    pub dir: PathBuf,
    /// Replay an existing journal instead of starting fresh.
    pub resume: bool,
}

/// Appends records to an open journal, one fsync'd line per cell.
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates a fresh journal: the header line is written to a temp file,
    /// synced, then renamed into place, so a half-written header can never
    /// be observed. The returned writer appends to the renamed file.
    pub fn create(dir: &Path, name: &str, fingerprint: u64) -> std::io::Result<JournalWriter> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(".tmp.{name}.journal.jsonl"));
        let mut file = File::create(&tmp)?;
        let mut header = String::from("{\"journal\":\"virec\",\"version\":1,\"experiment\":");
        json_string(&mut header, name);
        header.push_str(&format!(",\"fingerprint\":\"{fingerprint:#018x}\"}}\n"));
        file.write_all(header.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, journal_path(dir, name))?;
        // The handle survives the rename: it names the inode, not the path.
        Ok(JournalWriter { file })
    }

    /// Opens an existing journal for appending (the resume path).
    pub fn append_to(path: &Path) -> std::io::Result<JournalWriter> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter { file })
    }

    /// Appends one record line and forces it to disk before returning.
    pub fn append(&mut self, line: &str) -> std::io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()
    }
}

/// Result of replaying a journal file.
pub enum JournalLoad {
    /// No journal at the path — nothing to resume.
    Missing,
    /// A journal exists but belongs to a different spec (name or cell set
    /// changed); it must not be applied.
    Mismatch,
    /// The file exists but its header line is corrupt or truncated (e.g.
    /// the process died mid-create, or the file was damaged on disk), so
    /// nothing about it can be trusted. Resume falls back to a fresh start
    /// with a warning rather than failing the sweep.
    CorruptHeader,
    /// Replayed records, in file order, plus the count of corrupt or
    /// truncated lines that were skipped.
    Loaded {
        /// `(key, outcome)` per valid record.
        records: Vec<(String, CellOutcome)>,
        /// Lines that failed to parse and were skipped.
        skipped_lines: usize,
    },
}

/// Replays the journal at `path`, validating its header against the
/// spec's name and fingerprint. Corrupt records are skipped, not fatal.
pub fn load(path: &Path, name: &str, fingerprint: u64) -> JournalLoad {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(_) => return JournalLoad::Missing,
    };
    let mut lines = text.lines();
    // An unparseable first line (or one missing the journal marker) is a
    // damaged file, not a spec conflict: distinguish it so resume can warn
    // accurately and start fresh instead of treating it as a mismatch.
    let Some(header) = lines.next().and_then(parse_json) else {
        return JournalLoad::CorruptHeader;
    };
    if header.get("journal").and_then(Json::str) != Some("virec") {
        return JournalLoad::CorruptHeader;
    }
    let head_ok = header.get("experiment").and_then(Json::str) == Some(name)
        && header.get("fingerprint").and_then(Json::u64) == Some(fingerprint);
    if !head_ok {
        return JournalLoad::Mismatch;
    }
    let mut records = Vec::new();
    let mut skipped_lines = 0usize;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        match parse_record(line) {
            Some(rec) => records.push(rec),
            None => skipped_lines += 1,
        }
    }
    JournalLoad::Loaded {
        records,
        skipped_lines,
    }
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

/// Encodes one completed cell as a single journal line (no newline).
pub fn record_line(key: &str, outcome: &CellOutcome) -> String {
    let mut out = String::with_capacity(160);
    out.push_str("{\"key\":");
    json_string(&mut out, key);
    match outcome {
        CellOutcome::Ok(data) => {
            out.push_str(",\"status\":\"ok\",\"data\":");
            enc_data(&mut out, data);
        }
        CellOutcome::Failed {
            kind,
            error,
            retried,
        } => {
            out.push_str(",\"status\":\"failed\",\"error_kind\":");
            json_string(&mut out, kind);
            out.push_str(&format!(",\"retried\":{retried},\"error\":"));
            json_string(&mut out, error);
        }
        // Skipped cells were never executed; they have no journal record.
        CellOutcome::Skipped => out.push_str(",\"status\":\"skipped\""),
    }
    out.push('}');
    out
}

fn enc_data(out: &mut String, data: &CellData) {
    match data {
        CellData::Run(r) => {
            out.push_str(&format!(
                "{{\"kind\":\"run\",\"cycles\":{},\"arch_digest\":\"{:#018x}\",\
                 \"faults_applied\":[",
                r.cycles, r.arch_digest
            ));
            enc_list(out, &r.faults_applied, |out, f| json_string(out, f));
            out.push_str("],\"stats\":");
            enc_core(out, &r.stats);
            // Protection, RAS and fabric counters ride along only when
            // something ticked, so runs without those layers keep the
            // pre-ECC record shape and journals of older and newer builds
            // interleave.
            if !r.ecc.is_empty() {
                enc_block(out, "ecc", &r.ecc, EccStats::counters_mut);
            }
            if !r.ras.is_empty() {
                enc_block(out, "ras", &r.ras, RasStats::counters_mut);
            }
            if !r.fabric.is_empty() {
                out.push_str(",\"fabric\":");
                enc_fabric(out, &r.fabric);
            }
            out.push('}');
        }
        CellData::System(s) => {
            out.push_str(&format!(
                "{{\"kind\":\"system\",\"cycles\":{},\"per_core\":[",
                s.cycles
            ));
            enc_list(out, &s.per_core, enc_core);
            out.push_str("],\"fabric\":");
            enc_fabric(out, &s.fabric);
            out.push('}');
        }
        CellData::Metrics(m) => enc_pairs(out, "metrics", m, |out, v| enc_f64(out, *v)),
        CellData::Fields(f) => enc_pairs(out, "fields", f, |out, v| json_string(out, v)),
    }
}

/// Writes `items` comma-separated, each through `item`.
fn enc_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
}

/// A `{"kind":…,"values":[[key,value],…]}` payload.
fn enc_pairs<V>(
    out: &mut String,
    kind: &str,
    pairs: &[(String, V)],
    value: impl Fn(&mut String, &V),
) {
    let _ = write!(out, "{{\"kind\":\"{kind}\",\"values\":[");
    enc_list(out, pairs, |out, (k, v)| {
        out.push('[');
        json_string(out, k);
        out.push(',');
        value(out, v);
        out.push(']');
    });
    out.push_str("]}");
}

/// A block's counter table: each counter's key and a handle to it, in
/// record order. Encoding walks a copy of the block; decoding fills a
/// `Default` one.
type Table<T, const N: usize> = fn(&mut T) -> [(&'static str, &mut u64); N];

/// Writes `"key":value` for every counter of `block`, comma-separated.
fn enc_counters<T: Copy, const N: usize>(out: &mut String, block: &T, table: Table<T, N>) {
    let mut copy = *block;
    enc_list(out, table(&mut copy), |out, (k, v)| {
        let _ = write!(out, "\"{k}\":{v}");
    });
}

/// Writes `,"name":{…}` with every counter of `block`.
fn enc_block<T: Copy, const N: usize>(out: &mut String, name: &str, block: &T, table: Table<T, N>) {
    let _ = write!(out, ",\"{name}\":{{");
    enc_counters(out, block, table);
    out.push('}');
}

fn enc_core(out: &mut String, s: &CoreStats) {
    out.push('{');
    enc_counters(out, s, CoreStats::counters_mut);
    out.push_str(",\"dcache\":{");
    enc_counters(out, &s.dcache, CacheStats::counters_mut);
    out.push_str("},\"icache\":{");
    enc_counters(out, &s.icache, CacheStats::counters_mut);
    out.push_str("}}");
}

fn enc_fabric(out: &mut String, f: &FabricStats) {
    let mut f = *f;
    out.push('{');
    enc_counters(out, &f, FabricStats::counters_mut);
    // Per-port attribution and NoC counters follow the ecc/ras rule:
    // emitted only when non-empty, so older record shapes still parse and
    // older builds' lines interleave with newer ones. The per-port array
    // is truncated after its last non-zero entry.
    if let Some(last) = f.per_port.iter().rposition(|p| p[0] != 0 || p[1] != 0) {
        out.push_str(",\"per_port\":[");
        enc_list(out, &f.per_port[..=last], |out, p| {
            let _ = write!(out, "[{},{}]", p[0], p[1]);
        });
        out.push(']');
    }
    for (k, v) in f.noc_counters_mut() {
        if *v != 0 {
            let _ = write!(out, ",\"{k}\":{v}");
        }
    }
    out.push('}');
}

/// Exact-roundtrip `f64`: shortest-roundtrip decimal for finite values,
/// tagged strings for the non-finite ones JSON cannot carry.
fn enc_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

// ---------------------------------------------------------------------------
// Record decoding
// ---------------------------------------------------------------------------

/// Parses one journal record line. `None` means corrupt/unknown — the
/// caller skips the line and the cell simply re-runs.
pub fn parse_record(line: &str) -> Option<(String, CellOutcome)> {
    let v = parse_json(line)?;
    let key = v.get("key")?.str()?.to_string();
    let outcome = match v.get("status")?.str()? {
        "ok" => CellOutcome::Ok(dec_data(v.get("data")?)?),
        "failed" => CellOutcome::Failed {
            kind: v.get("error_kind")?.str()?.to_string(),
            error: v.get("error")?.str()?.to_string(),
            retried: v.get("retried")?.bool()?,
        },
        _ => return None,
    };
    Some((key, outcome))
}

fn dec_data(v: &Json) -> Option<CellData> {
    match v.get("kind")?.str()? {
        "run" => Some(CellData::Run(Box::new(RunResult {
            cycles: v.get("cycles")?.u64()?,
            stats: dec_core(v.get("stats")?)?,
            faults_applied: v
                .get("faults_applied")?
                .arr()?
                .iter()
                .map(|f| f.str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
            arch_digest: v.get("arch_digest")?.u64()?,
            // Absent in records written before the protection model, the
            // RAS layer and the mesh NoC (and whenever nothing counted).
            ecc: v.get("ecc").map_or(Some(EccStats::default()), |e| {
                dec_counters(e, EccStats::counters_mut)
            })?,
            ras: v.get("ras").map_or(Some(RasStats::default()), |a| {
                dec_counters(a, RasStats::counters_mut)
            })?,
            fabric: v
                .get("fabric")
                .map_or(Some(FabricStats::default()), dec_fabric)?,
            // Wall-clock snapshot cost is not journaled (non-deterministic);
            // replayed cells report zero.
            checkpoint_clone_ns: 0,
        }))),
        "system" => Some(CellData::System(Box::new(SystemResult {
            cycles: v.get("cycles")?.u64()?,
            per_core: v
                .get("per_core")?
                .arr()?
                .iter()
                .map(dec_core)
                .collect::<Option<Vec<_>>>()?,
            fabric: dec_fabric(v.get("fabric")?)?,
        }))),
        "metrics" => Some(CellData::Metrics(dec_pairs(v, Json::f64)?)),
        "fields" => Some(CellData::Fields(dec_pairs(v, |s| {
            s.str().map(str::to_string)
        })?)),
        _ => None,
    }
}

/// The `values` of a metrics or fields payload, each read by `value`.
fn dec_pairs<V>(v: &Json, value: impl Fn(&Json) -> Option<V>) -> Option<Vec<(String, V)>> {
    v.get("values")?
        .arr()?
        .iter()
        .map(|pair| {
            let p = pair.arr()?;
            Some((p.first()?.str()?.to_string(), value(p.get(1)?)?))
        })
        .collect()
}

/// Decodes a block through its counter table; every counter is required.
fn dec_counters<T: Default, const N: usize>(v: &Json, table: Table<T, N>) -> Option<T> {
    let mut block = T::default();
    for (k, slot) in table(&mut block) {
        *slot = v.get(k)?.u64()?;
    }
    Some(block)
}

fn dec_core(v: &Json) -> Option<CoreStats> {
    Some(CoreStats {
        dcache: dec_counters(v.get("dcache")?, CacheStats::counters_mut)?,
        icache: dec_counters(v.get("icache")?, CacheStats::counters_mut)?,
        ..dec_counters(v, CoreStats::counters_mut)?
    })
}

fn dec_fabric(v: &Json) -> Option<FabricStats> {
    // An absent optional key reads as zero; a present one must be a
    // counter, or the record is damaged and rejected.
    let optional = |k: &str| v.get(k).map_or(Some(0), Json::u64);
    let mut f = FabricStats::default();
    for (k, slot) in f.counters_mut() {
        *slot = match k {
            // Absent in journals written before the RAS layer.
            "scrub_reads" => optional(k)?,
            _ => v.get(k)?.u64()?,
        };
    }
    // Truncated on encode after the last non-zero pair; the tail is zero.
    if let Some(pairs) = v.get("per_port") {
        for (slot, pair) in f.per_port.iter_mut().zip(pairs.arr()?) {
            let p = pair.arr()?;
            slot[0] = p.first()?.u64()?;
            slot[1] = p.get(1)?.u64()?;
        }
    }
    // Absent in journals written before the mesh NoC.
    for (k, slot) in f.noc_counters_mut() {
        *slot = optional(k)?;
    }
    Some(f)
}

// ---------------------------------------------------------------------------
// Minimal JSON parser
// ---------------------------------------------------------------------------
// Numbers are kept as raw tokens so `u64` counters round-trip exactly
// (an f64 detour would corrupt values above 2^53).

#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// `u64` from a raw number token or a `"0x…"` hex string.
    fn u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            Json::Str(s) => s
                .strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok()),
            _ => None,
        }
    }

    /// `f64` from a raw number token or a non-finite tag string.
    fn f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }
}

fn parse_json(text: &str) -> Option<Json> {
    let bytes = text.as_bytes();
    let mut i = 0usize;
    let v = parse_value(bytes, &mut i)?;
    skip_ws(bytes, &mut i);
    (i == bytes.len()).then_some(v)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Option<Json> {
    skip_ws(b, i);
    match *b.get(*i)? {
        b'{' => {
            *i += 1;
            let mut fields = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Some(Json::Obj(fields));
            }
            loop {
                skip_ws(b, i);
                let key = match parse_value(b, i)? {
                    Json::Str(s) => s,
                    _ => return None,
                };
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return None;
                }
                *i += 1;
                fields.push((key, parse_value(b, i)?));
                skip_ws(b, i);
                match b.get(*i)? {
                    b',' => *i += 1,
                    b'}' => {
                        *i += 1;
                        return Some(Json::Obj(fields));
                    }
                    _ => return None,
                }
            }
        }
        b'[' => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, i)?);
                skip_ws(b, i);
                match b.get(*i)? {
                    b',' => *i += 1,
                    b']' => {
                        *i += 1;
                        return Some(Json::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'"' => {
            *i += 1;
            let mut s = String::new();
            loop {
                match *b.get(*i)? {
                    b'"' => {
                        *i += 1;
                        return Some(Json::Str(s));
                    }
                    b'\\' => {
                        *i += 1;
                        match *b.get(*i)? {
                            b'"' => s.push('"'),
                            b'\\' => s.push('\\'),
                            b'/' => s.push('/'),
                            b'n' => s.push('\n'),
                            b't' => s.push('\t'),
                            b'r' => s.push('\r'),
                            b'b' => s.push('\u{8}'),
                            b'f' => s.push('\u{c}'),
                            b'u' => {
                                let hex = b.get(*i + 1..*i + 5)?;
                                let code =
                                    u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                                s.push(char::from_u32(code)?);
                                *i += 4;
                            }
                            _ => return None,
                        }
                        *i += 1;
                    }
                    _ => {
                        // Advance by whole UTF-8 code points.
                        let rest = std::str::from_utf8(&b[*i..]).ok()?;
                        let ch = rest.chars().next()?;
                        s.push(ch);
                        *i += ch.len_utf8();
                    }
                }
            }
        }
        b't' => {
            if b.get(*i..*i + 4)? == b"true" {
                *i += 4;
                Some(Json::Bool(true))
            } else {
                None
            }
        }
        b'f' => {
            if b.get(*i..*i + 5)? == b"false" {
                *i += 5;
                Some(Json::Bool(false))
            } else {
                None
            }
        }
        b'n' => {
            if b.get(*i..*i + 4)? == b"null" {
                *i += 4;
                Some(Json::Null)
            } else {
                None
            }
        }
        b'-' | b'0'..=b'9' => {
            let start = *i;
            *i += 1;
            while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                *i += 1;
            }
            Some(Json::Num(
                std::str::from_utf8(&b[start..*i]).ok()?.to_string(),
            ))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_result() -> RunResult {
        RunResult {
            cycles: 987_654_321_987,
            stats: CoreStats {
                cycles: 987_654_321_987,
                instructions: 42,
                context_switches: 7,
                switches_masked: 1,
                rf_hits: 2,
                rf_misses: 3,
                rf_dummy_fills: 4,
                rf_spills: 5,
                stall_reg_fill: 6,
                stall_mem: 8,
                stall_idle: 9,
                stall_fetch: 10,
                stall_sq_full: 11,
                stall_ctx_software: 12,
                branch_mispredicts: 13,
                dcache: CacheStats {
                    hits: 100,
                    misses: 1,
                    ..Default::default()
                },
                icache: CacheStats {
                    reg_misses: 9,
                    ..Default::default()
                },
            },
            faults_applied: vec!["cycle 9: dram word 0x40 bit 3".into()],
            arch_digest: u64::MAX - 1,
            ecc: EccStats {
                corrected: 2,
                detected_uncorrectable: 1,
                unprotected: 3,
                parity_escapes: 0,
                checkpoints_taken: 5,
                restores: 1,
                replay_cycles: 400,
            },
            // Never journaled; roundtrips compare against the restored zero.
            checkpoint_clone_ns: 0,
            ras: RasStats {
                scrub_reads: 11,
                ce_observations: 4,
                predictive_retirements: 1,
                demand_retirements: 2,
                degraded_regions: 1,
                migrated_lines: 16,
                suppressed_assertions: 3,
            },
            fabric: {
                let mut f = FabricStats {
                    noc_hops: 40,
                    noc_crc_detected: 2,
                    noc_retransmissions: 2,
                    noc_links_retired: 1,
                    noc_links_fenced: 1,
                    ..FabricStats::default()
                };
                f.per_port[0] = [17, 3];
                f.per_port[5] = [0, 9];
                f
            },
        }
    }

    fn roundtrip(key: &str, outcome: &CellOutcome) -> (String, CellOutcome) {
        let line = record_line(key, outcome);
        parse_record(&line).unwrap_or_else(|| panic!("record must parse: {line}"))
    }

    #[test]
    fn run_record_roundtrips_exactly() {
        let outcome = CellOutcome::Ok(CellData::Run(Box::new(run_result())));
        let (key, back) = roundtrip("a/b", &outcome);
        assert_eq!(key, "a/b");
        match back {
            CellOutcome::Ok(CellData::Run(r)) => {
                let orig = run_result();
                assert_eq!(r.cycles, orig.cycles);
                assert_eq!(
                    r.arch_digest, orig.arch_digest,
                    "u64 digest must not lose bits"
                );
                assert_eq!(r.stats.branch_mispredicts, 13);
                assert_eq!(r.stats.dcache.hits, 100);
                assert_eq!(r.stats.icache.reg_misses, 9);
                assert_eq!(r.faults_applied, orig.faults_applied);
                assert_eq!(r.ecc, orig.ecc, "protection counters must round-trip");
                assert_eq!(r.ras, orig.ras, "RAS counters must round-trip");
                assert_eq!(
                    r.fabric, orig.fabric,
                    "per-port and NoC counters must round-trip"
                );
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn empty_fabric_block_is_omitted_from_run_records() {
        let mut r = run_result();
        r.fabric = FabricStats::default();
        let line = record_line("a", &CellOutcome::Ok(CellData::Run(Box::new(r))));
        assert!(
            !line.contains("\"fabric\""),
            "quiet fabric must keep the pre-NoC record shape: {line}"
        );
        let (_, back) = parse_record(&line).expect("record parses");
        match back {
            CellOutcome::Ok(CellData::Run(r)) => assert!(r.fabric.is_empty()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn system_record_roundtrips() {
        let sys = SystemResult {
            cycles: 1234,
            per_core: vec![run_result().stats, CoreStats::default()],
            fabric: {
                let mut f = FabricStats {
                    reads: 1,
                    writes: 2,
                    row_hits: 3,
                    row_conflicts: 4,
                    row_empty: 5,
                    queue_cycles: 6,
                    scrub_reads: 7,
                    noc_retransmissions: 8,
                    ..FabricStats::default()
                };
                f.per_port[2] = [9, 10];
                f
            },
        };
        let expect = sys.fabric;
        let outcome = CellOutcome::Ok(CellData::System(Box::new(sys)));
        let (_, back) = roundtrip("sys", &outcome);
        match back {
            CellOutcome::Ok(CellData::System(s)) => {
                assert_eq!(s.cycles, 1234);
                assert_eq!(s.per_core.len(), 2);
                assert_eq!(s.per_core[0].instructions, 42);
                assert_eq!(s.fabric.queue_cycles, 6);
                assert_eq!(s.fabric.scrub_reads, 7);
                assert_eq!(s.fabric, expect, "fabric block must round-trip exactly");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn metric_values_roundtrip_bit_exactly() {
        let vals = vec![
            ("third".to_string(), 1.0 / 3.0),
            ("tiny".to_string(), f64::MIN_POSITIVE),
            ("neg".to_string(), -0.0),
            ("nan".to_string(), f64::NAN),
            ("inf".to_string(), f64::INFINITY),
            ("ninf".to_string(), f64::NEG_INFINITY),
        ];
        let outcome = CellOutcome::Ok(CellData::Metrics(vals.clone()));
        let (_, back) = roundtrip("m", &outcome);
        match back {
            CellOutcome::Ok(CellData::Metrics(m)) => {
                for ((k, v), (k2, v2)) in vals.iter().zip(&m) {
                    assert_eq!(k, k2);
                    assert!(
                        v.to_bits() == v2.to_bits() || (v.is_nan() && v2.is_nan()),
                        "{k}: {v} vs {v2}"
                    );
                }
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn failed_record_roundtrips_with_its_kind() {
        let outcome = CellOutcome::Failed {
            kind: "deadline".into(),
            error: "wall-clock deadline of 50 ms expired\nwith a second line".into(),
            retried: true,
        };
        let (_, back) = roundtrip("hung", &outcome);
        match back {
            CellOutcome::Failed {
                kind,
                error,
                retried,
            } => {
                assert_eq!(kind, "deadline");
                assert!(error.contains("second line"), "newlines must survive");
                assert!(retried);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn corrupt_lines_do_not_parse() {
        assert!(parse_record("{\"key\":\"x\",\"status\":\"ok\",\"data\":{\"ki").is_none());
        assert!(parse_record("garbage").is_none());
        assert!(parse_record("{\"key\":\"x\",\"status\":\"weird\"}").is_none());
        // trailing garbage after a valid value is rejected too
        assert!(parse_record("{\"key\":\"x\",\"status\":\"ok\"} extra").is_none());
    }

    #[test]
    fn fingerprint_tracks_name_keys_and_meta() {
        let no_meta = std::iter::empty::<(&str, &str)>;
        let a = spec_fingerprint("exp", ["k1", "k2"].into_iter(), no_meta());
        assert_eq!(
            a,
            spec_fingerprint("exp", ["k1", "k2"].into_iter(), no_meta())
        );
        assert_ne!(
            a,
            spec_fingerprint("exp2", ["k1", "k2"].into_iter(), no_meta())
        );
        assert_ne!(a, spec_fingerprint("exp", ["k1"].into_iter(), no_meta()));
        assert_ne!(
            a,
            spec_fingerprint("exp", ["k1k", "2"].into_iter(), no_meta())
        );
        // A different problem size is a different experiment: its journal
        // rows carry different numbers under identical cell keys.
        let n512 = spec_fingerprint("exp", ["k1", "k2"].into_iter(), [("n", "512")].into_iter());
        let n4096 = spec_fingerprint("exp", ["k1", "k2"].into_iter(), [("n", "4096")].into_iter());
        assert_ne!(a, n512);
        assert_ne!(n512, n4096);
        assert_ne!(
            n512,
            spec_fingerprint("exp", ["k1", "k2"].into_iter(), [("n5", "12")].into_iter())
        );
    }

    #[test]
    fn writer_and_loader_cooperate() {
        let dir = std::env::temp_dir().join(format!("virec_journal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fp = spec_fingerprint("unit", ["a", "b"].into_iter(), std::iter::empty());
        let mut w = JournalWriter::create(&dir, "unit", fp).expect("create journal");
        w.append(&record_line(
            "a",
            &CellOutcome::Ok(CellData::Metrics(vec![("cycles".into(), 10.0)])),
        ))
        .expect("append");
        let path = journal_path(&dir, "unit");

        // A matching load replays the record.
        match load(&path, "unit", fp) {
            JournalLoad::Loaded {
                records,
                skipped_lines,
            } => {
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].0, "a");
                assert_eq!(skipped_lines, 0);
            }
            _ => panic!("journal must load"),
        }

        // A truncated trailing record is skipped, not fatal.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"key\":\"b\",\"status\":\"ok\",\"da")
                .unwrap();
        }
        match load(&path, "unit", fp) {
            JournalLoad::Loaded {
                records,
                skipped_lines,
            } => {
                assert_eq!(records.len(), 1);
                assert_eq!(skipped_lines, 1);
            }
            _ => panic!("truncated journal must still load"),
        }

        // The wrong fingerprint is refused.
        assert!(matches!(load(&path, "unit", fp ^ 1), JournalLoad::Mismatch));
        assert!(matches!(load(&path, "other", fp), JournalLoad::Mismatch));
        assert!(matches!(
            load(&dir.join("absent.journal.jsonl"), "unit", fp),
            JournalLoad::Missing
        ));

        // A damaged header is not a spec conflict: it signals CorruptHeader
        // so resume warns accurately and starts fresh.
        for broken in [
            "",                                   // empty file
            "{\"journal\":\"vi",                  // truncated mid-create
            "not json at all",                    // garbage
            "{\"experiment\":\"unit\"}",          // parses, but no marker
            "{\"journal\":\"other-tool\"}\n{}\n", // foreign file
        ] {
            std::fs::write(&path, broken).unwrap();
            assert!(
                matches!(load(&path, "unit", fp), JournalLoad::CorruptHeader),
                "header {broken:?} must classify as CorruptHeader"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
