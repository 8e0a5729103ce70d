//! In-situ error protection: a SEC-DED (72,64) extended-Hamming codec, a
//! per-site parity model, and the coverage map that routes injected faults
//! through the protection hardware a near-memory core would actually have.
//!
//! The paper's fault campaign (DESIGN.md §4e) established 100% *detection*
//! through differential checking, but every detected fault was "repaired" by
//! re-executing the whole run. This module is the first half of the
//! protect–detect–correct–recover chain (§4f): it decides, at the moment a
//! [`crate::fault::FaultPlan`] event fires, whether the modeled check bits
//! would have corrected the flip in place (`Corrected`), flagged it as an
//! uncorrectable error (`DetectedUncorrectable` — the checkpoint/replay
//! machinery in [`crate::runner`] takes over), or let it pass through
//! unprotected.
//!
//! ## The codec
//!
//! [`secded_encode`]/[`secded_decode`] implement the standard (72,64)
//! extended Hamming code: seven check bits at power-of-two codeword
//! positions plus an overall-parity bit. Decoding distinguishes a clean
//! word, a correctable single-bit error (in data *or* check storage), and a
//! detected-but-uncorrectable double-bit error — the classic SEC-DED
//! guarantee, verified exhaustively by the proptest suite.

use std::fmt;
use std::str::FromStr;

use crate::fault::FaultSite;

// ---------------------------------------------------------------------------
// SEC-DED (72,64) codec
// ---------------------------------------------------------------------------

/// Number of check bits in the (72,64) code: seven Hamming bits plus the
/// overall-parity bit that upgrades SEC to SEC-DED.
pub const SECDED_CHECK_BITS: u32 = 8;

/// Codeword position (1-based, power-of-two slots reserved for check bits)
/// of data bit `d` (0..64).
fn data_pos(d: u32) -> u32 {
    // Walk codeword positions 1.. skipping powers of two; the (d+1)-th
    // non-power slot is data bit d's home. Closed form: skip count grows
    // by one at each power of two, so iterate (cheap: ≤ 7 adjustments).
    let mut pos = d + 1;
    let mut p = 1u32;
    while p <= pos {
        pos += 1;
        p <<= 1;
    }
    pos
}

/// Encodes `data` into its 8 check bits. Bits 0..7 of the result are the
/// Hamming check bits `p1,p2,p4,...,p64`; bit 7 is the overall parity over
/// the full 72-bit codeword.
pub fn secded_encode(data: u64) -> u8 {
    let mut check = 0u8;
    for c in 0..7u32 {
        let mask = 1u32 << c;
        let mut parity = 0u64;
        for d in 0..64 {
            if data_pos(d) & mask != 0 {
                parity ^= (data >> d) & 1;
            }
        }
        check |= (parity as u8) << c;
    }
    // Overall parity: data bits plus the seven Hamming bits.
    let overall = (data.count_ones() + u32::from(check).count_ones()) & 1;
    check | ((overall as u8) << 7)
}

/// Result of decoding a possibly corrupted word against its stored check
/// bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SecDedOutcome {
    /// No error: the word is the stored value.
    Clean,
    /// A single-bit error in the data was corrected; the payload is the
    /// repaired word.
    CorrectedData(u64),
    /// A single-bit error in the *check* storage was corrected; the data
    /// word itself is intact.
    CorrectedCheck,
    /// A double-bit error was detected. The word cannot be repaired.
    DoubleError,
}

/// Decodes `data` against the stored `check` bits.
pub fn secded_decode(data: u64, check: u8) -> SecDedOutcome {
    let expected = secded_encode(data);
    // Syndrome over the seven Hamming bits.
    let syndrome = u32::from((expected ^ check) & 0x7f);
    // Recompute overall parity of the received codeword (data + stored
    // Hamming bits + stored overall bit); even means no single error.
    let received_overall =
        (data.count_ones() + u32::from(check & 0x7f).count_ones() + u32::from(check >> 7)) & 1;
    let expected_overall = 0; // a valid codeword always has even overall parity
    let parity_err = received_overall != expected_overall;

    match (syndrome, parity_err) {
        (0, false) => SecDedOutcome::Clean,
        (0, true) => SecDedOutcome::CorrectedCheck, // the overall bit itself flipped
        (s, true) => {
            // Single error at codeword position s: a data bit if s is not a
            // power of two, a Hamming check bit otherwise.
            if s.is_power_of_two() {
                SecDedOutcome::CorrectedCheck
            } else {
                match (0..64).find(|&d| data_pos(d) == s) {
                    Some(d) => SecDedOutcome::CorrectedData(data ^ (1u64 << d)),
                    // Syndrome points outside the codeword: alias of a
                    // multi-bit error; report detection, never miscorrect.
                    None => SecDedOutcome::DoubleError,
                }
            }
        }
        (_, false) => SecDedOutcome::DoubleError,
    }
}

/// Even-parity bit of a 64-bit word (the one extra bit a parity-protected
/// CAM entry stores).
pub fn parity_bit(data: u64) -> u8 {
    (data.count_ones() & 1) as u8
}

/// What the modeled check bits make of a flip pattern on one stored word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WordVerdict {
    /// The word reads back intact: SEC-DED repaired the flip.
    Corrected,
    /// Detected but not repairable: an odd-weight flip under parity, a
    /// double-bit flip under SEC-DED.
    Detected,
    /// The flips reach the consumer: unprotected storage, an even-weight
    /// flip parity is blind to, or more than two flips — beyond the SEC-DED
    /// guarantee, modeled as raw pass-through.
    Landed,
}

/// Runs the protection at `level` over `mask` flipped in the stored `word`.
/// Under SEC-DED the real (72,64) codec decides, so the model is grounded
/// in the code rather than in a flip count.
pub(crate) fn protect_word(level: ProtectionLevel, word: u64, mask: u64) -> WordVerdict {
    let flips = mask.count_ones();
    match level {
        ProtectionLevel::Parity if flips % 2 == 1 => WordVerdict::Detected,
        ProtectionLevel::SecDed if flips <= 2 => {
            match secded_decode(word ^ mask, secded_encode(word)) {
                SecDedOutcome::DoubleError => WordVerdict::Detected,
                SecDedOutcome::CorrectedData(orig) => {
                    debug_assert_eq!(orig, word, "SEC-DED must restore the stored word");
                    WordVerdict::Corrected
                }
                SecDedOutcome::Clean | SecDedOutcome::CorrectedCheck => WordVerdict::Corrected,
            }
        }
        _ => WordVerdict::Landed,
    }
}

// ---------------------------------------------------------------------------
// Coverage map
// ---------------------------------------------------------------------------

/// Protection level of one fault site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ProtectionLevel {
    /// Raw storage: every flip passes through.
    #[default]
    None,
    /// One parity bit: detects every odd-weight flip, misses even-weight
    /// ones, corrects nothing.
    Parity,
    /// SEC-DED check bits: corrects single-bit flips in place, detects
    /// double-bit flips.
    SecDed,
}

impl fmt::Display for ProtectionLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProtectionLevel::None => "none",
            ProtectionLevel::Parity => "parity",
            ProtectionLevel::SecDed => "secded",
        })
    }
}

/// One of three coverage-map presets; [`ProtectionConfig::level`] states
/// each preset's level per fault site.
///
/// The `secded` preset mirrors what the hardware would plausibly build:
/// SEC-DED on the word-organized storage (backing-store register slots,
/// DRAM words, fabric response buffers) and parity on the CAM-organized
/// VRMU structures (tag store, rollback queue), where a full SEC-DED
/// decoder in the match path would cost a pipeline stage. [`FaultSite::StuckFill`]
/// is never protected: a lost fill response is a protocol failure, not a
/// storage bit error, and no check bit catches it (the watchdog does).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ProtectionConfig {
    /// `None`, `Parity` or `SecDed` names the `none()`, `parity()` or
    /// `secded()` preset.
    preset: ProtectionLevel,
}

impl ProtectionConfig {
    /// Everything unprotected (the default; identical to the pre-ECC
    /// simulator).
    pub fn none() -> ProtectionConfig {
        ProtectionConfig::default()
    }

    /// Parity everywhere it applies: detection without correction.
    pub fn parity() -> ProtectionConfig {
        ProtectionConfig {
            preset: ProtectionLevel::Parity,
        }
    }

    /// The full coverage map: SEC-DED on word storage, parity on the VRMU
    /// CAM structures (see the type-level docs for the rationale).
    pub fn secded() -> ProtectionConfig {
        ProtectionConfig {
            preset: ProtectionLevel::SecDed,
        }
    }

    /// The protection level covering `site`.
    pub fn level(&self, site: FaultSite) -> ProtectionLevel {
        match (self.preset, site) {
            // A lost fill is a protocol failure, and link upsets are
            // covered by the NoC's own CRC/retransmission layer: no
            // storage check bit guards either.
            (_, FaultSite::StuckFill | FaultSite::NocLink) => ProtectionLevel::None,
            (ProtectionLevel::SecDed, FaultSite::TagValue | FaultSite::RollbackSlot) => {
                ProtectionLevel::Parity
            }
            (preset, _) => preset,
        }
    }

    /// True when every site is unprotected (the fast path: the runner skips
    /// the protection plumbing entirely).
    pub fn is_none(&self) -> bool {
        *self == ProtectionConfig::none()
    }
}

impl FromStr for ProtectionConfig {
    type Err = String;
    fn from_str(s: &str) -> Result<ProtectionConfig, String> {
        match s {
            "none" => Ok(ProtectionConfig::none()),
            "parity" => Ok(ProtectionConfig::parity()),
            "secded" => Ok(ProtectionConfig::secded()),
            other => Err(format!(
                "unknown protection preset '{other}' (expected none|parity|secded)"
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Protection statistics
// ---------------------------------------------------------------------------

/// Counters the protection and checkpoint machinery accumulates over one
/// run. Counters are cumulative across replayed windows: an injector event
/// that re-fires during replay is re-counted, exactly as a hardware scrub
/// counter would tick again if the upset recurred.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EccStats {
    /// Single-bit flips corrected in place by SEC-DED (the scrub counter).
    pub corrected: u64,
    /// Flips detected but not correctable (double-bit under SEC-DED,
    /// odd-weight under parity).
    pub detected_uncorrectable: u64,
    /// Flips that hit unprotected storage and passed through.
    pub unprotected: u64,
    /// Even-weight flips that escaped a parity-only site (the SEC-DED
    /// detection limit the multi-fault campaign exercises).
    pub parity_escapes: u64,
    /// Architectural checkpoints snapshotted.
    pub checkpoints_taken: u64,
    /// Checkpoint restores triggered by detected-uncorrectable faults.
    pub restores: u64,
    /// Total cycles re-executed across all restores (detection cycle minus
    /// restored checkpoint cycle, summed).
    pub replay_cycles: u64,
}

impl EccStats {
    /// Every counter with its journal key, in journal order.
    pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); 7] {
        [
            ("corrected", &mut self.corrected),
            ("detected_uncorrectable", &mut self.detected_uncorrectable),
            ("unprotected", &mut self.unprotected),
            ("parity_escapes", &mut self.parity_escapes),
            ("checkpoints_taken", &mut self.checkpoints_taken),
            ("restores", &mut self.restores),
            ("replay_cycles", &mut self.replay_cycles),
        ]
    }

    /// True when no counter ever ticked (the run never touched the
    /// protection model).
    pub fn is_empty(&self) -> bool {
        *self == EccStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_positions_skip_check_slots() {
        // First few data positions: 3, 5, 6, 7, 9, ...
        assert_eq!(data_pos(0), 3);
        assert_eq!(data_pos(1), 5);
        assert_eq!(data_pos(2), 6);
        assert_eq!(data_pos(3), 7);
        assert_eq!(data_pos(4), 9);
        // All 64 positions are distinct and never powers of two.
        let mut seen = std::collections::HashSet::new();
        for d in 0..64 {
            let p = data_pos(d);
            assert!(!p.is_power_of_two(), "data bit {d} landed on a check slot");
            assert!(seen.insert(p), "duplicate position {p}");
            assert!(p <= 72);
        }
    }

    #[test]
    fn clean_words_decode_clean() {
        for &w in &[0u64, u64::MAX, 0xdead_beef_cafe_f00d, 1, 1 << 63] {
            assert_eq!(secded_decode(w, secded_encode(w)), SecDedOutcome::Clean);
        }
    }

    #[test]
    fn every_single_data_flip_is_corrected() {
        let w = 0x0123_4567_89ab_cdefu64;
        let check = secded_encode(w);
        for b in 0..64 {
            let corrupted = w ^ (1u64 << b);
            assert_eq!(
                secded_decode(corrupted, check),
                SecDedOutcome::CorrectedData(w),
                "bit {b}"
            );
        }
    }

    #[test]
    fn every_check_bit_flip_is_corrected_without_touching_data() {
        let w = 0xfeed_face_dead_beefu64;
        let check = secded_encode(w);
        for b in 0..8 {
            let outcome = secded_decode(w, check ^ (1 << b));
            assert_eq!(outcome, SecDedOutcome::CorrectedCheck, "check bit {b}");
        }
    }

    #[test]
    fn double_data_flips_detected_never_miscorrected() {
        let w = 0x5555_aaaa_3333_cccc_u64;
        let check = secded_encode(w);
        for a in 0..64 {
            for b in (a + 1)..64 {
                let corrupted = w ^ (1u64 << a) ^ (1u64 << b);
                assert_eq!(
                    secded_decode(corrupted, check),
                    SecDedOutcome::DoubleError,
                    "bits {a},{b}"
                );
            }
        }
    }

    #[test]
    fn parity_detects_odd_weight_only() {
        let w = 0x00ff_00ff_00ff_00ffu64;
        let p = parity_bit(w);
        assert_ne!(parity_bit(w ^ 1), p, "single flip detected");
        assert_eq!(parity_bit(w ^ 3), p, "double flip escapes");
        assert_ne!(parity_bit(w ^ 7), p, "triple flip detected");
    }

    #[test]
    fn word_verdicts_follow_the_level() {
        use ProtectionLevel::*;
        let w = 0x0123_4567_89ab_cdefu64;
        assert_eq!(protect_word(None, w, 1), WordVerdict::Landed);
        assert_eq!(protect_word(Parity, w, 0b100), WordVerdict::Detected);
        assert_eq!(protect_word(Parity, w, 0b101), WordVerdict::Landed);
        assert_eq!(protect_word(SecDed, w, 1 << 40), WordVerdict::Corrected);
        assert_eq!(protect_word(SecDed, w, 0b11), WordVerdict::Detected);
        assert_eq!(protect_word(SecDed, w, 0b111), WordVerdict::Landed);
    }

    #[test]
    fn presets_and_levels() {
        use ProtectionLevel::{None as N, Parity as P, SecDed as S};
        // Columns follow `FaultSite::EVERY`: tag-value, rollback-slot,
        // stuck-fill, backing-reg, dram-line, fabric-response, noc-link.
        let table = [
            ("none", [N, N, N, N, N, N, N]),
            ("parity", [P, P, N, P, P, P, N]),
            ("secded", [P, P, N, S, S, S, N]),
        ];
        for (name, levels) in table {
            let preset: ProtectionConfig = name.parse().unwrap();
            for (site, want) in FaultSite::EVERY.into_iter().zip(levels) {
                assert_eq!(preset.level(site), want, "{name} at {}", site.name());
            }
            assert_eq!(preset.is_none(), name == "none", "{name}");
        }
        assert_eq!(ProtectionConfig::none(), ProtectionConfig::default());
        assert_eq!("parity".parse(), Ok(ProtectionConfig::parity()));
        assert_eq!("secded".parse(), Ok(ProtectionConfig::secded()));
        assert!("sec-ded".parse::<ProtectionConfig>().is_err());
    }
}
