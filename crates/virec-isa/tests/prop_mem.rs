//! Property tests for the paged [`FlatMem`]: random operation sequences
//! against a plain `Vec<u8>` model of the same mapping. Addresses lean
//! towards the last bytes of a page so that accesses straddle page
//! boundaries, bulk writes and zeroings span several pages, and a snapshot
//! (a clone) is written on both sides to show that the two never alias.

use proptest::prelude::*;
use virec_isa::{AccessSize, DataMemory, FlatMem, PAGE_SIZE};

const BASE: u64 = 0x4000;
/// Five whole pages and a partly mapped sixth.
const SIZE: usize = 5 * PAGE_SIZE + 100;

#[derive(Clone, Debug)]
enum Op {
    Write(usize, AccessSize, u64),
    Read(usize, AccessSize),
    WriteBytes(usize, usize, u8),
    ZeroRange(usize, usize),
    Snapshot,
    WriteSnapshot(usize, AccessSize, u64),
    Restore,
    FirstDifference(usize, usize),
}

/// An offset into the mapping; half the draws land on page offsets
/// 4088..4096, where an access of up to 8 bytes can straddle a boundary.
fn offset() -> impl Strategy<Value = usize> {
    (0..SIZE / PAGE_SIZE + 1, any::<bool>(), 0..PAGE_SIZE).prop_map(|(page, edge, at)| {
        let in_page = if edge { PAGE_SIZE - 8 + at % 8 } else { at };
        (page * PAGE_SIZE + in_page).min(SIZE - 1)
    })
}

fn access_size() -> impl Strategy<Value = AccessSize> {
    prop_oneof![
        Just(AccessSize::B1),
        Just(AccessSize::B4),
        Just(AccessSize::B8)
    ]
}

/// Values are zero a third of the time, so that written pages holding
/// only zeros occur.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), any::<u64>(), any::<u8>().prop_map(u64::from)]
}

/// A length of up to four pages: whole-page, multi-page and partial spans.
fn span_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        0..4 * PAGE_SIZE,
        (1usize..4).prop_map(|n| n * PAGE_SIZE),
        2 * PAGE_SIZE + 1..3 * PAGE_SIZE + 2
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (offset(), access_size(), value()).prop_map(|(o, s, v)| Op::Write(o, s, v)),
        (offset(), access_size()).prop_map(|(o, s)| Op::Read(o, s)),
        (offset(), span_len(), any::<u8>()).prop_map(|(o, n, seed)| Op::WriteBytes(o, n, seed)),
        (offset(), span_len(), any::<bool>()).prop_map(|(o, n, aligned)| {
            let o = if aligned {
                o / PAGE_SIZE * PAGE_SIZE
            } else {
                o
            };
            Op::ZeroRange(o, n)
        }),
        Just(Op::Snapshot),
        (offset(), access_size(), value()).prop_map(|(o, s, v)| Op::WriteSnapshot(o, s, v)),
        Just(Op::Restore),
        (offset(), offset()).prop_map(|(a, b)| Op::FirstDifference(a.min(b), a.max(b) + 1)),
    ]
}

/// Clamps `off..off+len` into the mapping, keeping `len` where it fits.
fn fit(off: usize, len: usize) -> usize {
    off.min(SIZE - len.min(SIZE))
}

fn model_write(model: &mut [u8], off: usize, size: AccessSize, v: u64) {
    let n = size.bytes() as usize;
    model[off..off + n].copy_from_slice(&v.to_le_bytes()[..n]);
}

fn model_read(model: &[u8], off: usize, size: AccessSize) -> u64 {
    let mut buf = [0u8; 8];
    let n = size.bytes() as usize;
    buf[..n].copy_from_slice(&model[off..off + n]);
    u64::from_le_bytes(buf)
}

fn naive_first_difference(a: &[u8], b: &[u8], lo: usize, hi: usize) -> Option<usize> {
    (lo..hi).find(|&i| a[i] != b[i])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

    /// Every operation leaves the memory and the model byte-identical, on
    /// the live side and on the snapshot side.
    #[test]
    fn paged_memory_matches_flat_model(ops in prop::collection::vec(op(), 1..48)) {
        let mut mem = FlatMem::new(BASE, SIZE);
        let mut model = vec![0u8; SIZE];
        let mut snap = (FlatMem::new(BASE, SIZE), vec![0u8; SIZE]);
        for op in ops {
            match op {
                Op::Write(off, size, v) => {
                    let off = fit(off, size.bytes() as usize);
                    mem.write(BASE + off as u64, size, v);
                    model_write(&mut model, off, size, v);
                }
                Op::Read(off, size) => {
                    let off = fit(off, size.bytes() as usize);
                    prop_assert_eq!(mem.read(BASE + off as u64, size), model_read(&model, off, size));
                }
                Op::WriteBytes(off, len, seed) => {
                    let off = fit(off, len);
                    let len = len.min(SIZE - off);
                    let data: Vec<u8> =
                        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect();
                    mem.write_bytes(BASE + off as u64, &data);
                    model[off..off + len].copy_from_slice(&data);
                }
                Op::ZeroRange(off, len) => {
                    let len = len.min(SIZE - off);
                    mem.zero_range(BASE + off as u64, len as u64);
                    model[off..off + len].fill(0);
                }
                Op::Snapshot => snap = (mem.clone(), model.clone()),
                Op::WriteSnapshot(off, size, v) => {
                    let off = fit(off, size.bytes() as usize);
                    snap.0.write(BASE + off as u64, size, v);
                    model_write(&mut snap.1, off, size, v);
                }
                Op::Restore => (mem, model) = (snap.0.clone(), snap.1.clone()),
                Op::FirstDifference(lo, hi) => {
                    let want = naive_first_difference(&model, &snap.1, lo, hi);
                    prop_assert_eq!(mem.first_difference(&snap.0, lo, hi), want);
                    prop_assert_eq!(snap.0.first_difference(&mem, lo, hi), want);
                }
            }
            prop_assert_eq!(mem.bytes(0, SIZE), model.clone());
            prop_assert_eq!(snap.0.bytes(0, SIZE), snap.1.clone());
            let whole = naive_first_difference(&model, &snap.1, 0, SIZE);
            prop_assert_eq!(mem.first_difference(&snap.0, 0, SIZE), whole);
        }
    }
}

/// A page written with zeros holds a buffer, the same page of another
/// memory holds none; the two still compare equal, and a nonzero byte on
/// either side is found at its offset.
#[test]
fn zero_written_page_equals_unwritten_page() {
    let mut a = FlatMem::new(0, 3 * PAGE_SIZE);
    let b = FlatMem::new(0, 3 * PAGE_SIZE);
    a.write_bytes(PAGE_SIZE as u64, &[0; PAGE_SIZE]);
    assert_eq!(a.first_difference(&b, 0, 3 * PAGE_SIZE), None);
    assert_eq!(b.first_difference(&a, 0, 3 * PAGE_SIZE), None);
    a.write(PAGE_SIZE as u64 + 77, AccessSize::B1, 5);
    assert_eq!(
        a.first_difference(&b, 0, 3 * PAGE_SIZE),
        Some(PAGE_SIZE + 77)
    );
    assert_eq!(b.first_difference(&a, PAGE_SIZE + 78, 3 * PAGE_SIZE), None);
}
