//! Functional memory.
//!
//! Both the golden interpreter and the timing simulators operate on a single
//! flat byte store. The timing layers (`virec-mem`) model *when* an access
//! completes; this module models *what* it returns. Keeping the functional
//! state in one place lets the differential tests compare final memory
//! images byte-for-byte.
//!
//! The store is flat in its API and paged underneath: [`FlatMem`] keeps a
//! table of lazily allocated 4 KiB pages, so a 16 MiB core span that a
//! kernel writes a few KiB of costs a few KiB to build, clone, digest and
//! compare.

use crate::instr::AccessSize;

/// Byte-addressable functional memory.
pub trait DataMemory {
    /// Reads `size` bytes at `addr`, zero-extended to 64 bits.
    fn read(&self, addr: u64, size: AccessSize) -> u64;
    /// Writes the low `size` bytes of `value` at `addr`.
    fn write(&mut self, addr: u64, size: AccessSize, value: u64);
}

/// Size in bytes of one page of a [`FlatMem`].
pub const PAGE_SIZE: usize = 4096;

/// A flat, contiguous memory starting at a base address.
///
/// The API is flat, but the bytes live in a table of lazily allocated
/// [`PAGE_SIZE`] pages: a page no write has touched holds no buffer and
/// reads as zero. Building an image, cloning it (checkpoints), digesting
/// it ([`FlatMem::chunks`]) and comparing it ([`FlatMem::first_difference`])
/// therefore cost only the pages a run wrote, not the whole mapping. Pages
/// are never shared: a clone deep-copies every written page, so a clone
/// and its source cannot observe each other's writes.
///
/// Accesses outside the mapped range panic — out-of-range addresses in the
/// simulator indicate a kernel or machinery bug and must not be silently
/// absorbed.
#[derive(Clone)]
pub struct FlatMem {
    base: u64,
    size: usize,
    pages: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
}

/// One page-bounded piece of a range of a [`FlatMem`], as yielded by
/// [`FlatMem::chunks`].
#[derive(Clone, Copy, Debug)]
pub enum Chunk<'a> {
    /// This many bytes of a page no write has touched, all zero.
    Zeros(usize),
    /// The bytes of a written page.
    Bytes(&'a [u8]),
}

impl Chunk<'_> {
    /// Number of bytes the chunk covers.
    fn len(&self) -> usize {
        match self {
            Chunk::Zeros(n) => *n,
            Chunk::Bytes(b) => b.len(),
        }
    }
}

impl FlatMem {
    /// Creates a zero-filled memory of `size` bytes mapped at `base`.
    pub fn new(base: u64, size: usize) -> FlatMem {
        FlatMem {
            base,
            size,
            pages: vec![None; size.div_ceil(PAGE_SIZE)],
        }
    }

    /// Base address of the mapping.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size of the mapping in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// One-past-the-end address of the mapping.
    pub fn end(&self) -> u64 {
        self.base + self.size as u64
    }

    /// Whether `addr..addr+len` lies within the mapping (false, not an
    /// overflow, when the span wraps the address space).
    pub fn contains(&self, addr: u64, len: u64) -> bool {
        addr >= self.base && addr.checked_add(len).is_some_and(|hi| hi <= self.end())
    }

    #[inline]
    fn offset(&self, addr: u64, len: u64) -> usize {
        assert!(
            self.contains(addr, len),
            "memory access out of range: addr={addr:#x} len={len} (mapped {:#x}..{:#x})",
            self.base,
            self.end()
        );
        (addr - self.base) as usize
    }

    /// Checks that the offsets `lo..hi` from the base lie within the
    /// mapping, with the same message as an out-of-range access.
    fn check_span(&self, lo: usize, hi: usize) {
        assert!(lo <= hi, "memory span reversed: {lo:#x}..{hi:#x}");
        self.offset(self.base + lo as u64, (hi - lo) as u64);
    }

    /// The byte at offset `off`.
    fn byte(&self, off: usize) -> u8 {
        self.pages[off / PAGE_SIZE]
            .as_ref()
            .map_or(0, |page| page[off % PAGE_SIZE])
    }

    /// Page `page`, allocated (zeroed) on its first write.
    fn page_mut(&mut self, page: usize) -> &mut [u8; PAGE_SIZE] {
        self.pages[page].get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Splits the offsets `lo..hi` at page boundaries into
    /// `(page, start, end)` pieces, `start..end` within the page.
    fn pieces(lo: usize, hi: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        let mut at = lo;
        std::iter::from_fn(move || {
            (at < hi).then(|| {
                let (page, start) = (at / PAGE_SIZE, at % PAGE_SIZE);
                let end = PAGE_SIZE.min(start + (hi - at));
                at += end - start;
                (page, start, end)
            })
        })
    }

    /// Reads a `u64` at `addr`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr, AccessSize::B8)
    }

    /// Writes a `u64` at `addr`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, AccessSize::B8, value);
    }

    /// The offsets `lo..hi` from the base, split at page boundaries: a
    /// page no write has touched comes as [`Chunk::Zeros`], a written one
    /// as its bytes.
    ///
    /// # Panics
    /// Panics if `lo..hi` is not within the mapping.
    pub fn chunks(&self, lo: usize, hi: usize) -> impl Iterator<Item = Chunk<'_>> {
        self.check_span(lo, hi);
        Self::pieces(lo, hi).map(|(page, start, end)| match &self.pages[page] {
            None => Chunk::Zeros(end - start),
            Some(bytes) => Chunk::Bytes(&bytes[start..end]),
        })
    }

    /// A copy of the bytes at offsets `lo..hi` from the base.
    ///
    /// # Panics
    /// Panics if `lo..hi` is not within the mapping.
    pub fn bytes(&self, lo: usize, hi: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(hi.saturating_sub(lo));
        for chunk in self.chunks(lo, hi) {
            match chunk {
                Chunk::Zeros(n) => out.resize(out.len() + n, 0),
                Chunk::Bytes(b) => out.extend_from_slice(b),
            }
        }
        out
    }

    /// The first offset in `lo..hi` (from the base) at which `self` and
    /// `other` hold different bytes, or `None` if the ranges are equal.
    /// Pages neither side wrote are skipped without a scan.
    ///
    /// # Panics
    /// Panics if `lo..hi` is not within both mappings.
    pub fn first_difference(&self, other: &FlatMem, lo: usize, hi: usize) -> Option<usize> {
        let mut at = lo;
        for (a, b) in self.chunks(lo, hi).zip(other.chunks(lo, hi)) {
            let hit = match (a, b) {
                (Chunk::Zeros(_), Chunk::Zeros(_)) => None,
                (Chunk::Bytes(x), Chunk::Zeros(_)) | (Chunk::Zeros(_), Chunk::Bytes(x)) => {
                    x.iter().position(|&v| v != 0)
                }
                (Chunk::Bytes(x), Chunk::Bytes(y)) => x.iter().zip(y).position(|(p, q)| p != q),
            };
            if let Some(i) = hit {
                return Some(at + i);
            }
            at += a.len();
        }
        None
    }

    /// Copies a slice into memory at `addr`.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let off = self.offset(addr, data.len() as u64);
        let mut src = data;
        for (page, start, end) in Self::pieces(off, off + data.len()) {
            let (head, rest) = src.split_at(end - start);
            self.page_mut(page)[start..end].copy_from_slice(head);
            src = rest;
        }
    }

    /// Zeroes `len` bytes at `addr`: pages the range covers whole are
    /// released, partly covered ones are zero-filled in place.
    pub fn zero_range(&mut self, addr: u64, len: u64) {
        let off = self.offset(addr, len);
        for (page, start, end) in Self::pieces(off, off + len as usize) {
            let mapped = PAGE_SIZE.min(self.size - page * PAGE_SIZE);
            let slot = &mut self.pages[page];
            if start == 0 && end == mapped {
                *slot = None;
            } else if let Some(bytes) = slot {
                bytes[start..end].fill(0);
            }
        }
    }
}

impl DataMemory for FlatMem {
    fn read(&self, addr: u64, size: AccessSize) -> u64 {
        let n = size.bytes() as usize;
        let off = self.offset(addr, n as u64);
        let start = off % PAGE_SIZE;
        if start + n > PAGE_SIZE {
            return (0..n).fold(0, |v, i| v | (self.byte(off + i) as u64) << (8 * i));
        }
        match &self.pages[off / PAGE_SIZE] {
            None => 0,
            Some(page) => {
                let mut buf = [0u8; 8];
                buf[..n].copy_from_slice(&page[start..start + n]);
                u64::from_le_bytes(buf)
            }
        }
    }

    fn write(&mut self, addr: u64, size: AccessSize, value: u64) {
        let n = size.bytes() as usize;
        let off = self.offset(addr, n as u64);
        let start = off % PAGE_SIZE;
        let bytes = value.to_le_bytes();
        if start + n > PAGE_SIZE {
            for (at, &b) in (off..).zip(&bytes[..n]) {
                self.page_mut(at / PAGE_SIZE)[at % PAGE_SIZE] = b;
            }
            return;
        }
        self.page_mut(off / PAGE_SIZE)[start..start + n].copy_from_slice(&bytes[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_all_sizes() {
        let mut m = FlatMem::new(0x1000, 64);
        m.write(0x1000, AccessSize::B8, 0x1122334455667788);
        assert_eq!(m.read(0x1000, AccessSize::B8), 0x1122334455667788);
        assert_eq!(m.read(0x1000, AccessSize::B4), 0x55667788);
        assert_eq!(m.read(0x1000, AccessSize::B1), 0x88);
        m.write(0x1004, AccessSize::B1, 0xFF);
        assert_eq!(m.read(0x1000, AccessSize::B8), 0x112233FF55667788);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = FlatMem::new(0, 8);
        m.write(0, AccessSize::B4, 0xAABBCCDD);
        assert_eq!(m.bytes(0, 4), [0xDD, 0xCC, 0xBB, 0xAA]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let m = FlatMem::new(0x1000, 8);
        let _ = m.read(0x0FFF, AccessSize::B1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn straddling_end_panics() {
        let m = FlatMem::new(0x1000, 8);
        let _ = m.read(0x1004, AccessSize::B8);
    }

    #[test]
    fn contains_checks_bounds() {
        let m = FlatMem::new(0x100, 16);
        assert!(m.contains(0x100, 16));
        assert!(!m.contains(0x100, 17));
        assert!(!m.contains(0xFF, 1));
        assert!(m.contains(0x10F, 1));
        assert!(!m.contains(u64::MAX - 3, 8));
    }

    #[test]
    fn write_bytes_bulk() {
        let mut m = FlatMem::new(0, 16);
        m.write_bytes(4, &[1, 2, 3, 4]);
        assert_eq!(m.read(4, AccessSize::B4), 0x04030201);
    }
}
