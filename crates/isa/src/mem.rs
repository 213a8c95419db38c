//! Sparse byte-addressable memory backing both the interpreter and the
//! timing simulator's data state.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

type Page = [u8; PAGE_SIZE];

/// What every absent page reads as.
static ZERO_PAGE: Page = [0; PAGE_SIZE];

/// Hashes a page number with one multiply by 2^64 / φ (Fibonacci
/// hashing). Keys are page numbers the simulated program computes, not
/// input crafted to collide, so SipHash's flood protection buys nothing
/// here. An odd multiplier keeps consecutive pages in distinct buckets and
/// spreads them into the high bits the table's tag byte is taken from.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A sparse, paged, byte-addressable 64-bit memory.
///
/// The image is a directory of 4 KiB pages keyed by page number (a
/// `HashMap` with a one-multiply hasher, so an image stays as small as the
/// pages a program touches). Every access does one directory lookup per
/// page it spans: reads copy their bytes out of one page slice and writes
/// copy them into one, so only an access that straddles a page boundary
/// (including one that wraps past `u64::MAX` to address 0) touches two.
/// Multi-byte accesses are little-endian.
///
/// Three invariants hold:
///
/// * **Reads never allocate.** An absent page reads from a shared static
///   zero page; only writes add pages, so [`PagedMem::page_count`] counts
///   the pages written.
/// * **An absent page equals the zero page.** Any address is readable and
///   reads 0 until written, and [`PagedMem::first_difference`] treats a
///   page present on one side only as compared against zeros — writing
///   zeros never makes two images differ.
/// * **[`PagedMem::first_difference`] returns the lowest differing
///   address**, whatever order the pages were touched in.
///
/// # Example
///
/// ```
/// use blackjack_isa::PagedMem;
///
/// let mut m = PagedMem::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x2000), 0, "untouched memory reads zero");
/// assert_eq!(m.page_count(), 1, "reads do not allocate");
/// ```
#[derive(Debug, Clone, Default)]
pub struct PagedMem {
    pages: HashMap<u64, Box<Page>, BuildHasherDefault<PageHasher>>,
}

impl PagedMem {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> PagedMem {
        PagedMem::default()
    }

    /// Number of distinct pages written so far.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The page numbered `page`, or the zero page if it was never written.
    fn page(&self, page: u64) -> &Page {
        self.pages.get(&page).map_or(&ZERO_PAGE, |p| p)
    }

    /// The page numbered `page`, allocated zeroed on first touch.
    fn page_mut(&mut self, page: u64) -> &mut Page {
        self.pages.entry(page).or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr >> PAGE_SHIFT)[(addr & PAGE_MASK) as usize]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.page_mut(addr >> PAGE_SHIFT)[(addr & PAGE_MASK) as usize] = val;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    pub fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            out.copy_from_slice(&self.page(addr >> PAGE_SHIFT)[off..off + N]);
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
        }
        out
    }

    /// Writes bytes starting at `addr`, one page span at a time.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = bytes.len().min(PAGE_SIZE - off);
            self.page_mut(addr >> PAGE_SHIFT)[off..off + n].copy_from_slice(&bytes[..n]);
            addr = addr.wrapping_add(n as u64);
            bytes = &bytes[n..];
        }
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes::<4>(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, val: u32) {
        self.write_bytes(addr, &val.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes::<8>(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_bytes(addr, &val.to_le_bytes());
    }

    /// Reads `size` bytes (1, 4, or 8) zero-extended into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 4, or 8.
    pub fn read_sized(&self, addr: u64, size: u64) -> u64 {
        match size {
            1 => self.read_u8(addr) as u64,
            4 => self.read_u32(addr) as u64,
            8 => self.read_u64(addr),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Writes the low `size` bytes (1, 4, or 8) of `val`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 4, or 8.
    pub fn write_sized(&mut self, addr: u64, size: u64, val: u64) {
        match size {
            1 => self.write_u8(addr, val as u8),
            4 => self.write_u32(addr, val as u32),
            8 => self.write_u64(addr, val),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Compares two memories, returning the lowest differing address if
    /// any. A page present on one side only is compared against zeros.
    /// Used by differential tests.
    pub fn first_difference(&self, other: &PagedMem) -> Option<u64> {
        let mut pages: Vec<u64> = self.pages.keys().chain(other.pages.keys()).copied().collect();
        pages.sort_unstable();
        pages.dedup();
        pages.into_iter().find_map(|p| {
            let (a, b) = (self.page(p), other.page(p));
            if a == b {
                return None;
            }
            let off = a.iter().zip(b).position(|(x, y)| x != y)?;
            Some((p << PAGE_SHIFT) + off as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = PagedMem::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(0xffff_ffff_ffff_fff0), 0);
        assert_eq!(m.page_count(), 0, "reads do not allocate");
    }

    #[test]
    fn rw_roundtrip() {
        let mut m = PagedMem::new();
        m.write_u8(10, 0xab);
        assert_eq!(m.read_u8(10), 0xab);
        m.write_u32(100, 0x1234_5678);
        assert_eq!(m.read_u32(100), 0x1234_5678);
        m.write_u64(200, u64::MAX);
        assert_eq!(m.read_u64(200), u64::MAX);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = PagedMem::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = PagedMem::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles pages 0 and 1
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn sized_access() {
        let mut m = PagedMem::new();
        m.write_sized(0, 8, 0xffff_ffff_ffff_ffff);
        m.write_sized(0, 4, 0x1234_5678);
        assert_eq!(m.read_sized(0, 4), 0x1234_5678);
        assert_eq!(m.read_sized(0, 8), 0xffff_ffff_1234_5678);
        m.write_sized(0, 1, 0);
        assert_eq!(m.read_sized(0, 1), 0);
    }

    #[test]
    fn difference_detection() {
        let mut a = PagedMem::new();
        let mut b = PagedMem::new();
        assert_eq!(a.first_difference(&b), None);
        a.write_u8(5000, 1);
        b.write_u8(5000, 1);
        assert_eq!(a.first_difference(&b), None);
        b.write_u8(6000, 2);
        assert_eq!(a.first_difference(&b), Some(6000));
    }
}
