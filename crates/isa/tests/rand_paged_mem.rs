//! Randomized property tests for `PagedMem` against a naive byte model:
//! a `BTreeMap` from address to byte, where an absent address reads 0.
//! Addresses cluster around page boundaries and the top of the address
//! space, so straddling and wrapping accesses are common.

use std::collections::{BTreeMap, BTreeSet};

use blackjack_isa::PagedMem;
use blackjack_rng::Rng;

const PAGE: u64 = 4096;
const CASES: usize = 100;
const OPS: usize = 200;

/// The reference: every written byte, plus the pages writes have touched.
#[derive(Default, Clone)]
struct Model {
    bytes: BTreeMap<u64, u8>,
    pages: BTreeSet<u64>,
}

impl Model {
    fn write(&mut self, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            let a = addr.wrapping_add(i as u64);
            self.bytes.insert(a, b);
            self.pages.insert(a / PAGE);
        }
    }

    fn read(&self, addr: u64, n: u64) -> u64 {
        (0..n).fold(0, |acc, i| {
            let b = self.bytes.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            acc | (u64::from(b) << (8 * i))
        })
    }

    fn byte(&self, addr: u64) -> u8 {
        self.bytes.get(&addr).copied().unwrap_or(0)
    }

    /// Lowest address at which two models read differently.
    fn first_difference(&self, other: &Model) -> Option<u64> {
        let addrs: BTreeSet<u64> = self.bytes.keys().chain(other.bytes.keys()).copied().collect();
        addrs.into_iter().find(|&a| self.byte(a) != other.byte(a))
    }
}

/// An address near a page boundary, near `u64::MAX`, near 0, or anywhere
/// in a handful of pages.
fn addr(rng: &mut Rng) -> u64 {
    match rng.random_range(0..4u32) {
        0 => (rng.random_range(1..5u64) * PAGE).wrapping_add(rng.random_range(0..16u64)) - 8,
        1 => u64::MAX - rng.random_range(0..16u64),
        2 => rng.random_range(0..64u64),
        _ => rng.random_range(0..6 * PAGE),
    }
}

fn size(rng: &mut Rng) -> u64 {
    [1, 4, 8][rng.random_range(0..3usize)]
}

/// One random write to both the memory and the model.
fn random_write(rng: &mut Rng, mem: &mut PagedMem, model: &mut Model) {
    let a = addr(rng);
    match rng.random_range(0..6u32) {
        0 => {
            let v = rng.next_u32() as u8;
            mem.write_u8(a, v);
            model.write(a, &[v]);
        }
        1 => {
            let v = rng.next_u32();
            mem.write_u32(a, v);
            model.write(a, &v.to_le_bytes());
        }
        2 => {
            let v = rng.next_u64();
            mem.write_u64(a, v);
            model.write(a, &v.to_le_bytes());
        }
        3 => {
            let (n, v) = (size(rng), rng.next_u64());
            mem.write_sized(a, n, v);
            model.write(a, &v.to_le_bytes()[..n as usize]);
        }
        _ => {
            // Mostly short; sometimes up to three pages, so the spans
            // cover a whole middle page.
            let max = if rng.random_bool(0.2) { 3 * PAGE as usize } else { 64 };
            let len = rng.random_range(0..max);
            let zeros = rng.random_bool(0.25);
            let data: Vec<u8> =
                (0..len).map(|_| if zeros { 0 } else { rng.next_u32() as u8 }).collect();
            mem.write_bytes(a, &data);
            model.write(a, &data);
        }
    }
}

/// One random read, checked against the model; reads never allocate.
fn random_read(rng: &mut Rng, mem: &PagedMem, model: &Model) {
    let a = addr(rng);
    let before = mem.page_count();
    match rng.random_range(0..5u32) {
        0 => assert_eq!(u64::from(mem.read_u8(a)), model.read(a, 1), "read_u8 {a:#x}"),
        1 => assert_eq!(u64::from(mem.read_u32(a)), model.read(a, 4), "read_u32 {a:#x}"),
        2 => assert_eq!(mem.read_u64(a), model.read(a, 8), "read_u64 {a:#x}"),
        3 => {
            let n = size(rng);
            assert_eq!(mem.read_sized(a, n), model.read(a, n), "read_sized {a:#x}/{n}");
        }
        _ => {
            let got = u64::from_le_bytes(mem.read_bytes::<8>(a));
            assert_eq!(got, model.read(a, 8), "read_bytes {a:#x}");
        }
    }
    assert_eq!(mem.page_count(), before, "a read allocated a page");
}

#[test]
fn random_ops_match_byte_model() {
    let mut rng = Rng::seed_from_u64(0x9A6E);
    for case in 0..CASES {
        let (mut mem, mut model) = (PagedMem::new(), Model::default());
        for _ in 0..OPS {
            if rng.random_bool(0.5) {
                random_write(&mut rng, &mut mem, &mut model);
            } else {
                random_read(&mut rng, &mem, &model);
            }
            assert_eq!(mem.page_count(), model.pages.len(), "case {case}: page_count");
        }
        // Every byte the model holds reads back.
        for (&a, &b) in &model.bytes {
            assert_eq!(mem.read_u8(a), b, "case {case}: byte {a:#x}");
        }
    }
}

#[test]
fn first_difference_is_the_lowest_differing_address() {
    let mut rng = Rng::seed_from_u64(0xD1FF);
    for case in 0..CASES {
        let (mut a, mut ma) = (PagedMem::new(), Model::default());
        for _ in 0..rng.random_range(0..20usize) {
            random_write(&mut rng, &mut a, &mut ma);
        }
        let (mut b, mut mb) = (a.clone(), ma.clone());
        // A few writes to either side only; some rewrite equal bytes, and
        // some land on pages the other side never touched.
        for _ in 0..rng.random_range(0..4usize) {
            if rng.random_bool(0.5) {
                random_write(&mut rng, &mut a, &mut ma);
            } else {
                random_write(&mut rng, &mut b, &mut mb);
            }
        }
        let want = ma.first_difference(&mb);
        assert_eq!(a.first_difference(&b), want, "case {case}");
        assert_eq!(b.first_difference(&a), want, "case {case}: symmetric");
        assert_eq!(a.first_difference(&a), None, "case {case}: reflexive");
    }
}

#[test]
fn first_difference_treats_absent_pages_as_zero() {
    let empty = PagedMem::new();

    // A zero-filled page equals an absent one, though only one side has it.
    let mut zeroed = PagedMem::new();
    zeroed.write_bytes(3 * PAGE, &[0; PAGE as usize]);
    zeroed.write_u64(u64::MAX - 3, 0);
    assert_eq!(zeroed.page_count(), 3);
    assert_eq!(zeroed.first_difference(&empty), None);
    assert_eq!(empty.first_difference(&zeroed), None);

    // A page present on one side only differs at its first nonzero byte,
    // and the lowest such address wins across pages.
    let mut one_side = zeroed.clone();
    one_side.write_u8(5 * PAGE + 17, 1);
    one_side.write_u8(3 * PAGE + 4000, 2);
    assert_eq!(one_side.first_difference(&empty), Some(3 * PAGE + 4000));
    assert_eq!(empty.first_difference(&one_side), Some(3 * PAGE + 4000));
    assert_eq!(one_side.first_difference(&zeroed), Some(3 * PAGE + 4000));
}
