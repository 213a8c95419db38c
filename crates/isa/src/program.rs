//! Program images: encoded text, initialized data, and an entry point.

use crate::encode::{decode, encode, DecodeError, EncodeError};
use crate::inst::Inst;
use crate::mem::PagedMem;
use crate::INST_BYTES;

/// Default base address of the text segment.
pub const TEXT_BASE: u64 = 0x1_0000;
/// Default base address of the data segment.
pub const DATA_BASE: u64 = 0x10_0000;
/// Default initial stack pointer (grows down; `x2` by convention).
pub const STACK_TOP: u64 = 0x80_0000;

/// An executable program image for the BJ-ISA.
///
/// Produced by the assembler ([`crate::asm::assemble`]) or programmatically
/// via [`ProgramBuilder`]. Consumed by the interpreter and by the timing
/// simulator, which both load it into a [`PagedMem`].
#[derive(Debug, Clone)]
pub struct Program {
    /// Human-readable name (workloads set this to the benchmark name).
    pub name: String,
    text: Vec<u32>,
    text_base: u64,
    data: Vec<u8>,
    data_base: u64,
    entry: u64,
}

impl Program {
    /// Base address of the text segment.
    pub fn text_base(&self) -> u64 {
        self.text_base
    }

    /// Base address of the data segment.
    pub fn data_base(&self) -> u64 {
        self.data_base
    }

    /// Entry-point PC.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// The encoded instruction words.
    pub fn text(&self) -> &[u32] {
        &self.text
    }

    /// The initialized data image.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Loads text and data into a fresh memory image.
    pub fn load(&self) -> PagedMem {
        let mut mem = PagedMem::new();
        self.load_into(&mut mem);
        mem
    }

    /// Loads text and data into an existing memory image.
    pub fn load_into(&self, mem: &mut PagedMem) {
        for (i, w) in self.text.iter().enumerate() {
            mem.write_u32(self.text_base + (i as u64) * INST_BYTES, *w);
        }
        mem.write_bytes(self.data_base, &self.data);
    }

    /// The encoded instruction word at `pc`, or `None` outside the text
    /// segment.
    pub fn fetch(&self, pc: u64) -> Option<u32> {
        if pc < self.text_base || !pc.is_multiple_of(INST_BYTES) {
            return None;
        }
        let idx = ((pc - self.text_base) / INST_BYTES) as usize;
        self.text.get(idx).copied()
    }

    /// Decodes the whole text segment.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`]; programs produced by the
    /// assembler or [`ProgramBuilder`] always decode.
    pub fn decode_all(&self) -> Result<Vec<Inst>, DecodeError> {
        self.text.iter().map(|&w| decode(w)).collect()
    }

    /// A copy of this program with the text segment replaced, keeping the
    /// name, layout, and data image.
    ///
    /// This is the minimizer's rebuild hook: case reduction replaces
    /// instructions in place (rather than deleting them) so every PC and
    /// branch offset stays valid.
    pub fn with_text(&self, text: Vec<u32>) -> Program {
        Program { text, ..self.clone() }
    }
}

/// Builder for constructing [`Program`]s directly from decoded instructions.
///
/// The assembler is the usual front door; the builder is used by the
/// workload generators and by tests that synthesize programs.
///
/// # Example
///
/// ```
/// use blackjack_isa::{Inst, ProgramBuilder, Reg, AluOp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new("demo");
/// b.push(Inst::AluImm { op: AluOp::Add, rd: Reg::new(1), rs1: Reg::ZERO, imm: 5 })?;
/// b.push(Inst::Halt)?;
/// let prog = b.build();
/// assert_eq!(prog.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    text: Vec<u32>,
    data: Vec<u8>,
    text_base: u64,
    data_base: u64,
}

impl ProgramBuilder {
    /// Creates a builder with the default segment layout.
    pub fn new(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            text: Vec::new(),
            data: Vec::new(),
            text_base: TEXT_BASE,
            data_base: DATA_BASE,
        }
    }

    /// Overrides the text base address.
    pub fn text_base(&mut self, base: u64) -> &mut Self {
        self.text_base = base;
        self
    }

    /// Overrides the data base address.
    pub fn data_base(&mut self, base: u64) -> &mut Self {
        self.data_base = base;
        self
    }

    /// Appends an instruction, returning its PC.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if the instruction cannot be encoded.
    pub fn push(&mut self, inst: Inst) -> Result<u64, EncodeError> {
        let pc = self.next_pc();
        self.text.push(encode(&inst)?);
        Ok(pc)
    }

    /// Re-encodes the instruction at index `idx` (0-based, in push order).
    ///
    /// Program generators use this to backpatch forward branches: push a
    /// placeholder, generate the body, then patch the real offset once the
    /// target PC is known.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if the new instruction cannot be encoded;
    /// the old word is left in place.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn patch(&mut self, idx: usize, inst: Inst) -> Result<(), EncodeError> {
        let word = encode(&inst)?;
        self.text[idx] = word;
        Ok(())
    }

    /// Appends a pre-encoded instruction word, returning its PC.
    pub fn push_raw(&mut self, word: u32) -> u64 {
        let pc = self.next_pc();
        self.text.push(word);
        pc
    }

    /// The PC the next pushed instruction will occupy.
    pub fn next_pc(&self) -> u64 {
        self.text_base + (self.text.len() as u64) * INST_BYTES
    }

    /// Number of instructions pushed so far.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// True if no instructions have been pushed.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Appends raw bytes to the data segment, returning their address.
    pub fn push_data(&mut self, bytes: &[u8]) -> u64 {
        let addr = self.data_base + self.data.len() as u64;
        self.data.extend_from_slice(bytes);
        addr
    }

    /// Appends a `u64` to the data segment, returning its address.
    pub fn push_data_u64(&mut self, v: u64) -> u64 {
        self.push_data(&v.to_le_bytes())
    }

    /// Appends an `f64` to the data segment, returning its address.
    pub fn push_data_f64(&mut self, v: f64) -> u64 {
        self.push_data(&v.to_le_bytes())
    }

    /// Reserves `n` zero bytes in the data segment, returning their address.
    pub fn reserve_data(&mut self, n: usize) -> u64 {
        let addr = self.data_base + self.data.len() as u64;
        self.data.resize(self.data.len() + n, 0);
        addr
    }

    /// Finalizes the program; entry is the first instruction.
    pub fn build(self) -> Program {
        Program {
            name: self.name,
            entry: self.text_base,
            text: self.text,
            text_base: self.text_base,
            data: self.data,
            data_base: self.data_base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::AluOp;
    use crate::reg::Reg;

    #[test]
    fn builder_layout() {
        let mut b = ProgramBuilder::new("t");
        assert_eq!(b.next_pc(), TEXT_BASE);
        let pc0 = b.push(Inst::Nop).unwrap();
        let pc1 = b.push(Inst::Halt).unwrap();
        assert_eq!(pc0, TEXT_BASE);
        assert_eq!(pc1, TEXT_BASE + 4);
        let p = b.build();
        assert_eq!(p.entry(), TEXT_BASE);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn data_addresses() {
        let mut b = ProgramBuilder::new("t");
        let a0 = b.push_data_u64(7);
        let a1 = b.push_data_f64(1.5);
        let a2 = b.reserve_data(16);
        assert_eq!(a0, DATA_BASE);
        assert_eq!(a1, DATA_BASE + 8);
        assert_eq!(a2, DATA_BASE + 16);
        b.push(Inst::Halt).unwrap();
        let p = b.build();
        let mem = p.load();
        assert_eq!(mem.read_u64(a0), 7);
        assert_eq!(f64::from_bits(mem.read_u64(a1)), 1.5);
        assert_eq!(mem.read_u64(a2), 0);
    }

    #[test]
    fn fetch_bounds() {
        let mut b = ProgramBuilder::new("t");
        b.push(Inst::AluImm { op: AluOp::Add, rd: Reg::new(1), rs1: Reg::ZERO, imm: 1 })
            .unwrap();
        b.push(Inst::Halt).unwrap();
        let p = b.build();
        assert!(p.fetch(p.entry()).is_some());
        assert!(p.fetch(p.entry() + 4).is_some());
        assert!(p.fetch(p.entry() + 8).is_none(), "past end");
        assert!(p.fetch(p.entry() - 4).is_none(), "before start");
        assert!(p.fetch(p.entry() + 2).is_none(), "misaligned");
    }

    #[test]
    fn patch_rewrites_in_place() {
        let mut b = ProgramBuilder::new("t");
        b.push(Inst::Nop).unwrap();
        b.push(Inst::Halt).unwrap();
        b.patch(0, Inst::AluImm { op: AluOp::Add, rd: Reg::new(3), rs1: Reg::ZERO, imm: 9 })
            .unwrap();
        let p = b.build();
        let insts = p.decode_all().unwrap();
        assert_eq!(insts.len(), 2);
        assert!(matches!(insts[0], Inst::AluImm { imm: 9, .. }));
        assert!(matches!(insts[1], Inst::Halt));
    }

    #[test]
    fn push_raw_round_trips() {
        let mut b = ProgramBuilder::new("t");
        let word = encode(&Inst::Halt).unwrap();
        let pc = b.push_raw(word);
        assert_eq!(pc, TEXT_BASE);
        let p = b.build();
        assert_eq!(p.text()[0], word);
        assert!(matches!(p.decode_all().unwrap()[0], Inst::Halt));
    }

    #[test]
    fn with_text_keeps_layout() {
        let mut b = ProgramBuilder::new("t");
        b.push_data_u64(42);
        b.push(Inst::Nop).unwrap();
        b.push(Inst::Halt).unwrap();
        let p = b.build();
        let halt = encode(&Inst::Halt).unwrap();
        let q = p.with_text(vec![halt]);
        assert_eq!(q.name, p.name);
        assert_eq!(q.entry(), p.entry());
        assert_eq!(q.data_base(), p.data_base());
        assert_eq!(q.data(), p.data());
        assert_eq!(q.len(), 1);
        assert!(matches!(q.decode_all().unwrap()[0], Inst::Halt));
        // The original is untouched.
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn load_places_text() {
        let mut b = ProgramBuilder::new("t");
        b.push(Inst::Halt).unwrap();
        let p = b.build();
        let mem = p.load();
        assert_eq!(mem.read_u32(p.entry()), p.text()[0]);
    }
}
