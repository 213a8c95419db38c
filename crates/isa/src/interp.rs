//! The golden functional interpreter.
//!
//! Executes one instruction per step with no timing model. The
//! out-of-order pipeline in `blackjack-sim` is differentially tested
//! against this interpreter: identical programs must produce identical
//! architectural state (registers, memory, store traces).

use std::error::Error;
use std::fmt;

use crate::encode::DecodeError;
use crate::exec::{effective_addr, exec_nonmem, finish_load, store_data};
use crate::inst::Inst;
use crate::mem::PagedMem;
use crate::program::{Program, STACK_TOP};
use crate::{decode, NUM_FP_REGS, NUM_INT_REGS};

/// The architectural integer register file at program start: all zeros
/// except `x2`, which holds the initial stack pointer.
pub fn initial_int_regs() -> [u64; NUM_INT_REGS] {
    let mut r = [0u64; NUM_INT_REGS];
    r[2] = STACK_TOP;
    r
}

/// Outcome of [`Interp::step`] / [`Interp::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction executed; the program continues.
    Running,
    /// A `halt` committed; the program is finished.
    Halted,
}

/// Execution errors (wild PCs, undecodable words).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The PC left the text segment or was misaligned.
    BadFetch {
        /// The offending PC.
        pc: u64,
    },
    /// The fetched word is not a valid instruction.
    BadDecode {
        /// The PC of the bad word.
        pc: u64,
        /// The decode failure.
        source: DecodeError,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::BadFetch { pc } => write!(f, "instruction fetch from invalid pc {pc:#x}"),
            InterpError::BadDecode { pc, source } => {
                write!(f, "undecodable instruction at pc {pc:#x}: {source}")
            }
        }
    }
}

impl Error for InterpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            InterpError::BadDecode { source, .. } => Some(source),
            InterpError::BadFetch { .. } => None,
        }
    }
}

/// An observable architectural event, recorded when tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecEvent {
    /// A committed store.
    Store {
        /// Effective address.
        addr: u64,
        /// Access size in bytes.
        bytes: u64,
        /// Stored value (width-truncated).
        data: u64,
    },
    /// A committed load.
    Load {
        /// Effective address.
        addr: u64,
        /// Access size in bytes.
        bytes: u64,
        /// Loaded (extended) value.
        data: u64,
    },
    /// A committed control-flow instruction.
    Branch {
        /// PC of the branch.
        pc: u64,
        /// Whether it redirected.
        taken: bool,
        /// The next PC.
        target: u64,
    },
}

/// Per-class dynamic instruction counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Committed instructions per [`crate::FuType`] (indexed by `FuType::index`).
    pub by_fu: [u64; 7],
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed conditional branches.
    pub branches: u64,
    /// Taken conditional branches.
    pub taken_branches: u64,
}

/// The golden functional interpreter for BJ-ISA programs.
///
/// # Example
///
/// ```
/// use blackjack_isa::{asm::assemble, Interp, StepOutcome};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let prog = assemble(".text\n li x5, 41\n addi x5, x5, 1\n halt\n")?;
/// let mut it = Interp::new(&prog);
/// assert_eq!(it.run(100)?, StepOutcome::Halted);
/// assert_eq!(it.reg(5), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Interp {
    pc: u64,
    xregs: [u64; NUM_INT_REGS],
    fregs: [u64; NUM_FP_REGS],
    mem: PagedMem,
    halted: bool,
    icount: u64,
    stats: InterpStats,
    trace: Option<Vec<ExecEvent>>,
}

impl Interp {
    /// Creates an interpreter with `prog` loaded and the PC at its entry.
    pub fn new(prog: &Program) -> Interp {
        Interp {
            pc: prog.entry(),
            xregs: initial_int_regs(),
            fregs: [0u64; NUM_FP_REGS],
            mem: prog.load(),
            halted: false,
            icount: 0,
            stats: InterpStats::default(),
            trace: None,
        }
    }

    /// Enables event tracing (stores, loads, branches).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded events, empty unless [`Interp::enable_trace`] was called.
    pub fn events(&self) -> &[ExecEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Current PC.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Committed instruction count.
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// True once a `halt` has committed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instruction statistics.
    pub fn stats(&self) -> &InterpStats {
        &self.stats
    }

    /// Reads integer register `x<n>`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn reg(&self, n: usize) -> u64 {
        self.xregs[n]
    }

    /// Reads FP register `f<n>` as raw bits.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn freg_bits(&self, n: usize) -> u64 {
        self.fregs[n]
    }

    /// Reads FP register `f<n>` as an `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn freg(&self, n: usize) -> f64 {
        f64::from_bits(self.fregs[n])
    }

    /// Writes integer register `x<n>` (writes to `x0` are ignored).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn set_reg(&mut self, n: usize, v: u64) {
        if n != 0 {
            self.xregs[n] = v;
        }
    }

    /// The memory image.
    pub fn mem(&self) -> &PagedMem {
        &self.mem
    }

    /// All integer registers.
    pub fn int_regs(&self) -> &[u64; NUM_INT_REGS] {
        &self.xregs
    }

    /// All FP registers as raw bits.
    pub fn fp_regs(&self) -> &[u64; NUM_FP_REGS] {
        &self.fregs
    }

    fn read_src(&self, r: crate::reg::LogReg) -> u64 {
        let i = r.index() as usize;
        if r.is_fp() {
            self.fregs[i - 32]
        } else {
            self.xregs[i]
        }
    }

    fn write_dst(&mut self, r: crate::reg::LogReg, v: u64) {
        let i = r.index() as usize;
        if r.is_fp() {
            self.fregs[i - 32] = v;
        } else if i != 0 {
            self.xregs[i] = v;
        }
    }

    fn record(&mut self, ev: ExecEvent) {
        if let Some(t) = &mut self.trace {
            t.push(ev);
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] on invalid fetch or decode; the interpreter
    /// state is unchanged in that case.
    pub fn step(&mut self) -> Result<StepOutcome, InterpError> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let word = if self.pc.is_multiple_of(4) {
            self.mem.read_u32(self.pc)
        } else {
            return Err(InterpError::BadFetch { pc: self.pc });
        };
        let inst = decode(word).map_err(|source| InterpError::BadDecode { pc: self.pc, source })?;

        self.stats.by_fu[inst.fu_type().index()] += 1;
        self.icount += 1;

        if inst.is_mem() {
            let mut srcs = inst.srcs();
            let base = self.read_src(srcs.next().expect("memory op has base register"));
            let addr = effective_addr(&inst, base);
            let bytes = inst.mem_bytes().expect("memory op has a width");
            if inst.is_store() {
                let data_reg = srcs.next().expect("store has data register");
                let data = store_data(&inst, self.read_src(data_reg));
                self.mem.write_sized(addr, bytes, data);
                self.stats.stores += 1;
                self.record(ExecEvent::Store { addr, bytes, data });
            } else {
                let raw = self.mem.read_sized(addr, bytes);
                let v = finish_load(&inst, raw);
                self.write_dst(inst.dst().expect("load has destination"), v);
                self.stats.loads += 1;
                self.record(ExecEvent::Load { addr, bytes, data: v });
            }
            self.pc = self.pc.wrapping_add(4);
            return Ok(StepOutcome::Running);
        }

        let mut srcs = inst.srcs();
        let a = srcs.next().map(|r| self.read_src(r)).unwrap_or(0);
        let b = srcs.next().map(|r| self.read_src(r)).unwrap_or(0);
        let out = exec_nonmem(&inst, a, b, self.pc);

        if let (Some(d), Some(v)) = (inst.dst(), out.wb) {
            self.write_dst(d, v);
        }
        if inst.is_control() {
            if inst.is_cond_branch() {
                self.stats.branches += 1;
                if out.taken {
                    self.stats.taken_branches += 1;
                }
            }
            self.record(ExecEvent::Branch { pc: self.pc, taken: out.taken, target: out.next_pc });
        }
        if matches!(inst, Inst::Halt) {
            self.halted = true;
            self.pc = out.next_pc;
            return Ok(StepOutcome::Halted);
        }
        self.pc = out.next_pc;
        Ok(StepOutcome::Running)
    }

    /// Runs until `halt` or until `max_insts` more instructions have
    /// committed, whichever comes first.
    ///
    /// # Errors
    ///
    /// Propagates the first [`InterpError`] encountered.
    pub fn run(&mut self, max_insts: u64) -> Result<StepOutcome, InterpError> {
        for _ in 0..max_insts {
            if let StepOutcome::Halted = self.step()? {
                return Ok(StepOutcome::Halted);
            }
        }
        Ok(if self.halted { StepOutcome::Halted } else { StepOutcome::Running })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::inst::FuType;

    fn run_asm(src: &str) -> Interp {
        let prog = assemble(src).expect("assembles");
        let mut it = Interp::new(&prog);
        it.run(1_000_000).expect("runs");
        assert!(it.halted(), "program should halt");
        it
    }

    #[test]
    fn arithmetic_chain() {
        let it = run_asm(
            r#"
            .text
                li   x1, 10
                li   x2, 3
                add  x3, x1, x2
                sub  x4, x1, x2
                mul  x5, x1, x2
                div  x6, x1, x2
                rem  x7, x1, x2
                halt
            "#,
        );
        assert_eq!(it.reg(3), 13);
        assert_eq!(it.reg(4), 7);
        assert_eq!(it.reg(5), 30);
        assert_eq!(it.reg(6), 3);
        assert_eq!(it.reg(7), 1);
    }

    #[test]
    fn x0_is_immutable() {
        let it = run_asm(".text\n li x1, 5\n add x0, x1, x1\n add x3, x0, x0\n halt\n");
        assert_eq!(it.reg(0), 0);
        assert_eq!(it.reg(3), 0);
    }

    #[test]
    fn loop_sums() {
        // sum 1..=10
        let it = run_asm(
            r#"
            .text
                li   x1, 0      # sum
                li   x2, 1      # i
                li   x3, 10     # n
            loop:
                add  x1, x1, x2
                addi x2, x2, 1
                ble  x2, x3, loop
                halt
            "#,
        );
        assert_eq!(it.reg(1), 55);
    }

    #[test]
    fn memory_ops() {
        let it = run_asm(
            r#"
            .data
            buf: .dword 0
            .text
                la   x1, buf
                li   x2, -2
                sd   x2, 0(x1)
                ld   x3, 0(x1)
                sw   x2, 0(x1)
                lw   x4, 0(x1)
                sb   x2, 0(x1)
                lb   x5, 0(x1)
                halt
            "#,
        );
        assert_eq!(it.reg(3) as i64, -2);
        assert_eq!(it.reg(4) as i64, -2, "lw sign extends");
        assert_eq!(it.reg(5) as i64, -2, "lb sign extends");
    }

    #[test]
    fn fp_pipeline() {
        let it = run_asm(
            r#"
            .data
            a: .double 2.0
            b: .double 8.0
            .text
                la    x1, a
                fld   f1, 0(x1)
                fld   f2, 8(x1)
                fadd  f3, f1, f2   # 10
                fmul  f4, f1, f2   # 16
                fdiv  f5, f2, f1   # 4
                fsqrt f6, f4       # 4
                flt   x2, f1, f2   # 1
                fcvt.l.d x3, f3    # 10
                halt
            "#,
        );
        assert_eq!(it.freg(3), 10.0);
        assert_eq!(it.freg(4), 16.0);
        assert_eq!(it.freg(5), 4.0);
        assert_eq!(it.freg(6), 4.0);
        assert_eq!(it.reg(2), 1);
        assert_eq!(it.reg(3), 10);
    }

    #[test]
    fn call_and_return() {
        let it = run_asm(
            r#"
            .text
                li   x10, 5
                call double_it
                mv   x11, x10
                halt
            double_it:
                add  x10, x10, x10
                ret
            "#,
        );
        assert_eq!(it.reg(11), 10);
    }

    #[test]
    fn trace_records_events() {
        let prog = assemble(
            r#"
            .data
            v: .dword 7
            .text
                la  x1, v
                ld  x2, 0(x1)
                sd  x2, 8(x1)
                beq x2, x2, done
                addi x2, x2, 1
            done:
                halt
            "#,
        )
        .unwrap();
        let mut it = Interp::new(&prog);
        it.enable_trace();
        it.run(100).unwrap();
        let evs = it.events();
        assert!(evs.iter().any(|e| matches!(e, ExecEvent::Load { data: 7, .. })));
        assert!(evs.iter().any(|e| matches!(e, ExecEvent::Store { data: 7, .. })));
        assert!(evs.iter().any(|e| matches!(e, ExecEvent::Branch { taken: true, .. })));
    }

    #[test]
    fn stats_count_classes() {
        let it = run_asm(".text\n li x1, 2\n mul x2, x1, x1\n halt\n");
        assert_eq!(it.stats().by_fu[FuType::IntMul.index()], 1);
        assert!(it.stats().by_fu[FuType::IntAlu.index()] >= 2);
    }

    #[test]
    fn halted_is_sticky() {
        let mut it = run_asm(".text\n halt\n");
        let pc = it.pc();
        assert_eq!(it.step().unwrap(), StepOutcome::Halted);
        assert_eq!(it.pc(), pc, "no progress after halt");
    }

    #[test]
    fn bad_fetch_reported() {
        let prog = assemble(".text\n jalr x0, 0(x0)\n halt\n").unwrap();
        let mut it = Interp::new(&prog);
        // Jump to address 0: memory reads zero which decodes as opcode 0 (add),
        // so execution continues until... opcode 0 is valid. Instead jump to a
        // misaligned address to provoke BadFetch.
        it.set_reg(1, 2);
        let prog2 = assemble(".text\n li x1, 2\n jalr x0, 1(x1)\n halt\n").unwrap();
        let mut it2 = Interp::new(&prog2);
        // (2 + 1) & !3 = 0 -> aligned; craft misalignment directly:
        let _ = it; // first interp unused beyond setup
        it2.run(10).ok();
        // Directly verify the error path via a hand-built state:
        let mut it3 = Interp::new(&prog2);
        it3.pc = 2;
        assert!(matches!(it3.step(), Err(InterpError::BadFetch { pc: 2 })));
    }
}
