//! Commit-log replay: the one lock-step check of the pipeline against
//! the golden interpreter.
//!
//! A core run with [`Core::enable_commit_log`](crate::Core::enable_commit_log)
//! records every leading commit. [`replay_against_interp`] steps a fresh
//! interpreter alongside that record, so a divergence names the exact
//! sequence number where the pipeline first went wrong. It works in every
//! mode, because the leading context is the one that drives memory.

use blackjack_isa::exec::effective_addr;
use blackjack_isa::{decode, Inst, Interp, Program};

use crate::core::{CommitRecord, MemEffect};

/// Replays a commit log against a fresh interpreter, checking PC, next
/// PC, destination writes, and memory effects at every sequence number,
/// and that the log ends where the interpreter halts.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn replay_against_interp(prog: &Program, log: &[CommitRecord]) -> Result<(), String> {
    let mut it = Interp::new(prog);
    for (i, rec) in log.iter().enumerate() {
        if rec.seq != i as u64 {
            return Err(format!("sequence gap: record {i} has seq {}", rec.seq));
        }
        if rec.pc != it.pc() {
            return Err(format!("seq {i}: committed pc {:#x}, golden pc {:#x}", rec.pc, it.pc()));
        }
        // Load addresses are recomputed from the interpreter's pre-step
        // register state — the text segment is never written, so the
        // static image is authoritative for the instruction itself.
        let expect_load_addr = prog
            .fetch(rec.pc)
            .and_then(|w| decode(w).ok())
            .and_then(|inst| match inst {
                Inst::Load { rs1, .. } | Inst::FLoad { rs1, .. } => {
                    Some(effective_addr(&inst, it.reg(rs1.index() as usize)))
                }
                _ => None,
            });
        if it.step().is_err() {
            return Err(format!("seq {i}: golden faulted at pc {:#x}", rec.pc));
        }
        if rec.next_pc != it.pc() {
            return Err(format!(
                "seq {i}: committed next_pc {:#x}, golden {:#x}",
                rec.next_pc,
                it.pc()
            ));
        }
        if let Some((log_reg, v)) = rec.dst {
            let idx = log_reg.index() as usize;
            let want = if log_reg.is_fp() { it.freg_bits(idx - 32) } else { it.reg(idx) };
            if v != want {
                return Err(format!(
                    "seq {i}: dst {log_reg:?} committed {v:#x}, golden {want:#x}"
                ));
            }
        }
        match rec.mem {
            Some(MemEffect::Store { addr, bytes, data }) => {
                let got = it.mem().read_sized(addr, bytes);
                if data != got {
                    return Err(format!(
                        "seq {i}: store {bytes}B @ {addr:#x} committed {data:#x}, golden {got:#x}"
                    ));
                }
            }
            Some(MemEffect::Load { addr, .. }) => {
                if let Some(want) = expect_load_addr {
                    if addr != want {
                        return Err(format!(
                            "seq {i}: load address {addr:#x}, golden {want:#x}"
                        ));
                    }
                }
            }
            None => {}
        }
    }
    if !it.halted() {
        return Err(format!(
            "log ends after {} records but the golden run has not halted",
            log.len()
        ));
    }
    Ok(())
}
