//! Differential tests: the out-of-order pipeline must produce exactly the
//! golden interpreter's architectural state, in every mode, on arbitrary
//! programs, and its commit log must replay against the interpreter
//! instruction by instruction.

use blackjack_faults::FaultPlan;
use blackjack_isa::{asm::assemble, Interp, PagedMem};
use blackjack_sim::{replay_against_interp, Core, CoreConfig, Mode};
use blackjack_workloads::random::random_program;
use blackjack_workloads::{build, Benchmark};

const MAX_CYCLES: u64 = 50_000_000;

fn run_interp(prog: &blackjack_isa::Program) -> Interp {
    let mut it = Interp::new(prog);
    it.run(50_000_000).expect("interpreter runs");
    assert!(it.halted(), "program must halt in the interpreter");
    it
}

/// Runs `prog` fault-free in `mode` and replays its commit log against
/// the interpreter, so a divergence names the first wrong commit.
fn run_mode(prog: &blackjack_isa::Program, mode: Mode) -> Core {
    let mut core = Core::new(CoreConfig::with_mode(mode), prog, FaultPlan::new());
    core.enable_commit_log();
    let out = core.run(MAX_CYCLES);
    assert!(out.completed(), "{} mode failed on {}: {out:?}", mode, prog.name);
    let log = core.take_commit_log().expect("commit log was enabled");
    if let Err(e) = replay_against_interp(prog, &log) {
        panic!("{} in {mode} mode: {e}", prog.name);
    }
    core
}

fn assert_same_memory(name: &str, mode: Mode, core: &Core, golden: &PagedMem) {
    if let Some(addr) = core.mem().first_difference(golden) {
        panic!(
            "{name} in {mode} mode: memory differs from the interpreter at {addr:#x} \
             (pipeline={:#x}, golden={:#x})",
            core.mem().read_u64(addr & !7),
            golden.read_u64(addr & !7)
        );
    }
}

fn assert_same_regs(name: &str, mode: Mode, core: &Core, it: &Interp) {
    for r in 0..32 {
        assert_eq!(
            core.arch_reg(r),
            it.reg(r),
            "{name} in {mode} mode: x{r} differs"
        );
        assert_eq!(
            core.arch_freg_bits(r),
            it.freg_bits(r),
            "{name} in {mode} mode: f{r} differs"
        );
    }
}

fn differential(prog: &blackjack_isa::Program) {
    let golden = run_interp(prog);
    for mode in Mode::ALL {
        let core = run_mode(prog, mode);
        assert_same_memory(&prog.name, mode, &core, golden.mem());
        assert_same_regs(&prog.name, mode, &core, &golden);
        let s = core.stats();
        assert_eq!(
            s.committed[0],
            golden.icount(),
            "{}: {} commits differ from interpreter",
            prog.name,
            mode
        );
        if mode.is_redundant() {
            assert_eq!(s.committed[0], s.committed[1], "threads must commit in lockstep");
            assert!(s.detections.is_empty(), "no detections in a fault-free run");
        }
    }
}

#[test]
fn random_programs_all_modes() {
    // 40 random programs through 4 modes each, every run's commit log
    // replayed instruction by instruction against the interpreter.
    for seed in 0..40 {
        let prog = random_program(seed, 12);
        differential(&prog);
    }
}

#[test]
fn random_programs_large() {
    for seed in 1000..1005 {
        let prog = random_program(seed, 60);
        differential(&prog);
    }
}

#[test]
fn benchmark_kernels_single_mode_replay() {
    // Whole benchmark kernels through the single-thread pipeline, the
    // commit log replayed against the interpreter (catches any
    // committed-state divergence at the exact instruction).
    for b in [Benchmark::Gzip, Benchmark::Mgrid, Benchmark::Gcc, Benchmark::Vortex] {
        let prog = build(b, 1);
        let golden = run_interp(&prog);
        let core = run_mode(&prog, Mode::Single);
        assert_same_memory(b.name(), Mode::Single, &core, golden.mem());
    }
}

#[test]
fn benchmark_kernels_blackjack_memory_equivalence() {
    for b in [Benchmark::Bzip, Benchmark::Fma3d, Benchmark::Eon] {
        let prog = build(b, 1);
        let golden = run_interp(&prog);
        for mode in [Mode::Srt, Mode::BlackJack] {
            let core = run_mode(&prog, mode);
            assert_same_memory(b.name(), mode, &core, golden.mem());
        }
    }
}

#[test]
fn store_forwarding_torture() {
    // Dense same-address store/load traffic with all widths: exercises
    // LSQ forwarding, split-store data capture, and store-buffer
    // read-through.
    let prog = assemble(
        r#"
        .text
            li  x20, 0x400000
            li  x21, 200
        loop:
            sd  x21, 0(x20)
            ld  x5, 0(x20)
            sb  x21, 3(x20)
            lw  x6, 0(x20)
            sw  x6, 4(x20)
            lb  x7, 3(x20)
            ld  x8, 0(x20)
            add x9, x5, x6
            add x9, x9, x7
            add x9, x9, x8
            sd  x9, 8(x20)
            addi x21, x21, -1
            bnez x21, loop
            halt
        "#,
    )
    .unwrap();
    differential(&prog);
}

#[test]
fn misprediction_heavy_program() {
    // Data-dependent branches driven by an LCG: high misprediction rate
    // exercises squash/recovery in every mode.
    let prog = assemble(
        r#"
        .text
            li  x20, 0x400000
            li  x21, 500
            li  x22, 1103515245
            li  x23, 12345
            li  x5, 42
        loop:
            mul x5, x5, x22
            add x5, x5, x23
            srl x6, x5, 13
            and x7, x6, 1
            beqz x7, even
            addi x8, x8, 3
            j   next
        even:
            addi x8, x8, 5
        next:
            and x9, x6, 127
            sll x9, x9, 3
            add x10, x20, x9
            sd  x8, 0(x10)
            addi x21, x21, -1
            bnez x21, loop
            halt
        "#,
    )
    .unwrap();
    differential(&prog);
}

#[test]
fn division_and_fp_latencies() {
    // Long-latency unpipelined units under all modes.
    let prog = assemble(
        r#"
        .text
            li  x20, 0x400000
            li  x21, 60
        loop:
            div  x5, x21, x22
            rem  x6, x21, x23
            addi x22, x22, 3
            addi x23, x23, 7
            fcvt.d.l f1, x5
            fcvt.d.l f2, x21
            fdiv f3, f2, f1
            fsqrt f4, f2
            fadd f5, f3, f4
            fcvt.l.d x7, f5
            sd   x7, 0(x20)
            addi x20, x20, 8
            addi x21, x21, -1
            bnez x21, loop
            halt
        "#,
    )
    .unwrap();
    differential(&prog);
}

#[test]
fn function_calls_and_ras() {
    let prog = assemble(
        r#"
        .text
            li   x20, 0x400000
            li   x21, 80
        loop:
            mv   x10, x21
            call square
            sd   x10, 0(x20)
            addi x20, x20, 8
            call bump
            addi x21, x21, -1
            bnez x21, loop
            halt
        square:
            mul  x10, x10, x10
            ret
        bump:
            addi x11, x11, 1
            ret
        "#,
    )
    .unwrap();
    differential(&prog);
}

#[test]
fn tiny_programs() {
    // Boundary cases: immediate halt, a single store, a taken branch to halt.
    for src in [
        ".text\n halt\n",
        ".text\n li x1, 1\n sd x1, 0(x2)\n halt\n",
        ".text\n j end\n li x1, 9\nend: halt\n",
        ".text\n nop\n nop\n nop\n nop\n nop\n halt\n",
    ] {
        let prog = assemble(src).unwrap();
        differential(&prog);
    }
}
