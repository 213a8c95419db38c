//! Whole-system integration tests: the paper's qualitative claims must
//! hold end-to-end through the public facade API.
//!
//! These run a subset of benchmarks (the full 16-benchmark sweep lives in
//! the bench harnesses); run with `--release` for speed.

use blackjack::faults::{AreaModel, Corruption, FaultPlan, FaultSite, HardFault, Trigger};
use blackjack::sim::{table1, Core, CoreConfig, Mode};
use blackjack::workloads::{build, Benchmark};
use blackjack::Experiment;

/// Benchmarks that are quick even without misses (for test latency).
const FAST: [Benchmark; 4] =
    [Benchmark::Gzip, Benchmark::Vortex, Benchmark::Facerec, Benchmark::Apsi];

#[test]
fn coverage_gap_holds_across_benchmarks() {
    let area = AreaModel::default();
    let exp = Experiment::new();
    for b in FAST {
        let r = exp.run_benchmark(b);
        let srt = r.srt.stats.total_coverage(&area);
        let bj = r.bj.stats.total_coverage(&area);
        assert!(bj > 0.90, "{b}: BlackJack coverage {bj:.3} below 90%");
        assert!(srt < bj - 0.3, "{b}: SRT coverage {srt:.3} too close to BlackJack {bj:.3}");
        assert_eq!(r.bj.stats.frontend_coverage(), 1.0, "{b}: shuffled frontend must be fully diverse");
        assert_eq!(r.srt.stats.frontend_coverage(), 0.0, "{b}: SRT frontend is never diverse");
    }
}

#[test]
fn performance_ordering_holds() {
    let exp = Experiment::new();
    for b in FAST {
        let r = exp.run_benchmark(b);
        let srt = r.normalized_perf(Mode::Srt);
        let ns = r.normalized_perf(Mode::BlackJackNoShuffle);
        let bj = r.normalized_perf(Mode::BlackJack);
        assert!(srt <= 1.0, "{b}: SRT cannot beat single-thread");
        // Small tolerances: the orderings are statistical, not absolute.
        assert!(ns <= srt + 0.03, "{b}: BlackJack-NS ({ns:.3}) should not beat SRT ({srt:.3})");
        assert!(bj <= ns + 0.03, "{b}: BlackJack ({bj:.3}) should not beat BlackJack-NS ({ns:.3})");
        assert!(bj > 0.15, "{b}: BlackJack slowdown implausibly large ({bj:.3})");
    }
}

#[test]
fn interference_shape_matches_paper() {
    // High-IPC integer benchmarks show the most leading-trailing
    // interference (paper §6.1: gzip/bzip/crafty are the worst).
    let exp = Experiment::new();
    let gzip = exp.run_benchmark(Benchmark::Gzip);
    let apsi = exp.run_benchmark(Benchmark::Apsi);
    assert!(
        gzip.bj.stats.lt_interference() > apsi.bj.stats.lt_interference(),
        "gzip ({:.4}) should out-interfere apsi ({:.4})",
        gzip.bj.stats.lt_interference(),
        apsi.bj.stats.lt_interference()
    );
    // Burstiness is high everywhere but lowest for the high-IPC code.
    assert!(gzip.bj.stats.burstiness() < apsi.bj.stats.burstiness());
    for r in [&gzip, &apsi] {
        assert!(r.bj.stats.burstiness() > 0.4, "burstiness implausibly low");
    }
}

#[test]
fn figure_extractors_are_consistent() {
    let exp = Experiment::new();
    let rows = vec![exp.run_benchmark(Benchmark::Gzip), exp.run_benchmark(Benchmark::Vortex)];
    let result = blackjack::ExperimentResult { rows, area: AreaModel::default() };
    assert_eq!(result.fig4a().len(), 2);
    assert_eq!(result.fig7().len(), 2);
    let t4 = result.fig4_table();
    assert!(t4.contains("gzip") && t4.contains("vortex") && t4.contains("average"));
    let t7 = result.fig7_table();
    assert!(t7.contains("BlackJack-NS"));
    let (srt_cov, bj_cov, slowdown) = result.headline();
    assert!(bj_cov > srt_cov);
    assert!(slowdown > 0.0 && slowdown < 60.0);
}

#[test]
fn end_to_end_detection_story() {
    // The complete narrative: a defective multiplier is *guaranteed*
    // caught by BlackJack on every benchmark, while SRT only ever catches
    // it by accident (and on a serial kernel, provably never).
    let fault = HardFault {
        site: FaultSite::Backend { way: 4 }, // integer multiplier 0
        corruption: Corruption::FlipBit { bit: 11 },
        trigger: Trigger::Always,
    };
    for b in [Benchmark::Bzip, Benchmark::Gcc] {
        let prog = build(b, 1);
        let mut bj =
            Core::new(CoreConfig::with_mode(Mode::BlackJack), &prog, FaultPlan::single(fault));
        let bj_out = bj.run(100_000_000);
        assert!(bj_out.detection().is_some(), "{b}: BlackJack must detect: {bj_out:?}");
    }

    // A serial multiply chain keeps both SRT copies on multiplier 0: the
    // fault corrupts both identically and escapes.
    let serial = blackjack::isa::asm::assemble(
        ".text\n li x20, 0x400000\n li x21, 40\n li x5, 3\nloop:\n mul x5, x5, x5\n ori x5, x5, 3\n sd x5, 0(x20)\n addi x20, x20, 8\n addi x21, x21, -1\n bnez x21, loop\n halt\n",
    )
    .unwrap();
    let mut srt = Core::new(CoreConfig::with_mode(Mode::Srt), &serial, FaultPlan::single(fault));
    let srt_out = srt.run(100_000_000);
    assert!(srt_out.completed(), "SRT must remain oblivious on the serial chain: {srt_out:?}");
    let mut bj =
        Core::new(CoreConfig::with_mode(Mode::BlackJack), &serial, FaultPlan::single(fault));
    let bj_out = bj.run(100_000_000);
    assert!(bj_out.detection().is_some(), "BlackJack must detect on the serial chain");
}

#[test]
fn table1_echoes_configuration() {
    let t = table1(&CoreConfig::default());
    for needle in ["4 instructions/cycle", "512 entries", "32-entries", "64KB", "2M", "350 cycles", "64 entries", "128 entries", "96 entries", "256 instructions", "1024 instructions"] {
        assert!(t.contains(needle), "Table 1 missing `{needle}`:\n{t}");
    }
}

#[test]
fn redundant_modes_commit_identical_work() {
    let exp = Experiment::new();
    let r = exp.run_benchmark(Benchmark::Eon);
    for m in [&r.srt, &r.ns, &r.bj] {
        assert_eq!(m.stats.committed[0], r.single.stats.committed[0]);
        assert_eq!(m.stats.committed[0], m.stats.committed[1]);
        assert!(m.stats.detections.is_empty());
        assert!(m.stats.store_checks > 0, "stores must be checked in redundant modes");
    }
}

#[test]
fn slack_sweep_changes_behavior_sanely() {
    // Slack is the lever SRT uses to hide trailing work; tiny slack should
    // not deadlock and huge slack should not break correctness.
    for slack in [16, 64, 1024] {
        let r = Experiment::new().slack(slack).run_benchmark(Benchmark::Gzip);
        assert!(r.bj.outcome.completed(), "slack {slack} broke BlackJack");
        assert!(
            r.bj.stats.total_coverage(&AreaModel::default()) > 0.85,
            "slack {slack} destroyed coverage"
        );
    }
}

#[test]
fn bjsim_cli_checks_fault_specs_and_oracle() {
    let prog = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs/checksum.s");
    let bjsim = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bjsim"))
            .args(args)
            .arg(prog)
            .output()
            .expect("bjsim runs");
        (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
    };
    // Rejected before simulating: a bit past 63, a way the machine lacks,
    // an unknown family, and the oracle on a faulty run.
    for args in [
        &["--fault", "backend:4:200"][..],
        &["--fault", "backend:99:2"],
        &["--fault", "tlb:0:1"],
        &["--oracle", "--fault", "backend:4:2"],
    ] {
        assert_eq!(bjsim(args).0, Some(2), "bjsim {args:?} must exit 2");
    }
    // Every site family of the shared spelling is accepted.
    let (code, out) = bjsim(&["--quiet", "--fault", "lvq:0:5"]);
    assert_eq!(code, Some(0));
    assert!(out.starts_with("DETECTED"), "{out}");
    // The oracle replays the commit log in redundant modes too.
    for mode in ["single", "srt", "blackjack"] {
        let (code, out) = bjsim(&["--oracle", "--mode", mode]);
        assert_eq!(code, Some(0), "{mode}: {out}");
        assert!(out.contains("leading commits match the interpreter"), "{mode}: {out}");
    }
}
