//! Snapshot fidelity: a run split across a snapshot/restore boundary must
//! be byte-identical to an uninterrupted run — statistics, detection
//! outcome, commit log, and architectural state — in every mode, for
//! fault-free and faulted plans alike. This is the restore-exactness
//! contract the fork-at-injection campaign path is built on.

use blackjack_faults::{FaultPlan, FaultSite, HardFault};
use blackjack_sim::{Core, CoreConfig, Mode, RunOutcome, SimStats};
use blackjack_workloads::{build, Benchmark};

const MAX_CYCLES: u64 = 100_000_000;

/// `SimStats` as a comparable string with the wall-clock telemetry
/// zeroed: `wall_nanos` measures host time, not simulated state, and
/// legitimately differs between two identical simulations.
fn arch_stats(stats: &SimStats) -> String {
    let mut s = stats.clone();
    s.wall_nanos = 0;
    format!("{s:?}")
}

/// Runs `bench` in `mode` under `plan` uninterrupted, and again split at
/// `pause` cycles via snapshot/restore; asserts both end states match
/// byte for byte.
fn assert_split_run_identical(bench: Benchmark, mode: Mode, plan: FaultPlan, pause: u64) {
    let prog = build(bench, 1);
    let cfg = CoreConfig::with_mode(mode);

    let mut straight = Core::new(cfg.clone(), &prog, plan.clone());
    straight.enable_commit_log();
    let straight_out = straight.run(MAX_CYCLES);

    let mut prefix = Core::new(cfg, &prog, plan);
    prefix.enable_commit_log();
    prefix.run(pause);
    assert_eq!(prefix.cycle(), pause, "fault-free prefix must reach the pause cycle");
    let snap = prefix.snapshot();
    assert_eq!(snap.cycle(), pause);
    let mut resumed = snap.restore();
    let resumed_out = resumed.run(MAX_CYCLES);

    assert_eq!(resumed_out, straight_out, "{bench}/{mode}: outcome");
    assert_eq!(resumed.cycle(), straight.cycle(), "{bench}/{mode}: cycle count");
    assert_eq!(
        arch_stats(resumed.stats()),
        arch_stats(straight.stats()),
        "{bench}/{mode}: statistics"
    );
    assert_eq!(
        resumed.commit_log(),
        straight.commit_log(),
        "{bench}/{mode}: commit log"
    );
    for r in 0..32 {
        assert_eq!(resumed.arch_reg(r), straight.arch_reg(r), "{bench}/{mode}: x{r}");
    }
    assert_eq!(
        resumed.mem().first_difference(straight.mem()),
        None,
        "{bench}/{mode}: memory"
    );

    // The donor core is untouched by the snapshot: finishing it from the
    // pause point reproduces the same run a third time.
    let donor_out = prefix.run(MAX_CYCLES);
    assert_eq!(donor_out, straight_out, "{bench}/{mode}: donor outcome");
    assert_eq!(arch_stats(prefix.stats()), arch_stats(straight.stats()), "{bench}/{mode}: donor");
}

#[test]
fn fault_free_split_is_exact_in_all_modes() {
    for mode in [Mode::Single, Mode::Srt, Mode::BlackJackNoShuffle, Mode::BlackJack] {
        // Pause mid-run: gzip at scale 1 runs tens of thousands of cycles.
        assert_split_run_identical(Benchmark::Gzip, mode, FaultPlan::new(), 5_000);
    }
}

#[test]
fn faulted_split_is_exact() {
    // A wear-out fault arming after the pause point: the snapshot is
    // taken while the hardware is still healthy, exactly the fork-at-
    // injection shape. The run must end in the same detection either way.
    let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);
    for mode in [Mode::Srt, Mode::BlackJack] {
        let plan = FaultPlan::single(fault).arm_at(6_000);
        assert_split_run_identical(Benchmark::Gzip, mode, plan, 5_000);
    }
}

#[test]
fn fork_substitutes_the_plan_exactly() {
    // Fork at cycle C with a plan armed at C+1 == cold run with the same
    // armed plan: the fidelity claim the campaign path relies on.
    let prog = build(Benchmark::Vortex, 1);
    let cfg = CoreConfig::with_mode(Mode::BlackJack);
    let fault = HardFault::stuck_bit(FaultSite::Frontend { way: 1 }, 1);
    let arm = 4_000;

    let mut prefix = Core::new(cfg.clone(), &prog, FaultPlan::new());
    prefix.run(arm - 1);
    let mut forked = prefix.snapshot().fork(FaultPlan::single(fault).arm_at(arm));
    let forked_out = forked.run(MAX_CYCLES);

    let mut cold = Core::new(cfg, &prog, FaultPlan::single(fault).arm_at(arm));
    let cold_out = cold.run(MAX_CYCLES);

    assert_eq!(forked_out, cold_out);
    assert_eq!(forked.cycle(), cold.cycle());
    assert_eq!(arch_stats(forked.stats()), arch_stats(cold.stats()));
}

#[test]
fn pre_arm_cycles_are_fault_free() {
    // Before the arming cycle the faulty hardware is healthy: a plan
    // armed beyond the run's completion is architecturally invisible.
    let prog = build(Benchmark::Gzip, 1);
    let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);

    let mut clean = Core::new(CoreConfig::with_mode(Mode::Srt), &prog, FaultPlan::new());
    let clean_out = clean.run(MAX_CYCLES);
    assert!(clean_out.completed());

    let plan = FaultPlan::single(fault).arm_at(clean.cycle() + 1);
    let mut dormant = Core::new(CoreConfig::with_mode(Mode::Srt), &prog, plan);
    let dormant_out = dormant.run(MAX_CYCLES);
    assert_eq!(dormant_out, clean_out);
    assert_eq!(dormant.cycle(), clean.cycle());
    assert_eq!(dormant.mem().first_difference(clean.mem()), None);

    // Armed at 0 (the default), the same fault is live from power-on and
    // must be caught.
    let mut live =
        Core::new(CoreConfig::with_mode(Mode::BlackJack), &prog, FaultPlan::single(fault));
    assert!(live.run(MAX_CYCLES).detection().is_some(), "power-on fault must be detected");
}

#[test]
#[should_panic(expected = "fault-free cycles")]
fn fork_rejects_plans_armed_inside_the_prefix() {
    let prog = build(Benchmark::Gzip, 1);
    let mut core = Core::new(CoreConfig::with_mode(Mode::Srt), &prog, FaultPlan::new());
    core.run(1_000);
    let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);
    // Armed at cycle 500 but the snapshot already simulated 1000 cycles
    // fault-free — the fork can't be equivalent to any cold run.
    core.snapshot().fork(FaultPlan::single(fault).arm_at(500));
}

#[test]
fn early_exit_state_survives_snapshot_restore() {
    // The watchdog window, quiesce cycle, and activation bookkeeping are
    // simulation state like any other: a run configured for early exit
    // and split across a snapshot/restore boundary must end exactly like
    // the uninterrupted run — same outcome, same cycle, same stats.
    let prog = build(Benchmark::Gzip, 1);
    let cfg = CoreConfig::with_mode(Mode::Srt);
    let fault = HardFault::stuck_bit(FaultSite::Backend { way: 2 }, 5);
    let plan = FaultPlan::single(fault).arm_at(6_000);

    let configure = |core: &mut Core| {
        core.set_stall_window(Some(20_000));
        core.set_quiesce_cycle(Some(1_000_000));
    };

    let mut straight = Core::new(cfg.clone(), &prog, plan.clone());
    configure(&mut straight);
    let straight_out = straight.run(MAX_CYCLES);

    let mut first = Core::new(cfg, &prog, plan);
    configure(&mut first);
    first.run(10_000);
    let mut resumed = first.snapshot().restore();
    let resumed_out = resumed.run(MAX_CYCLES);

    assert_eq!(resumed_out, straight_out);
    assert_eq!(resumed.cycle(), straight.cycle());
    assert_eq!(arch_stats(resumed.stats()), arch_stats(straight.stats()));
}

#[test]
fn site_usage_tracker_survives_snapshot_restore() {
    // The reference pass's per-site last-exercise schedule must come
    // through a snapshot/restore split unchanged — it is what the
    // activation early-exit mechanism proves runs benign with.
    let prog = build(Benchmark::Gzip, 1);
    let cfg = CoreConfig::with_mode(Mode::BlackJack);

    let mut straight = Core::new(cfg.clone(), &prog, FaultPlan::new());
    straight.enable_site_usage();
    assert!(straight.run(MAX_CYCLES).completed());

    let mut first = Core::new(cfg, &prog, FaultPlan::new());
    first.enable_site_usage();
    first.run(10_000);
    let mut resumed = first.snapshot().restore();
    assert!(resumed.run(MAX_CYCLES).completed());

    let a = straight.site_usage().expect("tracking stays enabled");
    let b = resumed.site_usage().expect("tracking survives the split");
    for way in 0..8 {
        assert_eq!(
            a.last_use(FaultSite::Frontend { way }),
            b.last_use(FaultSite::Frontend { way }),
            "frontend way {way}"
        );
        assert_eq!(
            a.last_use(FaultSite::Backend { way }),
            b.last_use(FaultSite::Backend { way }),
            "backend way {way}"
        );
    }
    for entry in 0..32 {
        assert_eq!(
            a.last_use(FaultSite::PayloadRam { entry }),
            b.last_use(FaultSite::PayloadRam { entry }),
            "payload entry {entry}"
        );
    }
}

#[test]
fn fork_clears_early_exit_state() {
    // A fork installs a fresh plan, and with it a clean early-exit
    // slate: the donor's watchdog window, quiesce cycle, and usage
    // tracker must not leak into the fork — otherwise a forked run could
    // exit early where the equivalent cold run would not.
    let prog = build(Benchmark::Gzip, 1);
    let cfg = CoreConfig::with_mode(Mode::Srt);
    let fault = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 3);
    let arm = 8_000;

    let mut donor = Core::new(cfg.clone(), &prog, FaultPlan::new());
    donor.enable_site_usage();
    // Configured but inert for the donor's own run: large enough that
    // neither check can fire before `arm` (a firing would legitimately
    // change the donor's stats, which is not what this test probes).
    donor.set_stall_window(Some(50_000));
    donor.set_quiesce_cycle(Some(1_000_000));
    let donor_out = donor.run(arm - 1);
    assert!(
        !matches!(donor_out, RunOutcome::EarlyExit(_)),
        "donor must reach the snapshot point without early-exiting"
    );

    let mut forked = donor.snapshot().fork(FaultPlan::single(fault).arm_at(arm));
    assert!(forked.site_usage().is_none(), "fork must drop the usage tracker");
    let forked_out = forked.run(MAX_CYCLES);

    let mut cold = Core::new(cfg, &prog, FaultPlan::single(fault).arm_at(arm));
    let cold_out = cold.run(MAX_CYCLES);
    assert_eq!(forked_out, cold_out, "donor early-exit config must not leak into the fork");
    assert_eq!(forked.cycle(), cold.cycle());
    assert_eq!(arch_stats(forked.stats()), arch_stats(cold.stats()));
}
