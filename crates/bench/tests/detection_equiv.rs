//! Detection-campaign equivalence: the `ext_detection` report must be
//! byte-identical on the reference (replay from cycle 0, every run to its
//! natural end) and on the fork path (snapshot forks plus early exit),
//! and for any worker count — the hard requirement on the campaign's
//! fast path. One benchmark keeps the test fast; `scripts/verify.sh`
//! re-checks the full sweep on both paths.

use blackjack::faults::FaultKind;
use blackjack::workloads::Benchmark;
use blackjack::{Campaign, Counter};
use blackjack_bench::detection::{
    run_detection, run_detection_observed, DetectionConfig, DetectionReport, EarlyExitKind,
    ObserveCtl,
};

fn cfg(snapshot: bool) -> DetectionConfig {
    DetectionConfig { prune: true, snapshot, ..DetectionConfig::default() }
}

/// The path matrix: the reference and the fork path, each at 1 and 8
/// workers. One worker takes the depth-first schedule; eight take the
/// staged one, with the metrics registry on (the staged schedule is the
/// same with or without it).
fn matrix(cfg_of: impl Fn(bool) -> DetectionConfig) -> Vec<(bool, String, DetectionReport)> {
    let benches = [Benchmark::Gzip];
    let mut out = Vec::new();
    for snapshot in [false, true] {
        for workers in [1, 8] {
            let campaign = Campaign::with_workers(workers);
            let report = if workers == 1 {
                run_detection(&campaign, cfg_of(snapshot), &benches, false)
            } else {
                let ctl = ObserveCtl { metrics: true, ..Default::default() };
                run_detection_observed(&campaign, cfg_of(snapshot), &benches, ctl)
            };
            out.push((snapshot, format!("snapshot={snapshot} workers={workers}"), report));
        }
    }
    out
}

#[test]
fn report_identical_across_paths_and_worker_counts() {
    let runs = matrix(cfg);
    let (_, _, base) = &runs[0];
    assert!(!base.text.is_empty());
    for (_, which, got) in &runs[1..] {
        assert_eq!(got.text, base.text, "{which} changed the report");
        assert_eq!(got.tallies, base.tallies, "{which}");
        assert_eq!(got.taxonomies, base.taxonomies, "{which} changed the CE/DUE/SDC split");
        assert_eq!(got.meta, base.meta, "arming schedules must not depend on the path");
    }
    // The reference runs every job to its natural end without a fork;
    // the fork path forks every run it simulates.
    for (snapshot, which, report) in &runs {
        let Some(m) = &report.metrics else { continue };
        if !snapshot {
            assert!(report.early_exits.iter().all(|e| e.is_none()), "{which}: no early exits");
            assert_eq!(m.get(Counter::SnapshotForks), 0, "{which}");
            assert_eq!(m.get(Counter::PrunedActivation), 0, "{which}");
        } else {
            assert!(m.get(Counter::RunsSimulated) > 0, "{which}");
            assert_eq!(m.get(Counter::SnapshotForks), m.get(Counter::RunsSimulated), "{which}");
        }
    }
}

#[test]
fn transient_and_intermittent_reports_are_worker_deterministic() {
    // The temporal fault models ride the same campaign machinery, with
    // the ECC layer on so the CE column is live; the report (legacy
    // table and taxonomy both) must not depend on the worker count or
    // on the path.
    for kind in [FaultKind::Transient, FaultKind::Intermittent { period: 64, on: 8 }] {
        let runs = matrix(|snapshot| DetectionConfig { kind, ecc: true, ..cfg(snapshot) });
        let (_, _, base) = &runs[0];
        assert!(!base.text.is_empty());
        for (_, which, got) in &runs[1..] {
            assert_eq!(got.text, base.text, "{kind:?} {which} changed the report");
            assert_eq!(got.taxonomies, base.taxonomies, "{kind:?} {which} changed the split");
        }
    }
}

#[test]
fn early_exit_attributes_runs_without_touching_the_tallies() {
    let benches = [Benchmark::Gzip];
    let c = Campaign::with_workers(8);
    let fast = run_detection(&c, DetectionConfig { prune: false, ..cfg(true) }, &benches, false);
    // Attribution rides beside the tallies, one entry per job.
    assert_eq!(fast.early_exits.len(), fast.tallies.len());
    // An activation-pruned run is benign by construction, and never
    // carries the static-prune marker (pruning was off).
    let mut activations: u32 = 0;
    for (e, (_, t)) in fast.early_exits.iter().zip(&fast.tallies) {
        if *e == Some(EarlyExitKind::Activation) {
            activations += 1;
            assert_eq!((t.benign, t.pruned, t.total()), (1, 0, 1));
        }
    }
    // With static pruning off, every statically dead site is still dead
    // dynamically, so mechanism 1 must claim at least those runs with
    // zero simulation.
    let statically_dead: u32 = run_detection(&c, cfg(true), &benches, false)
        .tallies
        .iter()
        .map(|(_, t)| t.pruned)
        .sum();
    assert!(statically_dead > 0, "gzip should have statically dead ways");
    assert!(
        activations >= statically_dead,
        "activation pruning claimed {activations} runs, fewer than the {statically_dead} \
         statically dead sites"
    );
}

#[test]
fn pruning_does_not_change_the_tally_table() {
    // Pruned sites are tallied benign without simulating; the per-mode
    // table must match the fully simulated sweep.
    let benches = [Benchmark::Gzip];
    let c = Campaign::with_workers(8);
    let full = run_detection(&c, DetectionConfig { prune: false, ..cfg(true) }, &benches, false);
    let pruned = run_detection(&c, cfg(true), &benches, false);
    for ((fm, f), (pm, p)) in full.tallies.iter().zip(&pruned.tallies) {
        assert_eq!(fm, pm);
        // The `pruned` marker legitimately differs; the outcome must not.
        assert_eq!(
            (f.detected, f.corrupted, f.benign, f.stuck),
            (p.detected, p.corrupted, p.benign, p.stuck),
            "a pruned site's outcome diverged from its simulated run"
        );
    }
}
