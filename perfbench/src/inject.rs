//! `inject`: the detection campaign through `run_detection` on a
//! 1-worker campaign (the depth-first path), 4 kernels x {SRT,
//! BlackJack} x 25 sites, once per fault kind (hard, transient,
//! intermittent), with LVQ ECC on: 600 verdicts.

use std::sync::Arc;
use std::time::Duration;

use blackjack::envcfg::parse_fault_kinds;
use blackjack::faults::{DetectionTally, FaultKind, FaultPlan, TaxonomyTally};
use blackjack::sim::{Core, FuCounts, Mode};
use blackjack::workloads::{build, Benchmark};
use blackjack::{Campaign, CampaignTrace, Counter, Gauge, JobTiming, Metrics, MetricsRegistry};
use blackjack_analysis::SiteAnalysis;
use blackjack_bench::detection::{
    default_benchmarks, golden_run, run_detection, run_detection_observed, site_label, sites,
    DetectionConfig, DetectionGroup, EarlyExitKind, ObserveCtl, MAX_CYCLES, MODES,
};

use crate::figures::campaign_layers;
use crate::trace::{Spans, Tracer};
use crate::{median, tail, Layers, Output, Workload};

pub struct Inject;

pub struct Inputs {
    campaign: Campaign,
    kinds: Vec<FaultKind>,
    benchmarks: Vec<Benchmark>,
    /// `program <name> <static instructions>` per kernel.
    programs: Vec<String>,
}

impl Inputs {
    fn config(&self, kind: FaultKind) -> DetectionConfig {
        DetectionConfig {
            kind,
            ecc: true,
            ..DetectionConfig::default()
        }
    }
}

fn kind_label(kind: FaultKind) -> String {
    match kind {
        FaultKind::Hard => "hard".to_string(),
        FaultKind::Transient => "transient".to_string(),
        FaultKind::Intermittent { period, on } => format!("intermittent:{period}:{on}"),
    }
}

/// One injection job's verdict, as the report and the taxonomy see it.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Verdict {
    mode: Mode,
    tally: DetectionTally,
    taxonomy: TaxonomyTally,
    early: Option<EarlyExitKind>,
    arm: u64,
}

fn job_line(kind: &str, label: &str, v: &Verdict) -> String {
    let t = v.tally;
    let outcome = if t.pruned > 0 {
        "pruned"
    } else if t.detected > 0 {
        "detected"
    } else if t.corrupted > 0 {
        "sdc"
    } else if t.stuck > 0 {
        "stuck"
    } else {
        "benign"
    };
    let x = v.taxonomy;
    let tax = if x.ce > 0 {
        "CE"
    } else if x.due > 0 {
        "DUE"
    } else if x.sdc > 0 {
        "SDC"
    } else {
        "benign"
    };
    let early = match v.early {
        None => "none",
        Some(EarlyExitKind::Activation) => "activation",
        Some(EarlyExitKind::Convergence) => "convergence",
        Some(EarlyExitKind::Watchdog) => "watchdog",
    };
    format!(
        "job {kind} {label} arm={} outcome={outcome} taxonomy={tax} early={early}",
        v.arm
    )
}

/// Simulated BlackJack silent corruptions over every kind.
fn bj_sdc(verdicts: &[Verdict]) -> f64 {
    verdicts
        .iter()
        .filter(|v| v.mode == Mode::BlackJack)
        .map(|v| v.taxonomy.sdc)
        .sum::<u32>() as f64
}

impl Workload for Inject {
    type Inputs = Inputs;
    const NAME: &'static str = "inject";

    fn setup(_seed: u64) -> Inputs {
        let benchmarks = default_benchmarks();
        let programs = benchmarks
            .iter()
            .map(|&b| format!("program {} {}", b.name(), build(b, 1).len()))
            .collect();
        Inputs {
            campaign: Campaign::with_workers(1),
            kinds: parse_fault_kinds("kinds", "hard,transient,intermittent")
                .expect("the three fault kinds parse"),
            benchmarks,
            programs,
        }
    }

    fn run(inputs: &Inputs) -> Output {
        let mut lines = inputs.programs.clone();
        let mut verdicts = Vec::new();
        for &kind in &inputs.kinds {
            let report = run_detection(
                &inputs.campaign,
                inputs.config(kind),
                &inputs.benchmarks,
                false,
            );
            let label = kind_label(kind);
            lines.push(format!("kind {label}"));
            lines.extend(report.text.lines().map(str::to_string));
            for i in 0..report.tallies.len() {
                let v = Verdict {
                    mode: report.tallies[i].0,
                    tally: report.tallies[i].1,
                    taxonomy: report.taxonomies[i].1,
                    early: report.early_exits[i],
                    arm: report.meta[i].arm,
                };
                lines.push(job_line(&label, &report.labels[i], &v));
                verdicts.push(v);
            }
        }
        Output {
            lines,
            ops: verdicts.len() as u64,
            op_failures: 0,
            sim_cycles: 0,
            partial: false,
            model: vec![("bj_sdc_runs", bj_sdc(&verdicts))],
        }
    }

    /// Runs the depth-first campaign as `run_detection` does on one
    /// worker — golden runs, then per group `DetectionGroup::build_observed`
    /// and each site's `injection_tally_observed` — with a span around
    /// each call and the library's metrics registry on, which times the
    /// chain build, forks, simulation and oracle inside those calls.
    /// Beside each group's build it times one plain fault-free
    /// `Core::run` of the same pass, which splits reference simulation
    /// from snapshot copying. Counts are taken from outside: chain stats,
    /// returned tallies and early-exit kinds.
    fn run_traced(inputs: &Inputs, tracer: &Tracer, root: u32) -> (Output, Layers) {
        let mut c = Counts::default();
        let mut metrics = Metrics::enabled();
        let mut lines = inputs.programs.clone();
        let mut verdicts = Vec::new();
        let all_sites = sites();
        for &kind in &inputs.kinds {
            let cfg = inputs.config(kind);
            let label = kind_label(kind);
            lines.push(format!("kind {label}"));
            let goldens: Vec<_> = inputs
                .benchmarks
                .iter()
                .map(|&b| {
                    tracer.span("golden_run", Some(root), |s| {
                        let prog = tracer.span("workloads::build", Some(s), |_| build(b, 1));
                        let g = golden_run(&prog);
                        c.golden_insts += g.icount();
                        Arc::new(g)
                    })
                })
                .collect();
            for &mode in &MODES {
                for (bi, &bench) in inputs.benchmarks.iter().enumerate() {
                    let golden = Arc::clone(&goldens[bi]);
                    let mut group =
                        tracer.span("DetectionGroup::build_observed", Some(root), |_| {
                            DetectionGroup::build_observed(
                                mode,
                                bench,
                                cfg,
                                golden,
                                &mut metrics,
                                None,
                            )
                        });
                    c.group(&group);
                    tracer.span("reference_probe", Some(root), |s| {
                        reference_probe(tracer, s, bench, &group, &mut c)
                    });
                    for (site_idx, &site) in all_sites.iter().enumerate() {
                        let (tally, taxonomy, early) =
                            tracer.span("injection_tally_observed", Some(root), |_| {
                                group.injection_tally_observed(site_idx, &mut metrics, None)
                            });
                        c.verdict(&group, site_idx, &tally, early);
                        let v = Verdict {
                            mode,
                            tally,
                            taxonomy,
                            early,
                            arm: group.arms[site_idx],
                        };
                        lines.push(job_line(&label, &site_label(mode, bench.name(), site), &v));
                        verdicts.push(v);
                    }
                    tracer.span("DetectionGroup::release_fork_state", Some(root), |_| {
                        group.release_fork_state()
                    });
                }
            }
        }
        let registry = metrics.into_registry().expect("metrics are on");
        c.check_against(&registry);
        let mut layers = c.layers();
        for (name, counter) in [
            ("snapshot.chain_build_s", Counter::SnapshotBuildNanos),
            ("snapshot.fork_s", Counter::SnapshotForkNanos),
            ("detection.inject_sim_s", Counter::SimulateNanos),
            ("detection.oracle_s", Counter::OracleNanos),
        ] {
            layers.insert(name, registry.get(counter) as f64 * 1e-9);
        }
        for (mode, names) in [
            (
                Mode::Srt,
                [
                    "faults.srt.ce",
                    "faults.srt.due",
                    "faults.srt.sdc",
                    "faults.srt.benign",
                ],
            ),
            (
                Mode::BlackJack,
                [
                    "faults.bj.ce",
                    "faults.bj.due",
                    "faults.bj.sdc",
                    "faults.bj.benign",
                ],
            ),
        ] {
            let mut t = TaxonomyTally::default();
            for v in verdicts.iter().filter(|v| v.mode == mode) {
                t.merge(&v.taxonomy);
            }
            for (name, n) in names.into_iter().zip([t.ce, t.due, t.sdc, t.benign]) {
                layers.insert(name, n as f64);
            }
        }
        let out = Output {
            lines,
            ops: verdicts.len() as u64,
            op_failures: c.errors.len() as u64,
            sim_cycles: 0,
            partial: true,
            model: vec![("bj_sdc_runs", bj_sdc(&verdicts))],
        };
        for e in &c.errors {
            eprintln!("traced inject: {e}");
        }
        (out, layers)
    }

    fn span_layers(spans: &Spans, layers: &mut Layers) {
        let ref_sim = spans.total_under("Core::run", "reference_probe");
        let chain = layers.get("snapshot.chain_build_s").copied().unwrap_or(0.0);
        for (name, v) in [
            (
                "isa.golden_s",
                spans.total("golden_run") - spans.total_under("workloads::build", "golden_run"),
            ),
            ("workloads.build_s", spans.total("workloads::build")),
            ("analysis.analyze_s", spans.total("SiteAnalysis::analyze")),
            ("sim.new_s", spans.total("Core::new")),
            ("sim.run_s", ref_sim),
            ("snapshot.ref_sim_s", ref_sim),
            ("snapshot.copy_s", chain - ref_sim),
            (
                "detection.group_build_s",
                spans.total("DetectionGroup::build_observed"),
            ),
            (
                "detection.job_ms_p50",
                median(&spans.durations_ms("injection_tally_observed")),
            ),
            (
                "detection.job_ms_tail",
                tail(&spans.durations_ms("injection_tally_observed")),
            ),
        ] {
            layers.insert(name, v);
        }
        let cycles = layers.get("sim.cycles").copied().unwrap_or(0.0);
        layers.insert(
            "sim.cycles_per_s",
            if ref_sim > 0.0 { cycles / ref_sim } else { 0.0 },
        );
    }

    /// Runs the campaign once per kind through `run_detection_observed`
    /// with the library's metrics registry and scheduling telemetry on.
    /// Its per-verdict counters must equal the counts taken from outside
    /// the traced calls. The snapshot counts were already checked against
    /// the registry of the traced calls themselves, so a campaign that
    /// shares reference passes between kinds still passes this check.
    fn cross_check(inputs: &Inputs, layers: &mut Layers) -> (u64, Vec<String>) {
        let mut merged = MetricsRegistry::new();
        let mut traces = Vec::new();
        for &kind in &inputs.kinds {
            let ctl = ObserveCtl {
                traced: true,
                metrics: true,
                ..ObserveCtl::default()
            };
            let report = run_detection_observed(
                &inputs.campaign,
                inputs.config(kind),
                &inputs.benchmarks,
                ctl,
            );
            merged.merge(report.metrics.as_ref().expect("metrics were requested"));
            traces.push(report.trace.expect("timings were requested"));
        }
        let pairs = [
            (Counter::RunsSimulated, "detection.runs_simulated"),
            (Counter::PrunedStatic, "detection.pruned_static"),
            (Counter::PrunedActivation, "detection.pruned_activation"),
            (Counter::ForkCatchupCycles, "snapshot.catchup_cycles"),
            (Counter::ExitConverged, "detection.early_convergence"),
            (Counter::ExitStalled, "detection.early_watchdog"),
        ];
        let mut errors = Vec::new();
        for (counter, name) in pairs {
            let library = merged.get(counter);
            let ours = layers.get(name).copied().unwrap_or(-1.0);
            if library as f64 != ours {
                errors.push(format!(
                    "{}: run_detection_observed counted {library}, traced {name} = {ours}",
                    counter.name()
                ));
            }
        }
        campaign_layers(&concat(&traces), layers);
        (pairs.len() as u64, errors)
    }
}

/// Exact counts gathered from outside the library during a traced run.
#[derive(Default)]
struct Counts {
    golden_insts: u64,
    groups: u64,
    taken: u64,
    refilled: u64,
    peak_retained: u64,
    catchup: u64,
    probe_runs: u64,
    probe_cycles: u64,
    probe_committed: u64,
    prunable_sites: u64,
    verdicts: u64,
    runs_simulated: u64,
    pruned_static: u64,
    pruned_activation: u64,
    convergence: u64,
    watchdog: u64,
    errors: Vec<String>,
}

impl Counts {
    /// Accounts one built group's snapshot chain.
    fn group(&mut self, g: &DetectionGroup) {
        self.groups += 1;
        if let Some(chain) = &g.chain {
            let s = chain.stats();
            self.taken += s.taken;
            self.refilled += s.refilled;
            self.peak_retained = self.peak_retained.max(s.peak_retained);
        }
    }

    /// Accounts one verdict of `g`'s site `site_idx` from what
    /// `injection_tally_observed` returned: a pruned tally or an
    /// activation exit never simulates; every other verdict forked from
    /// the chain, caught up to its arming cycle and ran.
    fn verdict(
        &mut self,
        g: &DetectionGroup,
        site_idx: usize,
        tally: &DetectionTally,
        early: Option<EarlyExitKind>,
    ) {
        self.verdicts += 1;
        if tally.pruned > 0 {
            self.pruned_static += 1;
            return;
        }
        match early {
            Some(EarlyExitKind::Activation) => {
                self.pruned_activation += 1;
                return;
            }
            Some(EarlyExitKind::Convergence) => self.convergence += 1,
            Some(EarlyExitKind::Watchdog) => self.watchdog += 1,
            None => {}
        }
        self.runs_simulated += 1;
        if let Some(chain) = &g.chain {
            self.catchup += chain.catchup_cycles(g.arms[site_idx]);
        }
    }

    /// Compares the outside counts with the registry the traced calls
    /// filled; a difference is an error of the repetition.
    fn check_against(&mut self, r: &MetricsRegistry) {
        let pairs = [
            (Counter::Setups, self.groups),
            (Counter::SnapshotsTaken, self.taken),
            (Counter::SnapshotsRefilled, self.refilled),
            (Counter::RunsSimulated, self.runs_simulated),
            (Counter::PrunedStatic, self.pruned_static),
            (Counter::PrunedActivation, self.pruned_activation),
            (Counter::ForkCatchupCycles, self.catchup),
            (Counter::ExitConverged, self.convergence),
            (Counter::ExitStalled, self.watchdog),
        ];
        let mut all: Vec<(&str, u64, u64)> = pairs
            .iter()
            .map(|&(c, ours)| (c.name(), r.get(c), ours))
            .collect();
        all.push((
            Gauge::PeakRetainedSnapshots.name(),
            r.gauge(Gauge::PeakRetainedSnapshots),
            self.peak_retained,
        ));
        for (name, library, ours) in all {
            if library != ours {
                self.errors.push(format!(
                    "{name}: the traced calls' registry counted {library}, outside {ours}"
                ));
            }
        }
    }

    fn layers(&self) -> Layers {
        let verdicts = self.verdicts.max(1) as f64;
        Layers::from([
            ("isa.golden_insts", self.golden_insts as f64),
            ("analysis.pruned_sites", self.prunable_sites as f64),
            ("sim.runs", self.probe_runs as f64),
            ("sim.cycles", self.probe_cycles as f64),
            ("sim.committed_insts", self.probe_committed as f64),
            ("snapshot.ref_passes", self.groups as f64),
            ("snapshot.taken", self.taken as f64),
            ("snapshot.refilled", self.refilled as f64),
            ("snapshot.peak_retained", self.peak_retained as f64),
            ("snapshot.catchup_cycles", self.catchup as f64),
            ("detection.runs_simulated", self.runs_simulated as f64),
            ("detection.pruned_static", self.pruned_static as f64),
            ("detection.pruned_activation", self.pruned_activation as f64),
            ("detection.early_convergence", self.convergence as f64),
            ("detection.early_watchdog", self.watchdog as f64),
            (
                "detection.simulated_ratio",
                self.runs_simulated as f64 / verdicts,
            ),
        ])
    }
}

/// The benchmark's own probe of one group: its static analysis, then a
/// plain fault-free run of the group's reference pass (instrumented for
/// site usage, as the chain build's pass is) with no snapshots taken.
fn reference_probe(
    tracer: &Tracer,
    parent: u32,
    bench: Benchmark,
    g: &DetectionGroup,
    c: &mut Counts,
) {
    let p = Some(parent);
    let analysis = tracer.span("SiteAnalysis::analyze", p, |_| {
        SiteAnalysis::analyze(&g.prog, &FuCounts::default())
            .expect("workload programs are analyzable")
    });
    c.prunable_sites += sites()
        .into_iter()
        .filter(|&s| analysis.prunable(s))
        .count() as u64;
    let mut ff = tracer.span("Core::new", p, |_| {
        Core::new(g.cfg.core_config(g.mode), &g.prog, FaultPlan::new())
    });
    ff.enable_site_usage();
    let out = tracer.span("Core::run", p, |_| ff.run(MAX_CYCLES));
    if !out.completed() || ff.cycle() != g.fault_free_cycles {
        c.errors.push(format!(
            "{}/{}: plain pass ran {} cycles ({out:?}), chain pass {}",
            g.mode,
            bench,
            ff.cycle(),
            g.fault_free_cycles
        ));
    }
    let s = ff.stats();
    c.probe_runs += 1;
    c.probe_cycles += ff.cycle();
    c.probe_committed += s.committed[0] + s.committed[1];
}

/// Several sequential campaigns as one timeline.
fn concat(traces: &[CampaignTrace]) -> CampaignTrace {
    let mut out = CampaignTrace {
        workers: 1,
        wall: Duration::ZERO,
        timings: Vec::new(),
    };
    for t in traces {
        out.workers = out.workers.max(t.workers);
        let (offset, base) = (out.wall, out.timings.len());
        out.timings.extend(t.timings.iter().map(|j| JobTiming {
            queue_wait: j.queue_wait + offset,
            job: base + j.job,
            ..*j
        }));
        out.wall += t.wall;
    }
    out
}
