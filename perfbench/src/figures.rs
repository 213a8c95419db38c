//! `figures`: the paper's evaluation, 16 kernels x 4 modes, fault-free,
//! through `Experiment::run_all_on` on a 2-worker campaign.

use blackjack::faults::FaultPlan;
use blackjack::sim::{Core, CoreConfig, Mode, SimStats};
use blackjack::workloads::{build, Benchmark};
use blackjack::{Campaign, Experiment, ExperimentResult};

use crate::trace::{Spans, Tracer};
use crate::{median, tail, Layers, Output, Workload};

/// Campaign workers: the paper sweep's job mix on two workers.
const WORKERS: usize = 2;
/// `Experiment`'s own per-run cycle budget.
const MAX_CYCLES: u64 = 200_000_000;

pub struct Figures;

pub struct Inputs {
    campaign: Campaign,
    /// `program <name> <static instructions>` per kernel.
    programs: Vec<String>,
}

/// One (benchmark, mode) job's exact results.
struct Job {
    bench: Benchmark,
    mode: Mode,
    stats: SimStats,
    completed: bool,
}

fn job_line(j: &Job) -> String {
    format!(
        "job {}/{} cycles={} committed={},{}",
        j.bench.name(),
        j.mode,
        j.stats.cycles,
        j.stats.committed[0],
        j.stats.committed[1]
    )
}

fn jobs_of(result: &ExperimentResult) -> Vec<Job> {
    result
        .rows
        .iter()
        .flat_map(|r| [&r.single, &r.srt, &r.ns, &r.bj])
        .map(|m| Job {
            bench: m.bench,
            mode: m.mode,
            stats: m.stats.clone(),
            completed: m.outcome.completed(),
        })
        .collect()
}

impl Workload for Figures {
    type Inputs = Inputs;
    const NAME: &'static str = "figures";

    fn setup(_seed: u64) -> Inputs {
        let programs = Benchmark::ALL
            .iter()
            .map(|&b| format!("program {} {}", b.name(), build(b, 1).len()))
            .collect();
        Inputs {
            campaign: Campaign::with_workers(WORKERS),
            programs,
        }
    }

    fn run(inputs: &Inputs) -> Output {
        let result = Experiment::new().run_all_on(&inputs.campaign);
        let jobs = jobs_of(&result);
        let mut lines = inputs.programs.clone();
        lines.extend(jobs.iter().map(job_line));
        for table in [
            result.fig4_table(),
            result.fig5_table(),
            result.fig6_table(),
            result.fig7_table(),
        ] {
            lines.extend(table.lines().map(str::to_string));
        }
        let (srt_cov, bj_cov, slowdown) = result.headline();
        lines.push(format!(
            "headline srt_coverage={srt_cov:.3} bj_coverage={bj_cov:.3} bj_slowdown={slowdown:.3}"
        ));
        Output {
            lines,
            ops: jobs.len() as u64,
            op_failures: jobs.iter().filter(|j| !j.completed).count() as u64,
            sim_cycles: jobs.iter().map(|j| j.stats.cycles).sum(),
            model: vec![("bj_coverage_pct", bj_cov), ("bj_slowdown_pct", slowdown)],
            partial: false,
        }
    }

    /// Runs each job as `Experiment::run_one` does — build, construct,
    /// fork from a cycle-0 snapshot, run — with a span around each call,
    /// on the same 2-worker campaign.
    fn run_traced(inputs: &Inputs, tracer: &Tracer, root: u32) -> (Output, Layers) {
        let pairs: Vec<(Benchmark, Mode)> = Benchmark::ALL
            .iter()
            .flat_map(|&b| Mode::ALL.iter().map(move |&m| (b, m)))
            .collect();
        let (runs, _) = tracer.span("Campaign::run_traced", Some(root), |campaign_span| {
            let jobs: Vec<_> = pairs
                .iter()
                .map(|&(bench, mode)| {
                    move || {
                        tracer.span("job", Some(campaign_span), |job| {
                            let prog =
                                tracer.span("workloads::build", Some(job), |_| build(bench, 1));
                            let cfg = CoreConfig {
                                mode,
                                ..CoreConfig::default()
                            };
                            let core = tracer.span("Core::new", Some(job), |_| {
                                Core::new(cfg, &prog, FaultPlan::new())
                            });
                            let mut core = tracer.span("CoreSnapshot::fork", Some(job), |_| {
                                core.snapshot().fork(FaultPlan::new())
                            });
                            let outcome =
                                tracer.span("Core::run", Some(job), |_| core.run(MAX_CYCLES));
                            let m = core.mem_sys();
                            let caches = [*m.l1i_stats(), *m.l1d_stats(), *m.l2_stats()];
                            let job = Job {
                                bench,
                                mode,
                                stats: core.stats().clone(),
                                completed: outcome.completed(),
                            };
                            (job, caches)
                        })
                    }
                })
                .collect();
            inputs.campaign.run_traced(jobs)
        });
        let mut layers = Layers::new();
        let mut acc = [(0u64, 0u64); 3];
        for (_, caches) in &runs {
            for (a, c) in acc.iter_mut().zip(caches) {
                a.0 += c.accesses;
                a.1 += c.misses;
            }
        }
        for (name, (accesses, misses)) in
            ["mem.l1i_miss_rate", "mem.l1d_miss_rate", "mem.l2_miss_rate"]
                .into_iter()
                .zip(acc)
        {
            layers.insert(name, misses as f64 / accesses.max(1) as f64);
        }
        let jobs: Vec<Job> = runs.into_iter().map(|(j, _)| j).collect();
        layers.insert("sim.runs", jobs.len() as f64);
        layers.insert(
            "sim.cycles",
            jobs.iter().map(|j| j.stats.cycles).sum::<u64>() as f64,
        );
        layers.insert(
            "sim.committed_insts",
            jobs.iter()
                .map(|j| j.stats.committed[0] + j.stats.committed[1])
                .sum::<u64>() as f64,
        );
        // The job lines determine every table, so the traced jobs are
        // checked line for line and the tables are left to `run`.
        let out = Output {
            lines: jobs.iter().map(job_line).collect(),
            ops: jobs.len() as u64,
            op_failures: jobs.iter().filter(|j| !j.completed).count() as u64,
            sim_cycles: jobs.iter().map(|j| j.stats.cycles).sum(),
            model: Vec::new(),
            partial: true,
        };
        (out, layers)
    }

    fn span_layers(spans: &Spans, layers: &mut Layers) {
        layers.insert("workloads.build_s", spans.total("workloads::build"));
        layers.insert("sim.new_s", spans.total("Core::new"));
        layers.insert("sim.run_s", spans.total("Core::run"));
        layers.insert("snapshot.fork_s", spans.total("CoreSnapshot::fork"));
        let run_s = spans.total("Core::run");
        let cycles = layers.get("sim.cycles").copied().unwrap_or(0.0);
        layers.insert(
            "sim.cycles_per_s",
            if run_s > 0.0 { cycles / run_s } else { 0.0 },
        );
    }

    /// Runs `Experiment::run_all_traced_on` once: its `CampaignTrace`
    /// gives the campaign metrics, and its job count and results must
    /// match the traced jobs.
    fn cross_check(inputs: &Inputs, layers: &mut Layers) -> (u64, Vec<String>) {
        let (result, trace) = Experiment::new().run_all_traced_on(&inputs.campaign);
        let mut errors = Vec::new();
        let runs = layers.get("sim.runs").copied().unwrap_or(0.0);
        if trace.timings.len() as f64 != runs {
            errors.push(format!(
                "CampaignTrace has {} jobs, traced {runs}",
                trace.timings.len()
            ));
        }
        let cycles: u64 = jobs_of(&result).iter().map(|j| j.stats.cycles).sum();
        if cycles as f64 != layers.get("sim.cycles").copied().unwrap_or(0.0) {
            errors.push(format!(
                "run_all_traced_on simulated {cycles} cycles, traced jobs differ"
            ));
        }
        campaign_layers(&trace, layers);
        (2, errors)
    }
}

/// Campaign metrics from a `CampaignTrace`.
pub fn campaign_layers(trace: &blackjack::CampaignTrace, layers: &mut Layers) {
    let run_ms: Vec<f64> = trace
        .timings
        .iter()
        .map(|t| t.run.as_secs_f64() * 1e3)
        .collect();
    let wait_ms: Vec<f64> = trace
        .timings
        .iter()
        .map(|t| t.queue_wait.as_secs_f64() * 1e3)
        .collect();
    layers.insert("campaign.job_ms_p50", median(&run_ms));
    layers.insert("campaign.job_ms_tail", tail(&run_ms));
    layers.insert("campaign.queue_wait_ms_p50", median(&wait_ms));
    layers.insert(
        "campaign.busy_frac_min",
        trace
            .busy_fractions()
            .into_iter()
            .fold(f64::INFINITY, f64::min)
            .min(1.0),
    );
    // Idle tail: from the moment the first worker ran out of jobs to the
    // end of the campaign.
    let mut last_end = vec![0.0f64; trace.workers];
    for t in &trace.timings {
        let end = (t.queue_wait + t.run).as_secs_f64();
        last_end[t.worker] = last_end[t.worker].max(end);
    }
    let first_idle = last_end.iter().cloned().fold(f64::INFINITY, f64::min);
    layers.insert(
        "campaign.tail_idle_s",
        (trace.wall.as_secs_f64() - first_idle).max(0.0),
    );
}
