//! The repository's benchmark: one process runs one workload for a set
//! number of seconds, checks its outputs against committed references,
//! and prints every metric as one JSON object on its last line.
//!
//! ```text
//! perfbench --workload <figures|inject|fuzz> --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, measured with no
//! spans recorded. With `--trace 1` it alternates untraced and traced
//! repetitions and prints the per-layer metrics; spans are written to
//! `out/trace-<workload>.jsonl` beside this crate's manifest. `--bless`
//! runs one repetition and rewrites the workload's reference instead of
//! checking it. Run as `perfbench --calibrate`, it runs the host-speed
//! calibration kernel once and prints its time (see `calib`).
//! `METRICS.md` defines every metric.

mod calib;
mod figures;
mod fuzz;
mod inject;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use trace::{Spans, Tracer};

/// Per-layer values of one traced repetition, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One repetition's checked result.
pub struct Output {
    /// The deterministic output compared with the committed reference.
    /// Lines starting with `job ` are one operation each; every other
    /// line belongs to the report as a whole.
    pub lines: Vec<String>,
    /// Operations the repetition performed (what `ops_per_s` counts).
    pub ops: u64,
    /// Operations that failed on their own: a differential failure or a
    /// simulation that did not complete.
    pub op_failures: u64,
    /// Simulated cycles of the repetition, where the workload sees them.
    pub sim_cycles: u64,
    /// Simulated model results (exact; part of the per-layer report).
    pub model: Vec<(&'static str, f64)>,
    /// The output holds only the `job` lines (a traced composition that
    /// cannot render the library's report text); only those are checked.
    pub partial: bool,
}

/// A benchmark workload: inputs built once, then a timed region that is
/// repeated, plus a traced variant of the same work.
pub trait Workload {
    type Inputs: Sync;
    const NAME: &'static str;
    /// Builds the inputs; timed as set-up.
    fn setup(seed: u64) -> Self::Inputs;
    /// One repetition of the timed region, with no spans recorded.
    fn run(inputs: &Self::Inputs) -> Output;
    /// The same work as [`Workload::run`], with a span around each call
    /// into a layer, parented under `root`. Returns the output and the
    /// exact counts gathered from outside the library.
    fn run_traced(inputs: &Self::Inputs, tracer: &Tracer, root: u32) -> (Output, Layers);
    /// Adds the span-derived per-layer times of one traced repetition.
    fn span_layers(spans: &Spans, layers: &mut Layers);
    /// Runs the library's own counters once and compares them with the
    /// traced counts; also adds layer metrics only that run can give.
    /// Returns the number of comparisons and the failed ones.
    fn cross_check(inputs: &Self::Inputs, layers: &mut Layers) -> (u64, Vec<String>);
}

/// Every per-layer metric with its unit, in report order. Layers a
/// workload does not call report 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("isa.golden_s", "s"),
    ("isa.golden_insts", "count"),
    ("workloads.build_s", "s"),
    ("analysis.analyze_s", "s"),
    ("analysis.pruned_sites", "count"),
    ("sim.new_s", "s"),
    ("sim.run_s", "s"),
    ("sim.runs", "count"),
    ("sim.cycles", "count"),
    ("sim.committed_insts", "count"),
    ("sim.cycles_per_s", "1/s"),
    ("mem.l1i_miss_rate", "ratio"),
    ("mem.l1d_miss_rate", "ratio"),
    ("mem.l2_miss_rate", "ratio"),
    ("snapshot.ref_passes", "count"),
    ("snapshot.ref_sim_s", "s"),
    ("snapshot.chain_build_s", "s"),
    ("snapshot.copy_s", "s"),
    ("snapshot.taken", "count"),
    ("snapshot.refilled", "count"),
    ("snapshot.peak_retained", "count"),
    ("snapshot.fork_s", "s"),
    ("snapshot.catchup_cycles", "count"),
    ("detection.group_build_s", "s"),
    ("detection.job_ms_p50", "ms"),
    ("detection.job_ms_tail", "ms"),
    ("detection.runs_simulated", "count"),
    ("detection.pruned_static", "count"),
    ("detection.pruned_activation", "count"),
    ("detection.early_convergence", "count"),
    ("detection.early_watchdog", "count"),
    ("detection.simulated_ratio", "ratio"),
    ("detection.inject_sim_s", "s"),
    ("detection.oracle_s", "s"),
    ("faults.srt.ce", "count"),
    ("faults.srt.due", "count"),
    ("faults.srt.sdc", "count"),
    ("faults.srt.benign", "count"),
    ("faults.bj.ce", "count"),
    ("faults.bj.due", "count"),
    ("faults.bj.sdc", "count"),
    ("faults.bj.benign", "count"),
    ("campaign.job_ms_p50", "ms"),
    ("campaign.job_ms_tail", "ms"),
    ("campaign.queue_wait_ms_p50", "ms"),
    ("campaign.busy_frac_min", "ratio"),
    ("campaign.tail_idle_s", "s"),
    ("fuzz.gen_s", "s"),
    ("fuzz.diff_s", "s"),
    ("fuzz.programs", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.top_level_coverage", "ratio"),
    ("sim_cycles_per_s", "1/s"),
    ("injections_per_s", "1/s"),
    ("programs_per_s", "1/s"),
    ("bj_coverage_pct", "%"),
    ("bj_slowdown_pct", "%"),
    ("bj_sdc_runs", "count"),
    ("error_rate", "ratio"),
];

/// Set-up is timed in slices: one before the timed region and one
/// after every timed repetition, so that `setup_s` samples the host over
/// the whole run as `wall_s` does. A slice repeats set-up at least
/// [`SETUP_SLICE_REPS`] times and for at least [`SETUP_SLICE_SECS`];
/// `setup_s` is the median of every set-up timed.
const SETUP_SLICE_REPS: usize = 3;
const SETUP_SLICE_SECS: f64 = 0.1;
/// The timed region runs at least this many times; `wall_s` is the
/// median repetition.
const MIN_REPS: usize = 3;
/// Traced runs alternate at least this many untraced/traced pairs.
const MIN_TRACED_PAIRS: usize = 2;
/// Top-level spans must cover at least this share of a traced
/// repetition: the rest is time no span accounts for.
const MIN_TOP_LEVEL_COVERAGE: f64 = 0.98;

#[derive(Clone, Copy)]
enum Kind {
    Figures,
    Inject,
    Fuzz,
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <figures|inject|fuzz> --seed <n> --seconds <s> --trace <0|1> [--bless]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage_exit(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => {
                kind = Some(match value().as_str() {
                    "figures" => Kind::Figures,
                    "inject" => Kind::Inject,
                    "fuzz" => Kind::Fuzz,
                    other => usage_exit(&format!("unknown workload `{other}`")),
                })
            }
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage_exit("bad --seed")),
                )
            }
            "--seconds" => {
                let s = value()
                    .parse::<f64>()
                    .unwrap_or_else(|_| usage_exit("bad --seconds"));
                if !(s > 0.0 && s.is_finite()) {
                    usage_exit("--seconds must be positive");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_exit("--trace takes 0 or 1"),
                }
            }
            "--bless" => bless = true,
            other => usage_exit(&format!("unknown argument `{other}`")),
        }
    }
    Args {
        kind: kind.unwrap_or_else(|| usage_exit("--workload is required")),
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace,
        bless,
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(calib::FLAG) {
        println!("{}", calib::kernel_s());
        return;
    }
    let args = parse_args();
    match args.kind {
        Kind::Figures => bench::<figures::Figures>(&args),
        Kind::Inject => bench::<inject::Inject>(&args),
        Kind::Fuzz => bench::<fuzz::Fuzz>(&args),
    }
}

/// This crate's directory in the checkout the benchmark was built in.
fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn ref_path(name: &str) -> PathBuf {
    crate_dir().join("refs").join(format!("{name}.txt"))
}

/// The committed reference lines for `W` at `seed`. Workloads whose
/// output does not depend on the seed keep one reference; `fuzz` keeps
/// one line per seed, and a seed with no line has no reference.
fn load_reference(name: &str, seed: u64, per_seed: bool) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(ref_path(name)).ok()?;
    if per_seed {
        let key = format!("seed {seed} ");
        let line = text.lines().find(|l| l.starts_with(&key))?;
        Some(vec![line.to_string()])
    } else {
        Some(text.lines().map(str::to_string).collect())
    }
}

fn bless_reference(name: &str, per_seed: bool, lines: &[String]) {
    let path = ref_path(name);
    let text = if per_seed {
        let key = lines[0]
            .split_whitespace()
            .take(2)
            .collect::<Vec<_>>()
            .join(" ")
            + " ";
        let old = std::fs::read_to_string(&path).unwrap_or_default();
        let mut all: Vec<String> = old
            .lines()
            .filter(|l| !l.starts_with(&key))
            .map(str::to_string)
            .collect();
        all.push(lines[0].clone());
        all.sort_by_key(|l| {
            l.split_whitespace()
                .nth(1)
                .and_then(|s| s.parse::<u64>().ok())
        });
        all.join("\n") + "\n"
    } else {
        lines.join("\n") + "\n"
    };
    std::fs::create_dir_all(path.parent().expect("refs has a parent"))
        .and_then(|()| std::fs::write(&path, text))
        .unwrap_or_else(|e| {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
    eprintln!("blessed {}", path.display());
}

/// Compares one repetition with the reference: each differing `job`
/// line is one failed operation, and any other difference fails the
/// report once.
fn mismatches(got: &[String], want: &[String]) -> u64 {
    if got.len() != want.len() {
        return got.iter().filter(|l| l.starts_with("job ")).count() as u64 + 1;
    }
    let mut failed = 0;
    let mut report_differs = false;
    for (g, w) in got.iter().zip(want) {
        if g != w {
            if g.starts_with("job ") {
                failed += 1;
            } else {
                report_differs = true;
            }
        }
    }
    failed + u64::from(report_differs)
}

/// Tallies of operations attempted and failed across a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
        if failed > 0 {
            eprintln!("check failed: {what} ({failed} of {attempted})");
        }
    }
}

/// Checks one repetition's output: its own failed operations, the
/// reference, and exact repetition of the first repetition's output.
fn check(
    out: &Output,
    reference: Option<&[String]>,
    first: &mut Option<Vec<String>>,
    tally: &mut Tally,
) {
    let jobs = out.lines.iter().filter(|l| l.starts_with("job ")).count() as u64;
    let attempted = out.ops.max(jobs) + 1;
    let mut failed = out.op_failures;
    let jobs_only = |lines: &[String]| -> Vec<String> {
        lines
            .iter()
            .filter(|l| l.starts_with("job "))
            .cloned()
            .collect()
    };
    let comparable = |lines: &[String]| {
        if out.partial {
            jobs_only(lines)
        } else {
            lines.to_vec()
        }
    };
    let got = comparable(&out.lines);
    if let Some(want) = reference {
        failed += mismatches(&got, &comparable(want));
    }
    match first {
        Some(f) if comparable(f) != got => {
            eprintln!("output differs from the first repetition");
            failed += 1;
        }
        Some(_) => {}
        None => *first = Some(out.lines.clone()),
    }
    tally.add(attempted, failed, "output against reference");
}

/// Runs `f`, counting a panic (a simulation that did not complete) as
/// a failed repetition.
fn guarded<T>(what: &str, f: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("{what} panicked");
            None
        }
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of `v` with at least ten samples beyond it
/// (the largest sample when there are ten or fewer).
pub fn tail(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n <= 10 => s[n - 1],
        n => s[n - 11],
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One slice of set-up repetitions: appends each one's time to `times`
/// and returns the last inputs.
fn setup_slice<W: Workload>(seed: u64, times: &mut Vec<f64>) -> W::Inputs {
    let t0 = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let inputs = W::setup(seed);
        times.push(t.elapsed().as_secs_f64());
        reps += 1;
        if reps >= SETUP_SLICE_REPS && t0.elapsed().as_secs_f64() >= SETUP_SLICE_SECS {
            return inputs;
        }
    }
}

fn timed_run<W: Workload>(inputs: &W::Inputs) -> (Option<Output>, f64) {
    let t = Instant::now();
    let out = guarded(W::NAME, || W::run(inputs));
    (out, t.elapsed().as_secs_f64())
}

/// True while another repetition of about `last` seconds still fits.
fn another(started: Instant, reps: usize, min_reps: usize, last: f64, seconds: f64) -> bool {
    reps < min_reps || started.elapsed().as_secs_f64() + last <= seconds
}

fn bench<W: Workload>(args: &Args) {
    let per_seed = matches!(args.kind, Kind::Fuzz);
    let reference = load_reference(W::NAME, args.seed, per_seed);

    if args.bless {
        let out = W::run(&W::setup(args.seed));
        assert_eq!(
            out.op_failures, 0,
            "refusing to bless a run with failed operations"
        );
        bless_reference(W::NAME, per_seed, &out.lines);
        return;
    }
    match &reference {
        Some(_) => {}
        None if per_seed => eprintln!(
            "note: no committed {} reference for seed {}; checking failures and repeatability only",
            W::NAME,
            args.seed
        ),
        None => {
            eprintln!("error: missing reference {}", ref_path(W::NAME).display());
            std::process::exit(1);
        }
    }

    let mut tally = Tally::default();
    let mut first = None;
    let mut walls = Vec::new();
    let mut first_out = None;
    let mut record = |out: Option<Output>, wall: f64, tally: &mut Tally, walls: &mut Vec<f64>| {
        walls.push(wall);
        match out {
            Some(out) => {
                check(&out, reference.as_deref(), &mut first, tally);
                first_out.get_or_insert(out);
            }
            None => tally.add(1, 1, "repetition did not complete"),
        }
    };

    let started = Instant::now();
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if !args.trace {
        // Each repetition runs on the inputs of the set-up slice before
        // it; the old inputs are dropped first, so only one set is live.
        // A calibration kernel runs before the timed region and after
        // every repetition; the medians are scaled by the median kernel.
        let mut kernels = vec![calib::measure()];
        let mut setups = Vec::new();
        let mut inputs = setup_slice::<W>(args.seed, &mut setups);
        loop {
            let t = Instant::now();
            let (out, wall) = timed_run::<W>(&inputs);
            record(out, wall, &mut tally, &mut walls);
            drop(inputs);
            inputs = setup_slice::<W>(args.seed, &mut setups);
            kernels.push(calib::measure());
            let round = t.elapsed().as_secs_f64();
            if !another(started, walls.len(), MIN_REPS, round, args.seconds) {
                break;
            }
        }
        let scale = calib::REFERENCE_S / median(&kernels);
        let setup_s = median(&setups) * scale;
        let wall_s = median(&walls) * scale;
        let ops = first_out.as_ref().map_or(0, |o| o.ops);
        metrics.push(("setup_s", setup_s, "s"));
        metrics.push(("wall_s", wall_s, "s"));
        metrics.push(("ops_per_s", ops as f64 / wall_s, "1/s"));
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MB"));
        if let Some(out) = &first_out {
            for (name, value) in views(args.kind, out, out.sim_cycles, wall_s) {
                let unit = PER_LAYER.iter().find(|m| m.0 == name).map_or("", |m| m.1);
                let paper = PAPER.iter().find(|p| p.0 == name);
                let note = paper.map_or(String::new(), |p| format!(" (paper: {})", p.1));
                println!("{name:32} {value:>16.6} {unit}{note}");
            }
        }
        eprintln!(
            "{}: {} repetitions, {} set-ups, {} calibration kernels",
            W::NAME,
            walls.len(),
            setups.len(),
            kernels.len(),
        );
        eprintln!(
            "host: setup_s={:?} wall_s={:?} kernel_s={:?}",
            median(&setups),
            median(&walls),
            median(&kernels)
        );
    } else {
        let inputs = W::setup(args.seed);
        let mut traced_walls = Vec::new();
        let mut layer_reps: Vec<Layers> = Vec::new();
        let mut span_reps: Vec<Spans> = Vec::new();
        let mut traced_sim_cycles = 0;
        loop {
            let (out, wall) = timed_run::<W>(&inputs);
            record(out, wall, &mut tally, &mut walls);

            let tracer = Tracer::new();
            let t = Instant::now();
            let traced = guarded(W::NAME, || {
                tracer.span("rep", None, |root| W::run_traced(&inputs, &tracer, root))
            });
            let twall = t.elapsed().as_secs_f64();
            let spans = tracer.into_spans();
            if let Some((out, mut layers)) = traced {
                traced_sim_cycles = out.sim_cycles;
                W::span_layers(&spans, &mut layers);
                let coverage = spans.top_level_coverage();
                layers.insert("trace.top_level_coverage", coverage);
                let gap_failed = u64::from(coverage < MIN_TOP_LEVEL_COVERAGE);
                tally.add(1, gap_failed, "top-level spans cover the traced repetition");
                record(Some(out), twall, &mut tally, &mut traced_walls);
                layer_reps.push(layers);
            } else {
                record(None, twall, &mut tally, &mut traced_walls);
            }
            span_reps.push(spans);
            let pair = wall + twall;
            if !another(
                started,
                traced_walls.len(),
                MIN_TRACED_PAIRS,
                pair,
                args.seconds,
            ) {
                break;
            }
        }
        let mut layers = merge_layer_reps(&layer_reps, &mut tally);
        let (checks, errors) = guarded("cross-check", || W::cross_check(&inputs, &mut layers))
            .unwrap_or((1, vec!["cross-check panicked".to_string()]));
        for e in &errors {
            eprintln!("cross-check: {e}");
        }
        tally.add(
            checks,
            errors.len() as u64,
            "traced counts against the library's counters",
        );

        let wall_s = median(&walls);
        layers.insert("trace.overhead_ratio", median(&traced_walls) / wall_s);
        if let Some(out) = &first_out {
            layers.extend(views(args.kind, out, traced_sim_cycles, wall_s));
        }
        layers.insert(
            "error_rate",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        );

        let trace_path = crate_dir()
            .join("out")
            .join(format!("trace-{}.jsonl", W::NAME));
        let run_id = format!("{}-{}-{}", W::NAME, args.seed, std::process::id());
        match trace::write_trace(&trace_path, &run_id, &span_reps) {
            Ok(()) => eprintln!("spans written to {}", trace_path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", trace_path.display()),
        }
        if let Some(spans) = span_reps.last() {
            eprintln!("self time by call (last traced repetition):");
            for (name, secs) in spans.self_time_by_name().iter().take(16) {
                eprintln!("  {name:34} {secs:10.4} s");
            }
        }
        for &(name, unit) in PER_LAYER {
            metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
    }

    let correct = tally.failed == 0;
    print_human(&metrics, &tally);
    print_json(correct, &tally, &metrics);
}

/// The paper's figures for the simulated metrics that have one.
const PAPER: &[(&str, f64)] = &[("bj_coverage_pct", 97.0), ("bj_slowdown_pct", 15.0)];

/// The workload's own views of one repetition: its throughput under
/// the workload's name for it, simulated cycles per second where the
/// workload sees its cycles, and the simulated model results.
fn views(kind: Kind, out: &Output, sim_cycles: u64, wall_s: f64) -> Vec<(&'static str, f64)> {
    let mut v = Vec::new();
    if sim_cycles > 0 {
        v.push(("sim_cycles_per_s", sim_cycles as f64 / wall_s));
    }
    match kind {
        Kind::Figures => {}
        Kind::Inject => v.push(("injections_per_s", out.ops as f64 / wall_s)),
        Kind::Fuzz => v.push(("programs_per_s", out.ops as f64 / wall_s)),
    }
    v.extend(out.model.iter().copied());
    v
}

/// Medians of the per-repetition layer values; exact counts must repeat
/// exactly between traced repetitions.
fn merge_layer_reps(reps: &[Layers], tally: &mut Tally) -> Layers {
    let mut merged = Layers::new();
    let Some(first) = reps.first() else {
        return merged;
    };
    for &name in first.keys() {
        let vals: Vec<f64> = reps.iter().filter_map(|r| r.get(name).copied()).collect();
        let exact =
            PER_LAYER.iter().any(|&(n, u)| n == name && u == "count") || name.starts_with("mem.");
        if exact {
            let same = vals.iter().all(|&v| v == vals[0]);
            tally.add(1, u64::from(!same), &format!("{name} repeats exactly"));
            merged.insert(name, vals[0]);
        } else {
            merged.insert(name, median(&vals));
        }
    }
    merged
}

fn print_human(metrics: &[(&'static str, f64, &'static str)], tally: &Tally) {
    for (name, value, unit) in metrics.iter().filter(|m| m.0 != "error_rate") {
        println!("{name:32} {value:>16.6} {unit}");
    }
    println!(
        "{:32} {:>16.6} ratio ({} failed of {} attempted)",
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
}

fn print_json(correct: bool, tally: &Tally, metrics: &[(&'static str, f64, &'static str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}
