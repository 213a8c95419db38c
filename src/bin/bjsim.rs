//! `bjsim` — run a BJ-ISA assembly file on the BlackJack simulator.
//!
//! ```text
//! bjsim [options] <program.s>
//!
//! options:
//!   --mode single|srt|blackjack-ns|blackjack    (default: blackjack)
//!   --shuffle greedy|exhaustive                 (default: greedy)
//!   --slack N                                   (default: 256)
//!   --fault SITE:WAY[:BIT]  inject a stuck-at-1 hard fault on bit BIT
//!                           (0..64, default 0); SITE is `frontend`,
//!                           `backend`, `payload`, `cachedata`,
//!                           `cachetag`, `sbuf`, `dtq` or `lvq`, and WAY
//!                           must exist in the configured machine
//!   --max-cycles N                              (default: 1 billion)
//!   --oracle        replay every leading commit of a completed run
//!                   against the interpreter (any mode, fault-free only)
//!   --quiet         print only the outcome line
//! ```
//!
//! A malformed option, a fault site outside the machine, or `--oracle`
//! with `--fault` exits with status 2; an oracle mismatch exits with 1.
//!
//! Example:
//!
//! ```text
//! cargo run --release --bin bjsim -- --mode blackjack --fault backend:4:5 prog.s
//! ```
//!
//! When `BJ_TRACE=<path>` is set the run is traced: occupancy
//! histograms, the `(class, way)` issue heatmap, the flight recorder's
//! final window, and any detection event are written to `<path>` as
//! JSONL (render with `bj-trace`). The path is validated up front —
//! empty or unwritable values exit with status 2. `BJ_TRACE_DEPTH=<n>`
//! overrides the flight recorder's event capacity (default 256) for
//! deeper post-detection forensics; zero or non-numeric values exit
//! with status 2.

use std::process::exit;

use blackjack::envcfg;
use blackjack::faults::{parse_fault, AreaModel, FaultPlan};
use blackjack::isa::asm::assemble_named;
use blackjack::sim::{
    replay_against_interp, Core, CoreConfig, Mode, RunOutcome, ShuffleAlgo, FLIGHT_CAPACITY,
};
use blackjack::telemetry::TraceWriter;

fn usage() -> ! {
    eprintln!("usage: bjsim [--mode M] [--shuffle S] [--slack N] [--fault SITE:WAY[:BIT]] [--max-cycles N] [--oracle] [--quiet] <program.s>");
    exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut cfg = CoreConfig::with_mode(Mode::BlackJack);
    let mut plan = FaultPlan::new();
    let mut path: Option<String> = None;
    let mut max_cycles: u64 = 1_000_000_000;
    let mut oracle = false;
    let mut quiet = false;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--mode" => {
                let m = args.next().unwrap_or_else(|| usage());
                cfg.mode = match m.as_str() {
                    "single" => Mode::Single,
                    "srt" => Mode::Srt,
                    "blackjack-ns" => Mode::BlackJackNoShuffle,
                    "blackjack" => Mode::BlackJack,
                    other => {
                        eprintln!("unknown mode `{other}`");
                        usage()
                    }
                };
            }
            "--shuffle" => {
                let m = args.next().unwrap_or_else(|| usage());
                cfg.shuffle_algo = match m.as_str() {
                    "greedy" => ShuffleAlgo::Greedy,
                    "exhaustive" => ShuffleAlgo::Exhaustive,
                    other => {
                        eprintln!("unknown shuffle algorithm `{other}`");
                        usage()
                    }
                };
            }
            "--slack" => {
                cfg.slack = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--max-cycles" => {
                max_cycles = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--fault" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let fault = parse_fault(&spec).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                });
                plan.add(fault);
            }
            "--oracle" => oracle = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("unknown option `{other}`");
                usage()
            }
        }
    }

    let Some(path) = path else { usage() };
    for f in plan.faults() {
        let extent = cfg.site_extent(f.site);
        if f.site.index() >= extent {
            eprintln!(
                "fault site `{}:{}` is outside the machine (want 0..{extent})",
                f.site.family(),
                f.site.index()
            );
            usage();
        }
    }
    if oracle && !plan.is_empty() {
        eprintln!("--oracle checks fault-free runs only; drop --fault");
        usage();
    }
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let prog = assemble_named(&src, &path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(1);
    });

    let mut writer = TraceWriter::from_env_or_exit("bjsim");
    let trace_depth = envcfg::positive_from_env::<usize>("BJ_TRACE_DEPTH")
        .unwrap_or_else(|e| envcfg::exit_invalid(&e))
        .unwrap_or(FLIGHT_CAPACITY);
    let mut core = Core::new(cfg.clone(), &prog, plan);
    if oracle {
        core.enable_commit_log();
    }
    if writer.is_some() {
        core.enable_trace_with_capacity(trace_depth);
    }
    let outcome = core.run(max_cycles);
    let replayed = (oracle && outcome.completed()).then(|| {
        let log = core.take_commit_log().expect("commit log was enabled");
        if let Err(e) = replay_against_interp(&prog, &log) {
            eprintln!("oracle mismatch: {e}");
            exit(1);
        }
        log.len()
    });

    if let Some(w) = writer.as_mut() {
        let state = core.take_trace().expect("tracing was enabled");
        w.emit_run(&path, core.stats(), Some(&state));
        w.emit_heatmap(&path, &state.heat);
        w.emit_flight(&state.flight.events());
        if let RunOutcome::Detected(ev) = &outcome {
            w.emit_detection(ev);
        }
    }

    let s = core.stats();
    match outcome {
        RunOutcome::Completed => println!("completed: {} instructions, {} cycles (IPC {:.3})",
            s.committed[0], s.cycles, s.ipc()),
        RunOutcome::Detected(ev) => println!("DETECTED: {ev}"),
        RunOutcome::CycleLimit => {
            println!("cycle limit reached at {}", s.cycles);
            if !quiet {
                eprintln!("{}", core.debug_state());
            }
            exit(3);
        }
        // bjsim never arms the campaign early-exit checks (stall window /
        // quiesce cycle), so this is defensive only.
        RunOutcome::EarlyExit(r) => println!("early exit ({r}) at cycle {}", s.cycles),
    }
    if quiet {
        return;
    }
    if cfg.mode.is_redundant() {
        let area = AreaModel::default();
        println!(
            "coverage: {:.1}% total ({:.1}% frontend, {:.1}% backend) over {} pairs",
            100.0 * s.total_coverage(&area),
            100.0 * s.frontend_coverage(),
            100.0 * s.backend_coverage(),
            s.coverage.pairs
        );
        println!(
            "interference: {:.2}% leading-trailing, {:.2}% trailing-trailing; burstiness {:.1}%",
            100.0 * s.lt_interference(),
            100.0 * s.tt_interference(),
            100.0 * s.burstiness()
        );
        if cfg.mode.uses_dtq() {
            println!(
                "shuffle: {} packets, {} splits, {} filler NOPs, {} forced",
                s.shuffle_packets, s.shuffle_splits, s.shuffle_nops, s.shuffle_forced
            );
        }
        println!("checks: {} stores compared", s.store_checks);
    }
    println!(
        "branches: {} committed, {} mispredicted; squashed {} wrong-path instructions",
        s.branches, s.mispredicts, s.squashed
    );
    let m = core.mem_sys();
    println!(
        "caches: L1D {:.2}% miss, L1I {:.2}% miss, L2 {:.2}% miss, {} memory accesses",
        100.0 * m.l1d_stats().miss_rate(),
        100.0 * m.l1i_stats().miss_rate(),
        100.0 * m.l2_stats().miss_rate(),
        m.mem_accesses()
    );
    if let Some(n) = replayed {
        println!("oracle: {n} leading commits match the interpreter");
    }
}
