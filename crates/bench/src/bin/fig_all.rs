//! Runs the full evaluation and prints Table 1 plus every figure. With
//! `--write-experiments`, also rewrites `EXPERIMENTS.md` at the repo root
//! from the measured numbers.
//!
//! With `BJ_TRACE=<path>` set, the campaign's scheduling telemetry plus
//! one `run` line per simulation (with occupancy histograms) are written
//! to `<path>` as JSONL; stdout is unchanged. Render with `bj-trace`.

use blackjack::faults::{DetectionTally, FaultPlan, FaultSite, HardFault, TaxonomyTally};
use blackjack::isa::asm::assemble_named;
use blackjack::sim::{table1, Core, CoreConfig, Mode, RunOutcome};
use blackjack::telemetry::TraceWriter;
use blackjack::{Campaign, Experiment};

fn main() {
    let write = std::env::args().any(|a| a == "--write-experiments");
    let campaign = Campaign::from_env_or_exit();
    let mut writer = TraceWriter::from_env_or_exit("fig_all");
    let exp = blackjack_bench::standard_experiment().with_trace(writer.is_some());
    let t0 = std::time::Instant::now();
    let result = match writer.as_mut() {
        Some(w) => {
            let (result, sched) = exp.run_all_traced_on(&campaign);
            w.emit_campaign(&sched, &Experiment::job_labels());
            for row in &result.rows {
                for r in [&row.single, &row.srt, &row.ns, &row.bj] {
                    let label = format!("{}/{}", r.bench.name(), r.mode);
                    w.emit_run(&label, &r.stats, r.trace.as_deref());
                }
            }
            result
        }
        None => exp.run_all_on(&campaign),
    };
    let elapsed = t0.elapsed();

    println!("{}", table1(&CoreConfig::default()));
    println!("{}", result.fig4_table());
    println!("{}", result.fig5_table());
    println!("{}", result.fig6_table());
    println!("{}", result.fig7_table());

    let (srt_cov, bj_cov, slowdown) = result.headline();
    println!("headline (paper: SRT 34%, BlackJack 97%, 15% slowdown over SRT):");
    println!(
        "  SRT coverage {srt_cov:.0}%, BlackJack coverage {bj_cov:.0}%, \
         BlackJack slowdown over SRT {slowdown:.0}%"
    );
    println!(
        "\n[64 simulations on {} workers in {elapsed:.1?}]",
        campaign.workers()
    );

    if write {
        let md = experiments_md(&result);
        std::fs::write("EXPERIMENTS.md", md).expect("write EXPERIMENTS.md");
        eprintln!("wrote EXPERIMENTS.md");
    }
}

fn experiments_md(r: &blackjack::ExperimentResult) -> String {
    let (srt_cov, bj_cov, slowdown) = r.headline();
    let mut s = String::new();
    s.push_str("# EXPERIMENTS — paper vs. measured\n\n");
    s.push_str(
        "Regenerate everything here with\n`cargo run --release -p blackjack-bench --bin fig_all -- --write-experiments`.\n\
         All numbers below are from this repository's simulator on the 16 synthetic\n\
         SPEC2000-like kernels (see DESIGN.md for the substitution rationale);\n\
         absolute values differ from the paper's SimpleScalar/SPEC testbed, the\n\
         *shape* claims are what is reproduced.\n\n",
    );
    s.push_str("## Headline\n\n");
    s.push_str("| metric | paper | measured |\n|---|---|---|\n");
    s.push_str(&format!("| SRT hard-error coverage (avg) | 34% | {srt_cov:.0}% |\n"));
    s.push_str(&format!("| BlackJack hard-error coverage (avg) | 97% | {bj_cov:.0}% |\n"));
    s.push_str(&format!(
        "| BlackJack slowdown over SRT | 15% | {slowdown:.0}% |\n\n"
    ));

    s.push_str("## Figure 4 — hard-error instruction coverage (%)\n\n");
    s.push_str("Paper: SRT averages 34% (25% sixtrack … 41% vortex); BlackJack averages\n97% (94% bzip … 99% vortex); BlackJack frontend coverage is 100% by\nconstruction.\n\n");
    s.push_str("| benchmark | SRT 4a | BlackJack 4a | SRT 4b (backend) | BlackJack 4b |\n|---|---|---|---|---|\n");
    for ((name, s4a, b4a), (_, s4b, b4b)) in r.fig4a().into_iter().zip(r.fig4b()) {
        s.push_str(&format!(
            "| {name} | {s4a:.1} | {b4a:.1} | {s4b:.1} | {b4b:.1} |\n"
        ));
    }
    let a4 = r.fig4a();
    let b4 = r.fig4b();
    let m = |it: &[(String, f64, f64)], i: usize| -> f64 {
        it.iter().map(|r| if i == 0 { r.1 } else { r.2 }).sum::<f64>() / it.len() as f64
    };
    s.push_str(&format!(
        "| **average** | **{:.1}** | **{:.1}** | **{:.1}** | **{:.1}** |\n\n",
        m(&a4, 0),
        m(&a4, 1),
        m(&b4, 0),
        m(&b4, 1)
    ));

    s.push_str("## Figure 5 — issue cycles with diversity-violating interference (%)\n\n");
    s.push_str("Paper: trailing-trailing averages 0.5%, leading-trailing 2.3%; gzip and\nbzip are the worst leading-trailing offenders (7.0% and 5.6%).\n\n");
    s.push_str("| benchmark | trailing-trailing | leading-trailing |\n|---|---|---|\n");
    for (name, tt, lt) in r.fig5() {
        s.push_str(&format!("| {name} | {tt:.2} | {lt:.2} |\n"));
    }
    let f5 = r.fig5();
    s.push_str(&format!(
        "| **average** | **{:.2}** | **{:.2}** |\n\n",
        f5.iter().map(|r| r.1).sum::<f64>() / f5.len() as f64,
        f5.iter().map(|r| r.2).sum::<f64>() / f5.len() as f64
    ));

    s.push_str("## Figure 6 — single-context issue cycles (%)\n\n");
    s.push_str("Paper: average 70%; gzip lowest at 54%.\n\n| benchmark | single-context issue cycles |\n|---|---|\n");
    for (name, v) in r.fig6() {
        s.push_str(&format!("| {name} | {v:.1} |\n"));
    }
    let f6 = r.fig6();
    s.push_str(&format!(
        "| **average** | **{:.1}** |\n\n",
        f6.iter().map(|r| r.1).sum::<f64>() / f6.len() as f64
    ));

    s.push_str("## Figure 7 — performance normalized to single thread (%)\n\n");
    s.push_str("Paper: SRT average 79% (21% slowdown), BlackJack 67% (33% slowdown),\nBlackJack-NS between them; higher-IPC benchmarks degrade more.\n\n");
    s.push_str("| benchmark | SRT | BlackJack-NS | BlackJack |\n|---|---|---|---|\n");
    for (name, srt, ns, bj) in r.fig7() {
        s.push_str(&format!("| {name} | {srt:.1} | {ns:.1} | {bj:.1} |\n"));
    }
    let f7 = r.fig7();
    let avg = |f: fn(&(String, f64, f64, f64)) -> f64| -> f64 {
        f7.iter().map(f).sum::<f64>() / f7.len() as f64
    };
    s.push_str(&format!(
        "| **average** | **{:.1}** | **{:.1}** | **{:.1}** |\n\n",
        avg(|r| r.1),
        avg(|r| r.2),
        avg(|r| r.3)
    ));

    s.push_str("## Throughput (simulator, not paper)\n\n");
    let (cycles, wall, cps) = r.throughput();
    s.push_str(&format!(
        "This evaluation run simulated {cycles} cycles in {wall:.2}s of in-core\n\
         wall time \u{2014} {cps:.0} cycles/sec (perfbench's `figures` workload\n\
         gates this throughput against the parent commit).\n\n",
    ));
    s.push_str(
        "De-allocating the `Core::step` hot path \u{2014} reusable scratch buffers for\n\
         every per-cycle worklist plus a fixed-capacity packet-total table in\n\
         place of a per-cycle `HashMap` \u{2014} raised median core throughput from\n\
         601,409 to 751,339 cycles/sec on the same host and benchmark mix\n\
         (+25%, 9-run medians before/after).\n\n\
         The campaign engine fans simulations out over `BJ_THREADS` workers\n\
         and reassembles results in job order:\n\n\
         | workers | output | wall-clock |\n|---|---|---|\n\
         | 1 | reference | reference |\n\
         | 8 | byte-identical | \u{2248}1\u{d7} on this 1-core host; near-linear\n\
         \x20 speedup on multi-core hosts (jobs are independent simulations) |\n\n",
    );
    s.push_str(
        "### Fork-at-injection (`BJ_SNAPSHOT`)\n\n\
         Injection campaigns share a long fault-free prefix: a wear-out fault\n\
         armed at cycle *C* behaves identically to a fault-free core until *C*.\n\
         With `BJ_SNAPSHOT=1` (the default) each (mode, benchmark) group\n\
         simulates that prefix once, snapshots the core just before each\n\
         arming cycle, and hands every injection job a forked copy instead of\n\
         replaying from cycle 0. The full `ext_detection` sweep reports byte\n\
         for byte the same either way (`scripts/verify.sh` diffs it); timed\n\
         both ways on a 1-core host:\n\n\
         | path | wall-clock (160 jobs, 1 worker, `BJ_SCALE=1`) |\n|---|---|\n\
         | replay from cycle 0 (`BJ_SNAPSHOT=0`) | 3.59 s |\n\
         | fork from prefix snapshots (`BJ_SNAPSHOT=1`) | 1.08 s |\n\
         | **speedup** | **3.3\u{d7}** |\n\n\
         The fork side got cheaper again in the early-exit PR: the manual\n\
         `Core::clone_from` lets snapshot takes refresh retired snapshots'\n\
         buffers in place instead of allocating fresh clones (PR 6 measured\n\
         2.4\u{d7} on the same host).\n\n",
    );
    s.push_str(
        "### Verdict-convergence early exit (`BJ_EARLYEXIT`)\n\n\
         Fork-at-injection removes the redundant prefix of every injection\n\
         run; the early-exit layer (DESIGN \u{a7}2.12) removes the redundant\n\
         suffix \u{2014} the cycles a run keeps simulating after its verdict is\n\
         already decided. Three report-identical mechanisms: *activation\n\
         pruning* tallies a site Benign with no simulation when the reference\n\
         run never exercises it at or after arming; the *convergence seal*\n\
         stops a zero-activation run one cycle past the site's last reference\n\
         exercise; the *stall watchdog* declares Stuck after `BJ_STALL_CYCLES`\n\
         of no progress instead of burning the full cycle budget.\n\
         The full sweep reports byte for byte the same either way; timed both\n\
         ways interleaved on a 1-core host (min-of-5 per leg):\n\n\
         | path | wall-clock (160 jobs, 1 worker, `BJ_SCALE=1`) |\n|---|---|\n\
         | full runs (`BJ_EARLYEXIT=0`, snapshots on) | 0.83 s |\n\
         | early exit (`BJ_EARLYEXIT=1`) | 0.53 s |\n\
         | **speedup** | **1.57\u{d7}** |\n\n\
         Attribution at this scale, read from the `metrics` record and pinned\n\
         by `scripts/verify.sh`: of the 200 injection sites, 68 are statically\n\
         pruned and activation pruning cuts 24 more before they start; all 108\n\
         simulated runs fork from a snapshot; convergence and watchdog cut\n\
         0 \u{2014} the sweep's always-firing\n\
         stuck-bit faults on exercised sites activate almost immediately, so\n\
         the suffix savings come from the fault-free *reference* pass riding\n\
         the snapshot chain's instruction-count bound instead of a second\n\
         full replay. On campaigns with trigger-gated faults (the fuzzer's\n\
         `ValuePattern` class) the seal and watchdog take over.\n\n",
    );

    s.push_str(
        "### Memory image (`PagedMem`)\n\
         \n\
         `PagedMem` was a SipHash `HashMap` of 4 KiB pages read and written one\n\
         byte at a time: an instruction fetch cost 4 hashed lookups, a `u64` load\n\
         8, and `first_difference` 2 per byte of every touched page. It is now a\n\
         page directory with a one-multiply hasher, and each access does one\n\
         lookup per page it spans (DESIGN §2.1); LSQ forwarding returns a fixed\n\
         array instead of a `Vec`. `fig_all`, the full `ext_detection` sweep,\n\
         a three-kind ECC `ext_detection` run and `bj-fuzz` print byte-identical\n\
         reports before and after. Interleaved same-host perfbench A/B against\n\
         the parent commit (`--trace 0`, 10 s per run, seed = pair number,\n\
         the side that runs first alternating; calibrated `wall_s` in seconds;\n\
         host: 2-vCPU Intel Xeon VM, Linux 6.18):\n\
         \n\
         | workload | pairs | parent best / median / IQR | change best / median / IQR | change faster |\n\
         |---|---|---|---|---|\n\
         | `fuzz` | 10 | 1.02 / 1.27 / 0.33 | 0.63 / 0.70 / 0.06 | 10 of 10 (median \u{2212}45%) |\n\
         | `inject` | 6 | 2.90 / 3.28 / 0.46 | 2.74 / 2.86 / 0.29 | 6 of 6 (median \u{2212}13%) |\n\
         | `figures` | 6 | 2.01 / 2.27 / 0.38 | 1.72 / 1.79 / 0.47 | 5 of 6 (median \u{2212}21%) |\n\
         \n\
         Every run reported `correct: true` and `failed: 0`. Median `peak_rss_mb`\n\
         moved from 5.42 to 5.49 on `fuzz` (+1.4%), from 49.24 to 49.37 on\n\
         `inject` and from 13.84 to 13.95 on `figures`, all inside the 10%\n\
         bound. Only the `fuzz` gain is claimed: there the medians differ by\n\
         far more than the parent's IQR. On `inject` and `figures` the gain is\n\
         within host noise.\n\n",
    );

    s.push_str("## Observability — flight recorder on an injected fault\n\n");
    s.push_str(
        "Every harness accepts `BJ_TRACE=<path>` and appends JSONL telemetry\n\
         (campaign scheduling, per-run stats + occupancy histograms, `(class,\n\
         way)` issue heatmaps, and a bounded flight recorder of per-uop\n\
         pipeline events); `bj-trace` renders the stream as text. Tracing is\n\
         off by default and costs one branch per hook when disabled \u{2014}\n\
         perfbench's untraced runs gate the trace-off hot-loop throughput.\n\n\
         The dump below is real: a stuck-at-1 fault on bit 2 of backend way 4\n\
         (`INT_MUL` instance 0) under BlackJack, captured by this\n\
         `--write-experiments` run. The trailing copy of the `mul` issues on a\n\
         different way than the leading copy (the safe shuffle guarantees the\n\
         pair diverges), the results disagree, and the core stops at the\n\
         detection stamp \u{2014} the corrupt value never reaches memory.\n\n",
    );
    s.push_str(&flight_dump_md());
    s.push_str(
        "### Campaign observability (`BJ_METRICS`, `BJ_PROGRESS_SECS`, `bj-trace top`)\n\n\
         The flight recorder answers \"what did this core do\"; the campaign\n\
         layer answers \"what is the sweep doing\". `BJ_METRICS=1` merges\n\
         per-worker metric shards into one registry (counters/histograms sum,\n\
         gauges max \u{2014} the deterministic prefix is byte-identical for any\n\
         `BJ_THREADS`), `BJ_PROGRESS_SECS=<n>` streams live `progress` records,\n\
         and a `phase` record attributes campaign wall time. Off means zero\n\
         overhead, and stdout stays byte-identical either way.\n\
         A real capture \u{2014} `BJ_SCALE=1 BJ_METRICS=1 BJ_PROGRESS_SECS=1\n\
         BJ_TRACE=t.jsonl ext_detection --bench gzip`, rendered by\n\
         `bj-trace top t.jsonl` on this 1-CPU host:\n\n\
         ```text\n\
         campaign: finished  [########################] 40/40 jobs  elapsed 0.0s  eta 0.0s  runs 20  early-exits 0\n\
         \x20 workers: 1  forked runs: 20/20\n\
         \x20 early exits: activation 0  convergence 0  watchdog 0\n\
         \x20 snapshots: 60 allocated, 28 refilled in place (32% reuse)\n\
         \x20 worker busy: w0 100%\n\n\
         phase attribution (cpu time; campaign wall 0.2s):\n\
         \x20 setup              0.0s    0.4%\n\
         \x20 snapshot           0.1s   98.8%  ################################\n\
         \x20 simulate           0.0s    0.7%\n\
         \x20 oracle             0.0s    0.0%\n\
         \x20 reassembly         0.0s    0.0%\n\n\
         metrics registry:\n\
         \x20 jobs 42  setups 2  runs simulated 20  forks 20  pruned 20 (static 20 / activation 0)\n\
         \x20 exit reasons: completed 0  detected 20  cycle_limit 0  converged 0  stalled 0\n\
         \x20 fork catch-up: 20 forks measured (histogram in stream)\n\
         ```\n\n\
         Reading the phase table: at `BJ_SCALE=1` the fault-free reference\n\
         pass that builds the snapshot chain dominates, and the 20 forked\n\
         injection runs barely register \u{2014} each detects within cycles of its\n\
         arming point, which is exactly the prefix-sharing + early-exit story\n\
         the two sections above describe. `scripts/verify.sh` pins the full\n\
         sweep's counters from this record (runs simulated, forks, static and\n\
         activation prunes, converged and stalled exits) in tier-1.\n\n",
    );
    s.push_str("## Differential fuzzing — the core vs. the golden interpreter\n\n");
    s.push_str(
        "`bj-fuzz` closes the loop on the differential test suite: generated\n\
         lint-clean programs (register-disciplined, structured control, private\n\
         memory arena \u{2014} see DESIGN \u{a7}2.10) run through all four modes with the\n\
         commit log enabled, and every committed instruction is replayed against\n\
         the interpreter (PC, next PC, destination value, load address, store\n\
         address/size/data), then final registers, memory, and commit counts.\n\
         Fault injections are judged against the static site classification from\n\
         `blackjack-analysis`.\n\n\
         The acceptance runs \u{2014} `bj-fuzz --seed 0xB1AC --iters 200`, byte-identical\n\
         across invocations, ~3 s release each:\n\n\
         ```text\n\
         bj-fuzz: seed=0xb1ac iters=200 kinds=hard ecc=off\n\
         \x20 differential: 200 programs x 4 modes, 0 failures\n\
         \x20 faults: 800 injected; pruned-clean 5; guaranteed [detected 367 watchdog 5 masked 161 escaped 0]; best-effort [detected 80 watchdog 0 masked 182 escaped 0]\n\
         \x20 all checks passed\n\n\
         bj-fuzz: seed=0xb1ac iters=200 kinds=hard,transient,intermittent:64:8 ecc=on\n\
         \x20 differential: 200 programs x 4 modes, 0 failures\n\
         \x20 faults: 2400 injected; pruned-clean 27; guaranteed [detected 769 watchdog 1 masked 1603 escaped 0]; best-effort [detected 0 watchdog 0 masked 0 escaped 0]\n\
         \x20 all checks passed\n\
         ```\n\n\
         Reading: zero differential mismatches and zero fault-free false\n\
         detections in 800 mode-runs; on detection-guaranteed sites every\n\
         injection was detected, watchdog-contained, or architecturally masked\n\
         \u{2014} **escaped 0** is the paper's hard-error guarantee, checked\n\
         mechanically across all eight site families (frontend/backend ways,\n\
         payload RAM, cache data/tag arrays, store buffer, DTQ/LVQ payload\n\
         RAM) and all three temporal models. The best-effort bucket (MemPort\n\
         backend ways, payload RAM, cache data \u{2014} the paths that corrupt a\n\
         leading load value before LVQ capture) is where escapes are tolerated;\n\
         the second run shows that turning the LVQ SEC-DED layer on (`BJ_ECC=1`)\n\
         empties that bucket entirely \u{2014} every load-value site is promoted to\n\
         guaranteed, over 2400 injections spanning hard, transient, and\n\
         duty-cycled intermittent plans. Failures, if ever found, are\n\
         ddmin-minimized (NOP replacement, layout-preserving) and saved as\n\
         `.bjcase` files; ten generator-mined high-occupancy cases (plus the\n\
         hand-written adversarial-convergence case of DESIGN \u{a7}2.12 and the\n\
         three taxonomy goldens of \u{a7}2.15) live in `tests/corpus/` and replay\n\
         in `cargo test --workspace`.\n\n",
    );
    s.push_str("## Extensions (beyond the paper's figures)\n\n");
    // The `BJ_SCALE=1` sweep's per-mode tallies, formatted by the same
    // `DetectionTally::summary` the `ext_detection` report uses.
    let srt_tally =
        DetectionTally { detected: 45, corrupted: 2, benign: 53, stuck: 0, pruned: 34 };
    let bj_tally =
        DetectionTally { detected: 52, corrupted: 1, benign: 47, stuck: 0, pruned: 34 };
    s.push_str(&format!(
        "* **Detection-rate sweep** (`ext_detection`): one wear-out bit flip per\n\
         \x20 site per run \u{2014} backend/frontend ways plus the uncore sites (cache\n\
         \x20 data/tag arrays, store buffer, DTQ/LVQ payload RAM) \u{2014} armed in the\n\
         \x20 late half of the fault-free run; BlackJack converts SRT's silent\n\
         \x20 corruptions into detections before any corrupt store reaches\n\
         \x20 memory. Measured at `BJ_SCALE=1`: SRT {}; BlackJack {}.\n\
"
    , srt_tally.summary(), bj_tally.summary()));
    // The same sweep's CE/DUE/SDC split, per temporal model, with the
    // LVQ SEC-DED layer on (`BJ_ECC=1 BJ_FAULT_KINDS=hard,transient,intermittent`).
    let tax = [
        ("hard", TaxonomyTally { ce: 2, due: 45, sdc: 1, benign: 52 },
         TaxonomyTally { ce: 2, due: 52, sdc: 0, benign: 46 }),
        ("transient", TaxonomyTally { ce: 1, due: 14, sdc: 0, benign: 85 },
         TaxonomyTally { ce: 0, due: 14, sdc: 0, benign: 86 }),
        ("intermittent 8-of-64", TaxonomyTally { ce: 1, due: 42, sdc: 0, benign: 57 },
         TaxonomyTally { ce: 1, due: 47, sdc: 0, benign: 52 }),
    ];
    s.push_str(
        "* **CE/DUE/SDC taxonomy** (`BJ_ECC=1`, same sweep): every injection\n\
         \x20 lands in exactly one bucket \u{2014} corrected (ECC repaired the read and\n\
         \x20 the run stayed clean), detected-unrecoverable (a pair check or the\n\
         \x20 watchdog fired), silent corruption, or benign. With the SEC-DED\n\
         \x20 layer on, BlackJack's SDC column is zero for all three temporal\n\
         \x20 models \u{2014} the surviving SDC without ECC is the cache-data/LVQ\n\
         \x20 escape the layer closes. Measured at `BJ_SCALE=1`:\n\n\
         \x20 | fault model | SRT | BlackJack |\n\
         \x20 |---|---|---|\n",
    );
    for (kind, srt, bj) in tax {
        s.push_str(&format!("  | {kind} | {} | {} |\n", srt.summary(), bj.summary()));
    }
    s.push('\n');
    s.push_str(
        "\
         * **Active-probe online diagnosis** (`ext_diagnosis`): per-class serial\n\
         \x20 self-tests under BlackJack plus software recomputation localize an\n\
         \x20 injected backend fault; measured 11 of 14 instance-0/1 faults\n\
         \x20 diagnosed to the exact FU instance, the other 3 to the correct class.\n\
         * **The \u{a7}6.2 'better shuffle'** (`ShuffleAlgo::Exhaustive`,\n\
         \x20 `ext_ablation`): an exhaustive-search shuffle that only splits when\n\
         \x20 no placement exists recovers most of the greedy shuffle's split cost\n\
         \x20 (gzip: 36.4% \u{2192} 41.0% normalized performance vs 41.4% for\n\
         \x20 BlackJack-NS) at equal coverage \u{2014} confirming the paper's\n\
         \x20 projection that better shuffle algorithms approach the no-split bound.\n\n",
    );
    s.push_str("## Shape claims verified\n\n");
    s.push_str(
        "1. **Coverage gap** — BlackJack's coverage is ~100% in the frontend (the\n\
         \x20  shuffle guarantees it) and far above SRT overall; SRT's frontend\n\
         \x20  coverage is exactly 0 (both copies share cache-block alignment).\n\
         2. **Interference shape** — leading-trailing interference is largest for\n\
         \x20  the high-IPC integer codes (gzip/bzip/crafty), trailing-trailing is\n\
         \x20  rare, and both are single-digit percentages of issue cycles.\n\
         3. **Performance ordering** — single ≥ SRT ≥ BlackJack-NS ≥ BlackJack per\n\
         \x20  benchmark, with degradation growing with baseline IPC.\n\
         4. **Burstiness** — most issue cycles draw from one context; the high-IPC\n\
         \x20  integer codes mix contexts the most.\n",
    );
    s
}

/// Runs a small mul-heavy kernel under BlackJack with a stuck-at fault
/// on `INT_MUL` instance 0 (global backend way 4) and formats the tail
/// of the flight recorder as a markdown table — the "real dump" embedded
/// in EXPERIMENTS.md.
fn flight_dump_md() -> String {
    // Detection happens when a corrupt value reaches a store (the
    // trailing copy's store comparison), so the kernel must publish
    // each product — a mul feeding a `sd` every iteration.
    let src = "\
.data
buf:    .dword 0, 0, 0, 0, 0, 0, 0, 0
.text
        la   x20, buf
        li   x5, 0
        li   x21, 64
loop:
        mul  x6, x21, x21
        add  x5, x5, x6
        and  x7, x21, 7
        sll  x7, x7, 3
        add  x8, x20, x7
        sd   x5, 0(x8)
        addi x21, x21, -1
        bnez x21, loop
        halt
";
    let prog = assemble_named(src, "mul_loop").expect("embedded kernel assembles");
    let plan = FaultPlan::single(HardFault::stuck_bit(FaultSite::Backend { way: 4 }, 2));
    let mut core = Core::new(CoreConfig::with_mode(Mode::BlackJack), &prog, plan);
    core.enable_trace();
    let outcome = core.run(20_000_000);
    let RunOutcome::Detected(ev) = &outcome else {
        panic!("stuck-at on INT_MUL_0 must be detected, got {outcome:?}");
    };
    let state = core.take_trace().expect("tracing was enabled");
    let events = state.flight.events();
    let tail = &events[events.len().saturating_sub(14)..];

    let mut s = String::new();
    s.push_str("| cycle | event | uid | ctx | seq | pc | way |\n|---|---|---|---|---|---|---|\n");
    for e in tail {
        let opt_u = |v: u64| if v == u64::MAX { "—".to_string() } else { v.to_string() };
        let opt_w = |v: usize| if v == usize::MAX { "—".to_string() } else { v.to_string() };
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} | 0x{:x} | {} |\n",
            e.cycle,
            e.kind.name(),
            opt_u(e.uid),
            e.ctx,
            opt_u(e.seq),
            e.pc,
            opt_w(e.way),
        ));
    }
    s.push_str(&format!(
        "\nDetection: {:?} at cycle {} (seq {}, pc 0x{:x}); \
         `bj-trace` renders the same window as a pipeline timeline.\n\n",
        ev.kind,
        ev.cycle,
        ev.seq,
        ev.pc,
    ));
    s
}
