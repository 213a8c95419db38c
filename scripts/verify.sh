#!/usr/bin/env bash
# Tier-1 verification gate: offline build, full test suite, and a quick
# end-to-end smoke of the figure pipeline. Run from anywhere; exits
# non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

# Tier-1 must never rewrite tracked files: the working-tree status at
# the end must match the status at the start.
status_before="$(git status --porcelain)"
tmp="$(mktemp -d /tmp/bj_verify.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

echo "== tier-1: offline release build =="
cargo build --release --offline

echo "== tier-1: clippy (deny warnings) =="
cargo clippy -q --workspace --offline --all-targets -- -D warnings

echo "== tier-1: test suite =="
cargo test -q --workspace --offline

echo "== tier-1: bj-lint --deny (16 kernels + call kernels + examples) =="
# Every kernel and example must be statically clean under the
# interprocedural lints; any finding anywhere fails the gate.
cargo run --release -q --offline -p blackjack-bench --bin bj-lint -- \
  --deny examples/programs/*.s >/dev/null

echo "== tier-1: fig_all smoke (BJ_SCALE=1) =="
BJ_SCALE=1 cargo run --release -q --offline -p blackjack-bench --bin fig_all >/dev/null

echo "== tier-1: BJ_TRACE smoke (traced detection run through bj-trace) =="
trace_file="$tmp/trace_smoke.jsonl"
# A traced injection run must detect, leave schema-valid JSONL behind,
# and bj-trace must render a non-empty report from it.
BJ_TRACE="$trace_file" cargo run --release -q --offline --bin bjsim -- \
  --quiet --fault backend:4:2 examples/programs/checksum.s | grep -q DETECTED
grep -q '"type":"meta"' "$trace_file"
grep -q '"type":"flight_event"' "$trace_file"
grep -q '"type":"detection"' "$trace_file"
rendered="$(cargo run --release -q --offline -p blackjack-bench --bin bj-trace -- "$trace_file")"
[ -n "$rendered" ]
echo "$rendered" | grep -q "flight recorder:"
echo "$rendered" | grep -q "detection:"

echo "== tier-1: ext_detection full-sweep equivalence (reference vs fork path) =="
# The full default sweep two ways: the reference (BJ_SNAPSHOT=0: replay
# from cycle 0, every run to its natural end), then the fork path
# (snapshot forks plus early exit) with the metrics registry on. The
# fork path may not show in the report: stdout is byte-identical.
sweep_trace="$tmp/sweep.jsonl"
sweep_ref="$(BJ_SCALE=1 BJ_SNAPSHOT=0 cargo run --release -q --offline \
  -p blackjack-bench --bin ext_detection 2>/dev/null)"
sweep_fast="$(BJ_SCALE=1 BJ_METRICS=1 BJ_TRACE="$sweep_trace" cargo run --release -q --offline \
  -p blackjack-bench --bin ext_detection 2>/dev/null)"
[ -n "$sweep_ref" ]
diff <(printf '%s' "$sweep_ref") <(printf '%s' "$sweep_fast")
# The metrics record's deterministic counters are the same for any
# worker count; pin them, so a change in how many runs are simulated,
# pruned or cut short fails here.
sweep_metrics="$(grep '"type":"metrics"' "$sweep_trace")"
counter() { printf '%s' "$sweep_metrics" | { grep -o "\"$1\":[0-9]*" || true; } | cut -d: -f2; }
for pin in runs_simulated=108 snapshot_forks=108 pruned_static=68 pruned_activation=24 \
  exit_converged=0 exit_stalled=0; do
  got="$(counter "${pin%=*}")"
  [ "$got" = "${pin#*=}" ] || { echo "metrics: ${pin%=*} is '$got', expected ${pin#*=}"; exit 1; }
done
# Every simulated run must fork from a snapshot: a silent fallback to
# replay from cycle 0 would keep the report but lose the speedup.
[ "$(counter snapshot_forks)" = "$(counter runs_simulated)" ]

echo "== tier-1: observability smoke (BJ_METRICS + BJ_PROGRESS_SECS) =="
# A metrics-and-progress run must stream at least one well-formed
# progress record (the guaranteed done:true tick), the phase and metrics
# record families, render through bj-trace top — and leave stdout
# byte-identical to the unobserved run.
obs_file="$tmp/obs_smoke.jsonl"
obs_out="$(BJ_SCALE=1 BJ_METRICS=1 BJ_PROGRESS_SECS=1 BJ_TRACE="$obs_file" \
  cargo run --release -q --offline -p blackjack-bench \
  --bin ext_detection -- --bench gzip 2>/dev/null)"
plain_out="$(BJ_SCALE=1 cargo run --release -q --offline -p blackjack-bench \
  --bin ext_detection -- --bench gzip 2>/dev/null)"
[ -n "$obs_out" ]
diff <(printf '%s' "$plain_out") <(printf '%s' "$obs_out")
# The final progress tick is guaranteed and carries the full shape.
grep '"type":"progress"' "$obs_file" | tail -1 | grep -q '"done":true'
grep '"type":"progress"' "$obs_file" | tail -1 | grep -q '"jobs_total":'
grep '"type":"progress"' "$obs_file" | tail -1 | grep -q '"nondet":\["elapsed_nanos"'
grep -q '"type":"phase"' "$obs_file"
grep -q '"type":"metrics"' "$obs_file"
top_out="$(cargo run --release -q --offline -p blackjack-bench --bin bj-trace -- top "$obs_file")"
echo "$top_out" | grep -q "campaign:"
echo "$top_out" | grep -q "phase attribution"
echo "$top_out" | grep -q "metrics registry:"

echo "== tier-1: call-kernel equivalence smoke (ext_detection, perlbmk) =="
# The call-bearing kernel's report rows must be byte-identical with
# static pruning on and off (pruning changes only the trailing
# pruned_sites block, stripped here).
pr_off="$(BJ_SCALE=1 BJ_PRUNE=0 cargo run --release -q --offline -p blackjack-bench \
  --bin ext_detection -- --bench perlbmk 2>/dev/null | sed '/^pruned_sites/,$d')"
pr_on="$(BJ_SCALE=1 BJ_PRUNE=1 cargo run --release -q --offline -p blackjack-bench \
  --bin ext_detection -- --bench perlbmk 2>/dev/null | sed '/^pruned_sites/,$d')"
[ -n "$pr_on" ]
diff <(printf '%s' "$pr_off") <(printf '%s' "$pr_on")

echo "== tier-1: bj-fuzz smoke (fixed seed, 50 iterations) =="
# Differential fuzz of the core against the interpreter: zero
# mismatches, zero fault-free false detections, all guaranteed-site
# injections detected or masked. Deterministic for the fixed seed.
BJ_FUZZ_ITERS=50 cargo run --release -q --offline -p blackjack-fuzz --bin bj-fuzz -- \
  --seed 0xB1AC --quiet | grep -q "all checks passed"

echo "== tier-1: transient-campaign smoke (ext_detection, worker determinism) =="
# A transient campaign with the ECC layer on must report the CE/DUE/SDC
# taxonomy and be byte-identical for any worker count.
tr_1="$(BJ_SCALE=1 BJ_THREADS=1 BJ_FAULT_KINDS=transient BJ_ECC=1 \
  cargo run --release -q --offline -p blackjack-bench \
  --bin ext_detection -- --bench gzip 2>/dev/null)"
tr_8="$(BJ_SCALE=1 BJ_THREADS=8 BJ_FAULT_KINDS=transient BJ_ECC=1 \
  cargo run --release -q --offline -p blackjack-bench \
  --bin ext_detection -- --bench gzip 2>/dev/null)"
[ -n "$tr_1" ]
echo "$tr_1" | grep -q "per injected transient fault"
echo "$tr_1" | grep -q "taxonomy (ECC on):"
diff <(printf '%s' "$tr_1") <(printf '%s' "$tr_8")

echo "== tier-1: fault-universe oracle battery (bj-fuzz, all kinds, ECC on) =="
# The soundness battery over the full universe: hard, transient, and
# intermittent plans on every site family with the LVQ SEC-DED layer on
# — every load-value site is guaranteed, so zero escapes anywhere.
BJ_FUZZ_ITERS=50 BJ_FAULT_KINDS=hard,transient,intermittent BJ_ECC=1 \
  cargo run --release -q --offline -p blackjack-fuzz --bin bj-fuzz -- \
  --seed 0xB1AC --quiet | grep -q "all checks passed"

echo "== tier-1: perfbench smoke (the benchmark builds and its references hold) =="
# The benchmark is its own Cargo workspace over the library's crates, so
# the build above does not cover it. One short run of each workload must
# build, match its committed references, and fail no operation.
for workload in fuzz figures inject; do
  bench_line="$(cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -1)"
  echo "$bench_line" | grep -q '"correct": true' || { echo "perfbench $workload: not correct"; exit 1; }
  echo "$bench_line" | grep -q '"failed": 0,' || { echo "perfbench $workload: failed ops"; exit 1; }
done

echo "== tier-1: tracked files unchanged =="
status_after="$(git status --porcelain)"
diff <(printf '%s\n' "$status_before") <(printf '%s\n' "$status_after")

echo "verify: OK"
