#!/usr/bin/env bash
# Local CI: formatting, lints, and the full test suite.
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every temporary file and directory the smokes below make lives under
# $work, which one trap removes however the script exits.
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings: broken and private doc links)"
# The workspace crates only; the vendored stand-ins under vendor/ stay out.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -p wrsn -p wrsn-em -p wrsn-net \
  -p wrsn-sim -p wrsn-charge -p wrsn-core -p wrsn-testbed -p wrsn-bench

echo "== cargo test"
cargo test --workspace -q

echo "== benchmark package builds against the workspace API"
# The benchmark is a workspace of its own that calls the library API by
# path; a workspace API change that breaks it must fail here, not in the
# bench pipeline.
cargo build --release --offline --manifest-path crates/bench/examples/perf/Cargo.toml

echo "== release golden digest (fig9 + fig13 byte-identity)"
cargo test --release -p wrsn-bench --test golden_exp_digest -q

echo "== release text goldens (the suite's deterministic tables, row by row)"
# Every CSV of `exp --id all` except the wall-clock tab1; a mismatch names
# the table and prints the rows that moved. The tables EXPERIMENTS.md quotes
# from the golden must equal it cell for cell.
cargo test --release -p wrsn-bench --test golden_tables -q

echo "== release golden digest (scale 10k byte-identity)"
cargo test --release -p wrsn-bench --test golden_scale_digest -q

echo "== release golden digest (arms_race ROC artifact + detection contract)"
# Pins the ROC artifact bytes and gates the semantic contract: zero benign
# convictions at lax/default aggressiveness (fault-injected runs included),
# naive-CSA detection >= 0.8 at the default preset, and a cheaper-but-paid
# stealth evasion.
cargo test --release -p wrsn-bench --test golden_roc_digest -q

echo "== release golden digest (checkpoint store bytes)"
# Pins the bytes store::save and the periodic checkpointer write for an
# audited, fault-injected CSA world: each type's one encoder (`write_json`,
# derived or hand-written) on the checkpoint path must keep the v1 file
# byte-identical.
cargo test --release --test golden_checkpoint -q

echo "== release checkpoint encode-cache byte identity"
# The checkpointer keeps what it encoded of the world between checkpoints.
# Every file it rolls must still equal store::save of a snapshot, across
# merged sessions, set_audit/set_fault_plan and restores; the release build
# runs without the debug-build oracle that checks the same at every
# checkpoint.
cargo test --release -p wrsn-sim --test checkpoint_cache -q

echo "== release key-node census proptest (vs. reference Brandes)"
# The exact census against independent references in a release build:
# Brandes betweenness bit for bit, every stranded count against the
# one-node reference, and the whole census in ids, reasons and weight bits.
cargo test --release -p wrsn-net --test keynode_census -q

echo "== release routing-repair proptest (in-place tree, load and power vs. full recompute)"
# Batches of simultaneous deaths, nested dead nodes, sink neighbours,
# coincident and sub-ulp-offset node pairs, and non-dyadic sensing rates:
# the repaired tree (child lists included, which fix the order loads are
# summed in), the in-place traffic load and the dirty-set power update must
# equal a fresh build bit for bit, and whole-rate loads must be conserved,
# in the release build the goldens and the benchmark run.
cargo test --release -p wrsn-net --test routing_repair -q

echo "== scale-smoke: 10k nodes, thread counts 1 and 8, identical traces"
# Threading is a pure execution strategy: 10k nodes is above the 8192-node
# gate of the threaded graph build, so the threaded build runs, and the
# full trace must be byte-identical.
scale_t1="$work/scale_t1.jsonl"
scale_t8="$work/scale_t8.jsonl"
scale_dir="$work/scale"
mkdir "$scale_dir"
WRSN_SCALE_SIZES=10000 WRSN_THREADS=1 \
  cargo run -p wrsn-bench --release --bin exp -- \
  --id scale --out-dir "$scale_dir/t1" --trace "$scale_t1" >/dev/null
WRSN_SCALE_SIZES=10000 WRSN_THREADS=8 \
  cargo run -p wrsn-bench --release --bin exp -- \
  --id scale --out-dir "$scale_dir/t8" --trace "$scale_t8" >/dev/null
cmp -s "$scale_t1" "$scale_t8" \
  || { echo "scale trace differs between thread counts 1 and 8" >&2; exit 1; }

echo "== scale-smoke: 25k-node campaign within 15 s"
# The 25k-node scale campaign took ~19 s while the request rescan after each
# death was O(n x pending), and ~1 s with the queue's membership index; it
# runs in ~0.2 s since a session too short to move the clock ends the run
# instead of spinning. The timeout keeps that quadratic scan from coming
# back unnoticed.
# The binary is built first so only the run is timed.
cargo build -p wrsn-bench --release --bin exp
WRSN_SCALE_SIZES=25000 timeout 15 target/release/exp --id scale >/dev/null \
  || { echo "25k-node scale campaign did not finish within 15 s" >&2; exit 1; }

echo "== arms-race smoke: thread counts 1 and 4, identical ROC artifacts"
# The online audit is serial in-world code: the full ROC artifact (grid +
# summary CSVs) must be byte-identical at any worker-thread count, and no
# benign row may ever convict at the lax/default presets.
arms_dir="$work/arms"
mkdir "$arms_dir"
WRSN_THREADS=1 cargo run -p wrsn-bench --release --bin exp -- \
  --id arms_race --out-dir "$arms_dir/t1" >/dev/null
WRSN_THREADS=4 cargo run -p wrsn-bench --release --bin exp -- \
  --id arms_race --out-dir "$arms_dir/t4" >/dev/null
for csv in "$arms_dir"/t1/arms_race_*.csv; do
  cmp -s "$csv" "$arms_dir/t4/$(basename "$csv")" \
    || { echo "ROC artifact $(basename "$csv") differs between thread counts 1 and 4" >&2; exit 1; }
done
if awk -F, '$1 ~ /^(lax|default)$/ && $2 == "benign" && $6 != "0.0"' \
    "$arms_dir/t1/arms_race_0.csv" | grep -q .; then
  echo "benign run convicted at lax/default detector aggressiveness" >&2; exit 1
fi

echo "== trace export smoke test"
trace_file="$work/trace.jsonl"
cargo run -p wrsn-bench --release --bin exp -- --id fig2 --trace "$trace_file" >/dev/null
test -s "$trace_file" || { echo "trace file is empty" >&2; exit 1; }
head -n 1 "$trace_file" | grep -q '^{"v":1,"record":{"Meta":' \
  || { echo "trace does not start with a versioned Meta record" >&2; exit 1; }
tail -n 1 "$trace_file" | grep -q '"Counters"' \
  || { echo "trace does not end with a Counters record" >&2; exit 1; }

echo "== trace-diff smoke: exit 0 on identical traces, 1 on a dropped line"
cargo build --release --bin wrsn -q
target/release/wrsn trace-diff "$trace_file" "$trace_file" >/dev/null \
  || { echo "trace-diff of a trace against itself must exit 0" >&2; exit 1; }
trace_dropped="$work/trace_dropped.jsonl"
sed '2d' "$trace_file" > "$trace_dropped"
diff_status=0
target/release/wrsn trace-diff "$trace_file" "$trace_dropped" >/dev/null || diff_status=$?
[ "$diff_status" -eq 1 ] \
  || { echo "trace-diff against a copy with one line dropped exited $diff_status, not 1" >&2; exit 1; }

echo "== checkpoint forensic-read smoke test"
# A v1 checkpoint is one header line plus the world's JSON snapshot, so
# stripping the header must leave a document `wrsn audit` loads.
ckpt_dir="$work/ckpt"
mkdir "$ckpt_dir"
cargo run --release --example checkpointed_run -- "$ckpt_dir/run.ckpt" >/dev/null
[[ "$(head -n 1 "$ckpt_dir/run.ckpt")" =~ ^WRSNCKPT\ v1\ len=[0-9]+\ fnv=[0-9a-f]{16}$ ]] \
  || { echo "checkpoint does not start with a v1 header" >&2; exit 1; }
tail -n +2 "$ckpt_dir/run.ckpt" > "$ckpt_dir/world.json"
cargo run --release --bin wrsn -- audit --load "$ckpt_dir/world.json" > "$ckpt_dir/audit.txt"
grep -q '^snapshot: t = ' "$ckpt_dir/audit.txt" \
  || { echo "wrsn audit cannot read a header-stripped checkpoint" >&2; exit 1; }

echo "== fault-injection smoke test (seeded, byte-identical)"
faults_a="$work/faults_a.txt"
faults_b="$work/faults_b.txt"
cargo run -p wrsn-bench --release --bin exp -- --id faults > "$faults_a"
cargo run -p wrsn-bench --release --bin exp -- --id faults > "$faults_b"
cmp -s "$faults_a" "$faults_b" \
  || { echo "exp --id faults is not byte-identical across runs" >&2; exit 1; }

echo "== forced-worker-panic graceful degradation"
# One poisoned experiment must not sink the campaign: healthy experiments
# still print, the failure is reported per-experiment, and the exit is != 0.
panic_out="$work/panic_out.txt"
panic_err="$work/panic_err.txt"
if WRSN_FORCE_PANIC=fig2 cargo run -p wrsn-bench --release --bin exp -- \
    --id all > "$panic_out" 2> "$panic_err"; then
  echo "exp --id all must fail when an experiment panics" >&2; exit 1
fi
grep -q "fig2.*panicked" "$panic_err" \
  || { echo "missing per-experiment failure report" >&2; exit 1; }
grep -q "## fig3" "$panic_out" \
  || { echo "healthy experiments must still produce output" >&2; exit 1; }

echo "== durable runs: kill-and-resume byte-identity"
# SIGKILL the campaign mid-run (a forced hang keeps the process alive until
# we kill it), resume from the manifest, and require the resumed transcript,
# CSVs, and JSONL trace to be byte-identical to an uninterrupted golden run.
# tab1 is excluded from the byte comparison: it reports measured wall-clock
# timings, which differ between any two runs, interrupted or not.
cargo build --release -p wrsn-bench -q
exp=target/release/exp
gold_dir="$work/gold"
run_dir="$work/run"
mkdir "$gold_dir" "$run_dir"
hang_out="$work/hang_out.txt"
hang_err="$work/hang_err.txt"
"$exp" --id all --out-dir "$gold_dir" --trace "$gold_dir/trace.jsonl" \
  > "$gold_dir/out.txt" 2>/dev/null
WRSN_FORCE_HANG=tab1 "$exp" --id all --out-dir "$run_dir" \
  --trace "$run_dir/trace.jsonl" > "$run_dir/out1.txt" 2>/dev/null &
victim=$!
done_count=0
for _ in $(seq 1 600); do
  done_count=$(grep -o '"status":"Done"' "$run_dir/manifest.json" 2>/dev/null | wc -l || true)
  if [ "$done_count" -ge 4 ]; then break; fi
  sleep 0.1
done
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
[ "$done_count" -ge 1 ] \
  || { echo "no experiment completed before the SIGKILL" >&2; exit 1; }
"$exp" --resume "$run_dir" --trace "$run_dir/trace.jsonl" \
  > "$run_dir/out2.txt" 2>/dev/null
filter_tab1() { awk '/^## tab1/{skip=1} /^## /{if ($0 !~ /^## tab1/) skip=0} !skip' "$1"; }
cmp <(filter_tab1 "$gold_dir/out.txt") <(filter_tab1 "$run_dir/out2.txt") \
  || { echo "resumed transcript differs from the uninterrupted run" >&2; exit 1; }
cmp "$gold_dir/trace.jsonl" "$run_dir/trace.jsonl" \
  || { echo "resumed trace differs from the uninterrupted run" >&2; exit 1; }
for csv in "$gold_dir"/*.csv; do
  base="$(basename "$csv")"
  case "$base" in tab1_*) continue ;; esac
  cmp "$csv" "$run_dir/$base" \
    || { echo "resumed CSV $base differs from the uninterrupted run" >&2; exit 1; }
done
grep -q '"resumes":1' "$run_dir/manifest.json" \
  || { echo "manifest does not record the resume" >&2; exit 1; }

echo "== durable runs: forced-hang watchdog timeout"
# A hung experiment must be cancelled at its wall-clock deadline and reported
# as a typed timeout while every other experiment still completes.
hang_dir="$run_dir/hang"
if WRSN_FORCE_HANG=fig5 "$exp" --id all --timeout-s 10 --out-dir "$hang_dir" \
    > "$hang_out" 2> "$hang_err"; then
  echo "exp --id all must fail when an experiment hangs past its deadline" >&2
  exit 1
fi
grep -q "fig5.*timed out" "$hang_err" \
  || { echo "missing typed timeout failure report" >&2; exit 1; }
grep -q "## fig3" "$hang_out" \
  || { echo "healthy experiments must still produce output" >&2; exit 1; }
grep -q '"failure":"Timeout"' "$hang_dir/manifest.json" \
  || { echo "manifest does not record the timeout" >&2; exit 1; }

echo "== wrsnd campaign service: load-gen smoke"
# Boot the daemon, drive it with a bounded deterministic load, and let the
# load generator's own contract checks gate: every request answered ok,
# duplicate digests byte-identical, daemon output for fig2 identical to an
# in-process run, nothing stuck past its deadline. --max-requests caps the
# daemon's lifetime so a wedged run cannot orphan it.
svc_store="$work/svc_store"
mkdir "$svc_store"
svc_banner="$work/svc_banner.txt"
wrsnd=target/release/wrsnd
"$wrsnd" serve --listen 127.0.0.1:0 --store "$svc_store" --max-requests 2000 \
  > "$svc_banner" 2>/dev/null &
svc_pid=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$svc_banner" 2>/dev/null && break
  sleep 0.1
done
svc_addr="$(sed -n 's/^wrsnd listening on //p' "$svc_banner")"
[ -n "$svc_addr" ] || { echo "wrsnd never printed its listen address" >&2; exit 1; }
"$wrsnd" load --connect "$svc_addr" --requests 400 --conns 8 --dup-frac 0.5 \
  --deadline-s 120 --verify-exp fig2 --shutdown \
  || { echo "wrsnd load-gen contract checks failed" >&2; exit 1; }
wait "$svc_pid" \
  || { echo "wrsnd daemon exited nonzero" >&2; exit 1; }

echo "== wrsnd stdin smoke: a deadline no Duration can hold, and a deeply nested line, are typed errors"
# deadline_s = 1e20 s is a finite positive number but above Duration's range.
# Under --stdin the request reader runs on the main thread, so converting it
# with a panic would kill the daemon; it must answer an error line for `h`
# and then shut down cleanly. The same holds for `d`, a 50 KB line of nested
# arrays: parsing it one stack frame per level aborted the daemon, and the
# parser's nesting cap makes it an error line instead.
stdin_store="$work/stdin_store"
mkdir "$stdin_store"
stdin_out="$work/stdin_out.txt"
nested_line="{\"id\":\"d\",\"exp\":$(head -c 51200 /dev/zero | tr '\0' '[')"
printf '%s\n' '{"id":"h","exp":"fig2","deadline_s":1e20}' "$nested_line" '{"op":"shutdown"}' \
  | "$wrsnd" serve --stdin --store "$stdin_store" > "$stdin_out" 2>/dev/null \
  || { echo "wrsnd serve --stdin exited nonzero on deadline_s = 1e20 or a nested line" >&2; exit 1; }
grep -q '"id":"h","status":"error"' "$stdin_out" \
  || { echo "wrsnd serve --stdin printed no error line for id h" >&2; exit 1; }
grep -q '"id":"d","status":"error"' "$stdin_out" \
  || { echo "wrsnd serve --stdin printed no error line for id d" >&2; exit 1; }

echo "== wrsnd chaos smoke: load through the fault-injecting proxy"
# Boot a small-capacity daemon behind the chaos proxy (seeded connection
# drops, mid-stream truncations, stalls) and drive a mixed streamed/plain
# load through it. The load generator's contract checks gate: despite
# shedding, drops, and stalls, every request eventually succeeds and every
# response is byte-identical to its digest — the daemon never crashes,
# corrupts, or stops serving.
chaos_store="$work/chaos_store"
mkdir "$chaos_store"
chaos_svc_banner="$work/chaos_svc_banner.txt"
chaos_banner="$work/chaos_banner.txt"
"$wrsnd" serve --listen 127.0.0.1:0 --store "$chaos_store" --workers 2 \
  --queue-cap 4 --cache-cap-bytes 65536 --max-requests 4000 \
  > "$chaos_svc_banner" 2>/dev/null &
chaos_svc_pid=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$chaos_svc_banner" 2>/dev/null && break
  sleep 0.1
done
chaos_svc_addr="$(sed -n 's/^wrsnd listening on //p' "$chaos_svc_banner")"
[ -n "$chaos_svc_addr" ] || { echo "wrsnd never printed its listen address" >&2; exit 1; }
"$wrsnd" chaos --listen 127.0.0.1:0 --upstream "$chaos_svc_addr" --seed 42 \
  > "$chaos_banner" 2>/dev/null &
chaos_pid=$!
for _ in $(seq 1 100); do
  grep -q "chaos listening on" "$chaos_banner" 2>/dev/null && break
  sleep 0.1
done
chaos_addr="$(sed -n 's/^wrsnd chaos listening on \(.*\) -> .*$/\1/p' "$chaos_banner")"
[ -n "$chaos_addr" ] || { echo "chaos proxy never printed its listen address" >&2; exit 1; }
"$wrsnd" load --connect "$chaos_addr" --requests 80 --conns 4 --dup-frac 0.4 \
  --stream-frac 0.25 --max-attempts 10 --deadline-s 120 --seed 7 \
  || { echo "chaos-proxy load contract checks failed" >&2; exit 1; }
kill "$chaos_pid" 2>/dev/null || true
wait "$chaos_pid" 2>/dev/null || true
# Shut the daemon down directly (not through the proxy) to prove it is
# still fully responsive after the chaos run.
"$wrsnd" load --connect "$chaos_svc_addr" --requests 1 --shutdown \
  || { echo "daemon unresponsive after chaos run" >&2; exit 1; }
wait "$chaos_svc_pid" \
  || { echo "wrsnd daemon exited nonzero after chaos run" >&2; exit 1; }

echo "All checks passed."
