#!/usr/bin/env bash
# The full CI gate: release build, test suite, and lint-clean clippy.
# Run from anywhere; operates on the workspace that contains this script.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Benchmark lane: the repository benchmark (perfbench/, its own package
# outside the workspace) replays the layers' public hot-path functions, so
# an API change there must fail CI here rather than break the benchmark.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# API-freeze lane: the PR-6 engine shims are gone — the removed entry
# points may not exist anywhere in-tree, by any name, even as a
# definition. Migrate to RunSession (or the Runner/SimService above it).
if grep -rnE '\b(try_run_observed|try_run_controlled|try_new_observed|set_control)\b' \
    --include='*.rs' crates tests examples; then
    echo "removed engine entry points resurfaced in-tree: use RunSession" >&2
    exit 1
fi
# The PR-8 rename is complete: the one-release `threads_per_point`
# deprecation shims (builder alias + CLI flag) are deleted. The name may
# not reappear anywhere, under any spelling.
if grep -rnE 'threads_per_point|threads-per-point' --include='*.rs' crates tests examples; then
    echo "threads_per_point is deleted: use decode_threads" >&2
    exit 1
fi
echo "API-freeze lane ok (removed entry points stay removed)"

# Obs-off lane: with event capture compiled out the golden digests must
# still be byte-identical — observability is zero-cost AND zero-effect.
cargo test -p slicc-sim --no-default-features --test golden -q

# Obs smoke: an observed tiny run must emit valid Chrome trace JSON and
# an interval series whose CSV/JSON agree on the epoch count.
obs_prefix="$(mktemp -u /tmp/slicc-ci-obs.XXXXXX)"
trap 'rm -f "$obs_prefix".*' EXIT
./target/release/slicc --scale tiny --mode slicc --progress quiet \
    --obs-out "$obs_prefix" > /dev/null
python3 - "$obs_prefix" <<'EOF'
import csv, json, sys
prefix = sys.argv[1]
trace = json.load(open(prefix + ".trace.json"))
assert trace["traceEvents"], "trace must contain events"
intervals = json.load(open(prefix + ".intervals.json"))
rows = list(csv.DictReader(open(prefix + ".intervals.csv")))
assert len(rows) == len(intervals["epochs"]) > 0, "CSV/JSON epoch mismatch"
print(f"obs artifacts ok ({len(trace['traceEvents'])} trace events, "
      f"{len(rows)} epochs)")
EOF

# Metrics smoke: a profiled parallel run must write a Prometheus text
# exposition that parses line-by-line, a JSON snapshot that validates,
# and (on --progress json) one metrics progress event embedding the
# same snapshot.
metrics_prefix="$(mktemp -u /tmp/slicc-ci-metrics.XXXXXX)"
metrics_log="$(mktemp /tmp/slicc-ci-metrics-log.XXXXXX)"
./target/release/slicc --scale tiny --point-threads 4 --progress json \
    --metrics-out "$metrics_prefix" > /dev/null 2> "$metrics_log"
python3 - "$metrics_prefix" "$metrics_log" <<'EOF'
import json, re, sys
prefix, log = sys.argv[1], sys.argv[2]

# Prometheus text: every line is a comment or `name[{le="..."}] value`,
# every series is HELP/TYPE-announced, histogram buckets are cumulative.
name_re = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*$')
sample_re = re.compile(
    r'^([a-zA-Z_][a-zA-Z0-9_]*)(\{le="[^"]+"\})? (-?[0-9.+eE]+|\+Inf)$')
announced, samples, last_bucket = set(), 0, {}
for line in open(prefix + ".metrics.prom"):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# HELP ") or line.startswith("# TYPE "):
        name = line.split(" ", 3)[2]
        assert name_re.match(name), f"bad metric name {name!r}"
        announced.add(name)
        continue
    m = sample_re.match(line)
    assert m, f"unparseable exposition line {line!r}"
    base = m.group(1)
    root = re.sub(r'_(bucket|sum|count)$', '', base)
    assert base in announced or root in announced, f"unannounced series {base}"
    if base.endswith("_bucket"):
        v = float(m.group(3))
        assert v >= last_bucket.get(root, 0.0), f"{root} buckets not cumulative"
        last_bucket[root] = v
    samples += 1
assert samples > 0, "empty Prometheus exposition"

# JSON snapshot: loads, and carries the layers the registry spans.
doc = json.load(open(prefix + ".metrics.json"))
names = {m["name"] for m in doc["metrics"]}
for want in ("sim_instructions_total", "core_base_cycles_total",
             "runner_cache_misses_total", "pool_thread_spinups_total",
             "engine_steps_total", "engine_commit_wait_nanos"):
    assert want in names, f"JSON snapshot lacks {want}"
assert not any("pressure" in n for n in names), \
    "metric names must not collide with the pressure-event grep"

# Progress stream: exactly the same snapshot rides one metrics event.
events = [json.loads(line) for line in open(log)
          if '"event": "metrics"' in line]
assert len(events) == 1, f"expected one metrics progress event, got {len(events)}"
assert {m["name"] for m in events[0]["snapshot"]["metrics"]} == names, \
    "progress-event snapshot diverged from the written artifact"
print(f"metrics smoke ok ({samples} exposition sample(s), {len(names)} series)")
EOF
rm -f "$metrics_prefix".* "$metrics_log"

# Dashboard sanity: the bench dashboard must be self-contained — its
# only data reference is BENCH_history.json, with no network fetches or
# external assets.
dash=scripts/dashboard.html
if grep -nE 'https?://|<(script|link|img)[^>]*(src|href)=' "$dash"; then
    echo "dashboard sanity: $dash must not reference the network or external assets" >&2
    exit 1
fi
fetches=$(grep -oE 'fetch\("[^"]*"\)' "$dash" | sort -u)
if [ "$fetches" != 'fetch("../BENCH_history.json")' ]; then
    echo "dashboard sanity: $dash must fetch only ../BENCH_history.json, got: $fetches" >&2
    exit 1
fi
grep -q 'BENCH_history.json' "$dash"
echo "dashboard sanity ok ($dash is offline and reads only BENCH_history.json)"

# Chaos lane: the fault matrix (injected panics, stalls, I/O failures,
# torn checkpoint tails), deadline aborts, and cancellation drills.
cargo test -p slicc-sim --test chaos -q

# Service-chaos lane: the resource-governance drills by name — cache
# thrash under a tiny byte budget, stampede storms coalescing to one
# flight, overload shedding with recovery, and eviction racing coalesced
# waiters (DESIGN.md §12). Named explicitly so the governance drills
# run (and fail) as their own lane.
cargo test -p slicc-sim --test chaos -q -- \
    cache_thrash stampede_storm overload_shedding eviction_racing cli_zero_queue_limit

# Pressure smoke: a JSON-progress run must emit at least one pressure
# snapshot carrying the full governance surface.
pressure_log="$(mktemp /tmp/slicc-ci-pressure.XXXXXX)"
./target/release/slicc --scale tiny --progress json --cache-bytes 4096 \
    > /dev/null 2> "$pressure_log"
python3 - "$pressure_log" <<'EOF'
import json, sys
snapshots = [json.loads(line) for line in open(sys.argv[1])
             if '"pressure"' in line]
assert snapshots, "no pressure snapshot in --progress json output"
for field in ("queue_depth", "inflight", "cache_bytes", "cache_budget",
              "cache_entries", "shed"):
    assert field in snapshots[-1], f"pressure snapshot lacks {field}"
assert snapshots[-1]["cache_budget"] == 4096, "--cache-bytes must reach the snapshot"
print(f"pressure smoke ok ({len(snapshots)} snapshot(s))")
EOF
rm -f "$pressure_log"

# Serve smoke-and-chaos lane: boot slicc-serve on an ephemeral port,
# stampede it (>= 1000 submissions across >= 8 connections, duplicate
# keys must coalesce to exactly one flight each — slicc-loadgen exits
# non-zero on any violation), SIGTERM it, and require a clean drain
# (exit 0) that writes a metrics artifact carrying the serving counters.
serve_boot() {
    # serve_boot OUT LOG ARGS... -> sets serve_pid and serve_addr
    local out="$1" log="$2"
    shift 2
    ./target/release/slicc-serve --addr 127.0.0.1:0 --progress quiet \
        "$@" > "$out" 2> "$log" &
    serve_pid=$!
    serve_addr=""
    for _ in $(seq 1 200); do
        serve_addr=$(sed -n 's/^listening on //p' "$out")
        if [ -n "$serve_addr" ]; then return 0; fi
        sleep 0.05
    done
    echo "serve smoke: server never printed its listen address" >&2
    cat "$log" >&2
    return 1
}
serve_metrics="$(mktemp -u /tmp/slicc-ci-serve.XXXXXX)"
serve_out="$(mktemp /tmp/slicc-ci-serve-out.XXXXXX)"
serve_log="$(mktemp /tmp/slicc-ci-serve-log.XXXXXX)"
# Roomy queue: 8 connections can never exceed 8 waiters, so a limit of
# 64 guarantees the stampede is absorbed by coalescing, never shed —
# the defaults scale with nproc and would shed on a starved CI runner.
serve_boot "$serve_out" "$serve_log" --max-inflight 4 --queue-limit 64 \
    --metrics-out "$serve_metrics"
./target/release/slicc-loadgen --addr "$serve_addr" --scenario stampede \
    --connections 8 --per-connection 125 --distinct 8
kill -TERM "$serve_pid"
set +e
wait "$serve_pid"
serve_status=$?
set -e
if [ "$serve_status" -ne 0 ]; then
    echo "serve smoke: SIGTERM drain exited $serve_status, want 0" >&2
    cat "$serve_log" >&2
    exit 1
fi
python3 - "$serve_metrics" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1] + ".metrics.json"))
by_name = {m["name"]: m["value"] for m in doc["metrics"]}
def need(name, at_least):
    got = by_name.get(name)
    assert got is not None, f"serve metrics artifact lacks {name}"
    assert got >= at_least, f"{name} = {got}, want >= {at_least}"
    return got
submits = need("srv_submits_total", 1000)
need("srv_results_total", 1000)
need("srv_connections_total", 8)
coalesced = need("runner_coalesced_hits_total", 1)
need("srv_drains_total", 1)
assert by_name.get("srv_retry_after_total", 0) == 0, \
    "stampede under a roomy queue must not shed"
assert by_name.get("srv_protocol_errors_total", 0) == 0, \
    "loadgen speaks the protocol cleanly; errors mean a codec bug"
print(f"serve stampede smoke ok ({submits} submissions, "
      f"{coalesced} coalesced, clean drain)")
EOF
rm -f "$serve_metrics".* "$serve_out" "$serve_log"

# Serve overload lane: a deliberately starved server (one slot, zero
# queue) under concurrent fresh keys must shed with RETRY-AFTER at the
# wire and recover once the burst subsides — slicc-loadgen asserts both,
# and the drained artifact must show the sheds on the server's counters.
overload_metrics="$(mktemp -u /tmp/slicc-ci-overload.XXXXXX)"
overload_out="$(mktemp /tmp/slicc-ci-overload-out.XXXXXX)"
overload_log="$(mktemp /tmp/slicc-ci-overload-log.XXXXXX)"
serve_boot "$overload_out" "$overload_log" --jobs 1 --max-inflight 1 \
    --queue-limit 0 --metrics-out "$overload_metrics"
./target/release/slicc-loadgen --addr "$serve_addr" --scenario overload \
    --connections 8 --per-connection 75 --distinct 600
kill -TERM "$serve_pid"
set +e
wait "$serve_pid"
serve_status=$?
set -e
if [ "$serve_status" -ne 0 ]; then
    echo "serve overload: SIGTERM drain exited $serve_status, want 0" >&2
    cat "$overload_log" >&2
    exit 1
fi
python3 - "$overload_metrics" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1] + ".metrics.json"))
by_name = {m["name"]: m["value"] for m in doc["metrics"]}
for name in ("srv_retry_after_total", "runner_shed_points_total"):
    assert by_name.get(name, 0) > 0, \
        f"overload drill left {name} at zero — shedding never reached the wire"
print(f"serve overload smoke ok ({by_name['srv_retry_after_total']} "
      f"RETRY-AFTER frame(s), clean drain)")
EOF
rm -f "$overload_metrics".* "$overload_out" "$overload_log"

# SIGINT-resume smoke: interrupt a checkpointed sweep after its first
# point lands, expect a graceful 130 (or a photo-finish 0), then resume
# and require the banked point to be served without re-simulation.
ckpt="$(mktemp -u /tmp/slicc-ci-sigint.XXXXXX.ckpt)"
./target/release/slicc --scale small --baseline-compare --progress quiet \
    --checkpoint "$ckpt" > /dev/null &
sweep_pid=$!
for _ in $(seq 1 600); do
    size=$(stat -c %s "$ckpt" 2>/dev/null || echo 0)
    if [ "$size" -gt 12 ]; then break; fi
    sleep 0.2
done
kill -INT "$sweep_pid" 2>/dev/null || true
set +e
wait "$sweep_pid"
sweep_status=$?
set -e
if [ "$sweep_status" -ne 130 ] && [ "$sweep_status" -ne 0 ]; then
    echo "SIGINT smoke: expected exit 130 (or 0 if the sweep won the race), got $sweep_status" >&2
    exit 1
fi
resume_log="$(mktemp /tmp/slicc-ci-resume.XXXXXX)"
./target/release/slicc --scale small --baseline-compare --progress plain \
    --checkpoint "$ckpt" > /dev/null 2> "$resume_log"
grep -q "point(s) loaded" "$resume_log" || {
    echo "SIGINT smoke: resume did not load the banked point(s)" >&2
    cat "$resume_log" >&2
    exit 1
}
echo "SIGINT-resume smoke ok (interrupt exit $sweep_status)"
rm -f "$ckpt" "$resume_log"

# Scaling smoke: the parallel point must be report-identical to the
# sequential one end to end — same CLI, same stdout, only the wall
# clock (the one "sim throughput" line, dropped below) may differ. Any
# other diff means the lanes changed simulated results, which the whole
# DESIGN.md §13 contract forbids.
p1_out="$(mktemp /tmp/slicc-ci-p1.XXXXXX)"
p4_out="$(mktemp /tmp/slicc-ci-p4.XXXXXX)"
./target/release/slicc --scale tiny --progress quiet --point-threads 1 \
    | grep -v 'sim throughput' > "$p1_out"
./target/release/slicc --scale tiny --progress quiet --point-threads 4 \
    | grep -v 'sim throughput' > "$p4_out"
diff -u "$p1_out" "$p4_out" || {
    echo "scaling smoke: --point-threads 4 changed the simulated report" >&2
    exit 1
}
echo "scaling smoke ok (point-threads 1 and 4 reports identical)"
rm -f "$p1_out" "$p4_out"

# Bench smoke + rolling-baseline gate: one sample per point keeps the
# fresh measurement cheap while proving the harness runs end to end.
# The checked-in BENCH_history.json is append-only — one row per
# commit — so the baseline is the median aggregate sim-ips of the most
# recent rows (up to 5), which rides out single-row noise without any
# hand-curated before/after nesting. Three rules:
#   1. fresh aggregate sim-ips >= 90% of the rolling median,
#   2. the hot-path row — cache/access/LRU — at or under its
#      35 ns/iter budget (the pre-resilience level),
#   3. the recorded scaling row must show speedup-p4 >= 1.5x, but only
#      when it was recorded on a host with >= 4 CPUs — on starved CI
#      runners (this gate prints the waiver) parallel lanes have no
#      cores to run on and the recorded number is an honest <= 1x,
#   4. full observation (event trace + epochs + metrics registry) must
#      cost <= 1.15x of the bare tiny engine run — the obs-overhead
#      gate on the engine/tiny/SLICC(+obs) micro pair.
bench_now="$(mktemp /tmp/slicc-ci-bench.XXXXXX.json)"
cargo bench --bench baseline -- --quick --out "$bench_now"
python3 - "$bench_now" <<'EOF'
import json, statistics, sys
history = json.load(open("BENCH_history.json"))
assert isinstance(history, list) and history, "BENCH_history.json must be a non-empty array"
for row in history:
    for field in ("commit", "date", "host_cpus", "benches"):
        assert field in row, f"history row lacks {field}"
    for bench in row["benches"]:
        assert set(bench) == {"name", "value", "unit"}, f"malformed bench row {bench}"

def value(row, name):
    for bench in row["benches"]:
        if bench["name"] == name:
            return bench["value"]
    return None

now = json.load(open(sys.argv[1]))
failures = []

tail = [value(r, "aggregate_sim_ips") for r in history[-5:]]
tail = [v for v in tail if v is not None]
baseline = statistics.median(tail)
fresh = now["aggregate_sim_ips"]
if fresh < baseline * 0.90:
    failures.append(
        f"aggregate sim-ips {fresh / 1e6:.2f}M < 90% of rolling median "
        f"{baseline / 1e6:.2f}M (last {len(tail)} row(s))")

lru = now["micro_ns_per_iter"].get("cache/access/LRU")
if lru is None:
    failures.append("fresh measurement lacks the cache/access/LRU row")
elif lru > 35.0:
    failures.append(f"cache/access/LRU {lru} ns/iter over its 35 ns budget")

bare = now["micro_ns_per_iter"].get("engine/tiny/SLICC")
observed = now["micro_ns_per_iter"].get("engine/tiny/SLICC+obs")
if bare is None or observed is None:
    failures.append("fresh measurement lacks the engine/tiny/SLICC(+obs) pair")
elif observed > bare * 1.15:
    failures.append(
        f"obs overhead {observed / bare:.3f}x over the 1.15x budget "
        f"({observed / 1e6:.2f} vs {bare / 1e6:.2f} ms/iter)")

last = history[-1]
speedup = value(last, "scaling/speedup-p4")
if speedup is None:
    failures.append("latest history row lacks scaling/speedup-p4")
elif last["host_cpus"] >= 4:
    if speedup < 1.5:
        failures.append(
            f"scaling/speedup-p4 {speedup}x < 1.5x on a {last['host_cpus']}-CPU host")
else:
    print(f"scaling gate waived: recorded on a {last['host_cpus']}-CPU host "
          f"(speedup-p4 {speedup}x is an oversubscription number)")

if failures:
    print("bench gate failed:", file=sys.stderr)
    for f in failures:
        print(f"  - {f}", file=sys.stderr)
    sys.exit(1)
print(f"bench gate ok (aggregate {fresh / 1e6:.2f}M sim-ips vs median "
      f"{baseline / 1e6:.2f}M, LRU {lru} ns/iter, obs {observed / bare:.3f}x)")
EOF
rm -f "$bench_now"
