#!/usr/bin/env sh
# The full offline CI gate: formatting, lints, release build, tests.
# No network access is required — the workspace has no external deps.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, warnings are errors)"
# A doc link to a renamed or removed item is a broken link; this step
# turns it into a CI failure.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> perfbench build (the benchmark compiles against this tree)"
# perfbench is a Cargo workspace of its own that imports oi_bench::serve,
# loadgen and synth and oi_core::cache. Building it here turns a break in
# those APIs into a CI failure instead of a failed benchmark run.
cargo build --release --locked --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "==> perfbench tests (the benchmark's own oracle and statistics)"
cargo test --release --locked --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> cargo test (property tests)"
cargo test -q --features property-tests --test proptest_pipeline
# The crates' own properties live behind each crate's own feature, which
# the root feature above does not enable.
cargo test -q -p oi-ir --features property-tests --test proptest_opt
cargo test -q -p oi-analysis --features property-tests --test proptest_lattice
cargo test -q -p oi-lang --features property-tests --test proptest_roundtrip
cargo test -q -p oi-support --features property-tests --test proptest_support
cargo test -q -p oi-vm --features property-tests --test proptest_cache
cargo test -q -p oi-vm --features property-tests --test proptest_fuel

echo "==> bench-smoke (snapshot + noise-aware regression gate)"
# Fresh snapshots against the committed baselines. The modeled VM is
# deterministic, so every deterministic metric gates exactly (the
# comparator's default thresholds): any change means the baselines need
# re-recording (see README "Benchmark snapshots"), and a flake is
# non-determinism to fix. Two wall-clock samples keep this step cheap.
# The committed baselines were recorded on a different machine, where
# wall-clock deltas mean nothing — so these compares disarm the
# statistical wall gate with --wall-advisory. The same-machine gate is
# exercised by the wall-stability step below.
cargo build --release -q -p oi-bench --bins
target/release/oi-bench snapshot --size small --samples 2 --out target/bench_smoke_small.json
target/release/oi-bench compare BENCH_baseline_small.json target/bench_smoke_small.json --wall-advisory
target/release/oi-bench snapshot --size default --samples 2 --out target/bench_smoke_default.json
target/release/oi-bench compare BENCH_baseline.json target/bench_smoke_default.json --wall-advisory

echo "==> figures-smoke (the paper's tables from one suite evaluation)"
# Every table, then the oi.figures.v1 document, at small size. Each run
# evaluates the suite once and renders every table from that pass.
target/release/figures --size small all > /dev/null
target/release/figures --size small --json --out target/figures_small.json
grep -q '"schema":"oi.figures.v1"' target/figures_small.json

echo "==> prof-smoke (hierarchical profiler end to end)"
# `oic prof` on the example program: the oi.prof.v1 document and the
# collapsed-stack export must both come out well-formed, and bad flags
# must keep the exit-2 usage discipline.
target/release/oic prof examples/rectangle_inline.oi --json --out target/prof_smoke.json
grep -q '"schema":"oi.prof.v1"' target/prof_smoke.json
target/release/oic prof examples/rectangle_inline.oi --collapse --out target/prof_smoke.collapsed
grep -q '^compile' target/prof_smoke.collapsed
grep -q '^vm\.inlined;' target/prof_smoke.collapsed
if target/release/oic prof --bogus-flag examples/rectangle_inline.oi 2>/dev/null; then
    echo "prof-smoke: bad flag should exit non-zero" >&2
    exit 1
fi

echo "==> observer-parity-smoke (plain, checked, profiled and sliced runs count alike)"
# A plain run takes the VM's hook-free loop; a --checked=full or a
# --profile run takes the observed one. Per build, all three must report
# the identical metrics object.
for build in "" --inline; do
    parity=""
    for mode in "" --checked=full --profile; do
        # shellcheck disable=SC2086 # empty $build/$mode add no argument
        m=$(target/release/oic run $build $mode --json examples/rectangle_inline.oi 2>/dev/null \
            | grep -o '"metrics":{[^}]*}')
        test -n "$m"
        if [ -z "$parity" ]; then
            parity=$m
        elif [ "$m" != "$parity" ]; then
            echo "observer-parity-smoke: oic run $build $mode metrics differ from the plain run" >&2
            exit 1
        fi
    done
done
# A run through `oic serve --fuel-slice 1` resumes its session after every
# dispatch; it must report the one-shot inlined run's metrics (the last
# `parity` the loop above set).
m=$(printf '%s\n' '{"id":1,"op":"run","path":"examples/rectangle_inline.oi"}' \
        '{"id":2,"op":"shutdown"}' \
    | target/release/oic serve --fuel-slice 1 2>/dev/null | grep -o '"metrics":{[^}]*}')
if [ "$m" != "$parity" ]; then
    echo "observer-parity-smoke: a --fuel-slice 1 serve run's metrics differ from oic run --inline" >&2
    exit 1
fi

echo "==> wall-stability (statistically gated wall-clock, same tree)"
# Two back-to-back snapshots of the identical build must compare clean
# with the full wall-clock gate armed on every layer (compile, baseline
# run, inlined run): the noise-calibrated threshold has to absorb
# same-machine run-to-run jitter. A regression here means
# the noise model is underestimating the floor.
target/release/oi-bench snapshot --size small --samples 5 --out target/wall_a.json
target/release/oi-bench snapshot --size small --samples 5 --out target/wall_b.json
target/release/oi-bench compare target/wall_a.json target/wall_b.json

echo "==> fuzz-smoke (differential oracle, fixed seeds)"
# Deterministic adversarial fuzzing: every generated program runs under
# both the baseline and the inlined build and must agree on output,
# termination status, and total allocations. Fixed seeds keep the corpus
# stable across runs; bounded runs keep the step cheap. Any divergence
# or panic exits non-zero and fails CI.
target/release/oic fuzz --runs 64 --seed 1
target/release/oic fuzz --runs 64 --seed 97
# The same corpus with checked execution: the heap sanitizer validates
# every inline-object invariant during the inlined runs; any finding is
# an oracle rejection and fails the session.
target/release/oic fuzz --runs 64 --seed 1 --checked
# `OIC_TRACE` reaches the forwarded harnesses: a traced session must
# stream the compiler's pipeline spans on stderr.
OIC_TRACE=json target/release/oic fuzz --runs 4 --seed 1 2> target/fuzz_trace.jsonl
if ! grep -q '"name":"pipeline\.' target/fuzz_trace.jsonl; then
    echo "fuzz-smoke: expected pipeline spans from OIC_TRACE=json oic fuzz" >&2
    exit 1
fi

echo "==> chaos-smoke (fault-injection matrix vs the detection lattice)"
# Injects every fault class from the systematic matrix into the sentinel
# corpus. The driver exits non-zero unless every class is detected
# (sanitizer or oracle), the culprit decision retracted, the repaired
# output restored baseline-equal, and zero faults escape. The run also
# covers the service-layer matrix (request-never-yields,
# fuel-exhaustion-storm, mid-request-panic, wedged-worker, compile-spin,
# retry-storm, persister-backlog) against the multi-tenant scheduler,
# the serve pump and its watchdog/breaker self-healing, and the storage
# I/O fault matrix (torn
# writes, bit flips, torn journal tails, version skew, ...) against the
# persistent artifact tier: every I/O class must be detected and
# quarantined with zero corrupt artifacts served. The document must
# carry every row and report zero escapes overall.
target/release/oic chaos --json --out target/chaos_smoke.json
grep -q '"service_faults":' target/chaos_smoke.json
for f in request-never-yields fuel-exhaustion-storm mid-request-panic \
         wedged-worker compile-spin retry-storm persister-backlog; do
    grep -q "\"fault\":\"$f\"" target/chaos_smoke.json
done
grep -q '"io_faults":' target/chaos_smoke.json
for f in torn-write truncated-journal-tail bit-flip-body bit-flip-header \
         stale-manifest-record enospc-mid-write version-skew; do
    grep -q "\"fault\":\"$f\"" target/chaos_smoke.json
done
grep -q '"escaped":0,"ok":true' target/chaos_smoke.json

echo "==> batch-smoke (panic-isolated fleet compilation under pressure)"
# The batch driver compiles the example programs plus a fixed-seed fuzz
# corpus through the degradation ladder. Unlimited budgets first: every
# job must land on a tier with zero panics and zero divergences (exit
# 0). Then a one-round analysis budget: jobs must *degrade* (sound
# global widening) rather than fail, so the run still exits 0 and the
# summary must show degraded jobs. Last, two workers over the same
# inputs must land every job on the same tiers as one worker.
target/release/oic batch examples --fuzz-corpus 64 --seed 1 --keep-going --json --out target/batch_smoke.json
target/release/oic batch examples --fuzz-corpus 64 --seed 1 --max-rounds 1 --keep-going --json --out target/batch_tight.json
if grep -q '"degraded":0,' target/batch_tight.json; then
    echo "batch-smoke: expected degraded jobs under --max-rounds 1" >&2
    exit 1
fi
target/release/oic batch examples --fuzz-corpus 64 --seed 1 --jobs 2 --keep-going --json --out target/batch_parallel.json
tier_counts() { grep -o '"tier_counts":{[^}]*}' "$1"; }
if [ "$(tier_counts target/batch_parallel.json)" != "$(tier_counts target/batch_smoke.json)" ]; then
    echo "batch-smoke: --jobs 2 tier_counts differ from --jobs 1" >&2
    exit 1
fi

echo "==> serve-smoke (compile server protocol end to end)"
# A real piped session against `oic serve`: compile a program (miss),
# compile the same bytes again (hit), ask for the metrics registry, and
# shut down cleanly. The responses must carry the oi.serve.v1 envelope,
# the repeat must be served from the artifact cache, and the stats
# payload must be the oi.metrics.v1 export.
printf '%s\n' \
    '{"id": 1, "op": "compile", "path": "examples/rectangle_inline.oi"}' \
    '{"id": 2, "op": "compile", "path": "examples/rectangle_inline.oi"}' \
    '{"id": 3, "op": "stats"}' \
    '{"id": 4, "op": "shutdown"}' \
    | target/release/oic serve > target/serve_smoke.jsonl
test "$(wc -l < target/serve_smoke.jsonl)" -eq 4
grep -q '"schema":"oi.serve.v1"' target/serve_smoke.jsonl
if grep -q '"ok":false' target/serve_smoke.jsonl; then
    echo "serve-smoke: a request failed" >&2
    exit 1
fi
sed -n 2p target/serve_smoke.jsonl | grep -q '"cache":"hit"'
sed -n 3p target/serve_smoke.jsonl | grep -q '"schema":"oi.metrics.v1"'

echo "==> cli-front-smoke (one command front and one source reader)"
# Every command answers --help with its usage on stdout and exit 0, and
# a served `path` request goes through the same source reader as `oic`:
# a directory is an ok:false response naming it, not a process exit.
for cmd in run compare report explain dump bench prof fuzz batch chaos serve client; do
    if ! target/release/oic "$cmd" --help > target/cli_front_help.txt; then
        echo "cli-front-smoke: oic $cmd --help should exit 0" >&2
        exit 1
    fi
    grep -q 'usage' target/cli_front_help.txt
done
printf '%s\n' \
    '{"id": 1, "op": "run", "path": "examples"}' \
    '{"id": 2, "op": "shutdown"}' \
    | target/release/oic serve > target/cli_front_serve.jsonl
sed -n 1p target/cli_front_serve.jsonl | grep -q '"ok":false'
sed -n 1p target/cli_front_serve.jsonl | grep -q 'is a directory'

echo "==> loadgen-smoke (replayed compile load against the server)"
# A seeded Zipf-skewed replay against an in-process server. The driver
# exits non-zero unless the run is error-free, the hit rate clears the
# structural floor, and the oi.metrics.v1 counters reconcile exactly
# with the driver's own tallies.
target/release/oic bench loadgen --requests 500 --sources 10 --seed 1 \
    --json --out target/loadgen_smoke.json
grep -q '"schema":"oi.load.v1"' target/loadgen_smoke.json
grep -q '"reconciled":true' target/loadgen_smoke.json

echo "==> persist-smoke (crash-safe artifact store across restarts)"
# Two piped serve sessions over the same --cache-dir: session one
# compiles (miss) and persists write-behind through the shutdown drain;
# session two is a fresh process that must answer the same bytes from
# the verified disk tier ("disk", not "miss") and serve the repeat from
# memory ("hit").
rm -rf target/persist_smoke_store
printf '%s\n' \
    '{"id": 1, "op": "compile", "path": "examples/rectangle_inline.oi"}' \
    '{"id": 2, "op": "shutdown"}' \
    | target/release/oic serve --cache-dir target/persist_smoke_store \
    > target/persist_smoke_a.jsonl
sed -n 1p target/persist_smoke_a.jsonl | grep -q '"cache":"miss"'
printf '%s\n' \
    '{"id": 1, "op": "compile", "path": "examples/rectangle_inline.oi"}' \
    '{"id": 2, "op": "compile", "path": "examples/rectangle_inline.oi"}' \
    '{"id": 3, "op": "shutdown"}' \
    | target/release/oic serve --cache-dir target/persist_smoke_store \
    > target/persist_smoke_b.jsonl
sed -n 1p target/persist_smoke_b.jsonl | grep -q '"cache":"disk"'
sed -n 2p target/persist_smoke_b.jsonl | grep -q '"cache":"hit"'
if grep -q '"ok":false' target/persist_smoke_b.jsonl; then
    echo "persist-smoke: a request failed after restart" >&2
    exit 1
fi
rm -rf target/persist_smoke_store

echo "==> restart-smoke (unclean kills against the persistent tier)"
# A scaled-down restartload replay: the trace is killed uncleanly twice
# (torn journal tail, no compaction) and restarted over the same store.
# The driver exits non-zero on any corrupt serve, any reconciliation
# mismatch, a restart without recovery evidence, or a warm hit rate
# under 0.8x the pre-kill steady state.
target/release/oic bench restartload --requests 300 --sources 10 --seed 1 \
    --json --out target/restart_smoke.json
grep -q '"schema":"oi.restart.v1"' target/restart_smoke.json
grep -q '"corrupt_total":0' target/restart_smoke.json
grep -q '"recovered":true' target/restart_smoke.json
grep -q '"reconciled":true' target/restart_smoke.json

echo "==> brownout-smoke (adaptive overload control end to end)"
# A seeded cold-compile burst against a brownout-enabled serve session:
# the controller must descend at least one rung under the burst, every
# shed must converge through the typed retry_after_ms contract with
# zero give-ups, queue-wait p99 while degraded must stay under twice
# the target, the ladder must unwind fully, and the driver's client-side
# tallies must reconcile exactly with the server's shed/request
# counters. The driver exits non-zero on any gate failure.
target/release/oic bench brownoutload --seed 1 \
    --json --out target/brownout_smoke.json
grep -q '"schema":"oi.brownout.v1"' target/brownout_smoke.json
grep -q '"give_ups":0' target/brownout_smoke.json
grep -q '"final_tier":"guarded-full"' target/brownout_smoke.json
if grep -q '"brownout_descend_total":0' target/brownout_smoke.json; then
    echo "brownout-smoke: the burst never forced a brownout descend" >&2
    exit 1
fi
grep -q '"passed":true' target/brownout_smoke.json

echo "==> tenant-smoke (metered multi-tenant execution end to end)"
# A scaled-down tenantload burst through the fuel-sliced fair
# scheduler: the gate exits non-zero on any panic, any cross-tenant
# kill, fuel non-reconciliation, a throughput miss, or a starved
# tenant. The throughput floor is dropped to 1 job/s so this step
# measures integrity, not machine speed.
target/release/oic bench tenantload --requests 1000 --tenants 50 --hogs 2 \
    --min-throughput 1 --json --out target/tenant_smoke.json
grep -q '"schema":"oi.tenantload.v1"' target/tenant_smoke.json
grep -q '"cross_tenant_kills":0' target/tenant_smoke.json
grep -q '"panics":0' target/tenant_smoke.json
grep -q '"reconciled":true' target/tenant_smoke.json
# A piped serve session under a tight instruction quota: the hostile
# tenant's run must die with a typed kill naming that tenant, while the
# well-behaved neighbor and the shutdown drain still answer in order.
printf '%s\n' \
    '{"id": 1, "op": "run", "tenant": "mallory", "source": "fn main() { var i = 0; var acc = 0; while (i < 50000) { acc = acc + i; i = i + 1; } print acc; }"}' \
    '{"id": 2, "op": "run", "tenant": "alice", "source": "fn main() { print 1 + 1; }"}' \
    '{"id": 3, "op": "shutdown"}' \
    | target/release/oic serve --max-instructions 1000 > target/tenant_serve_smoke.jsonl
test "$(wc -l < target/tenant_serve_smoke.jsonl)" -eq 3
sed -n 1p target/tenant_serve_smoke.jsonl | grep -q '"error_kind":"quota-exceeded"'
sed -n 1p target/tenant_serve_smoke.jsonl | grep -q 'mallory'
sed -n 2p target/tenant_serve_smoke.jsonl | grep -q '"ok":true'
sed -n 3p target/tenant_serve_smoke.jsonl | grep -q '"ok":true'

echo "CI green."
