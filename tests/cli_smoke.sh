#!/usr/bin/env bash
# End-to-end smoke of the `ltp` driver — result cache, `ltp serve`,
# replay, SMT, scenarios, checkpoints — run the way a user runs it:
#
#   1. cache        cold vs warm fig6_iq_quick sweep: byte-identical
#                   reports (modulo wall_ms), every warm cell a hit, the
#                   warm run under 1 s; then `ltp cache stat|ls|gc|clear`.
#   2. serve        table1_compare locally and through one daemon:
#                   byte-identical, then a second served run all hits; a
#                   served unknown workload exits 1 naming it.
#   3. distributed  fig6_iq_quick locally and as one `--submit` to a
#                   frontend over two workers: byte-identical (modulo
#                   wall_ms/threads), then a warm resubmit all hits.
#   4. replay       record every suite kernel, then `replay --verify`
#                   under baseline and ltpProposal NR+NU: replayed
#                   Metrics bit-identical to executed ones.
#   5. smt          the smt_pairs sweep, plus explicit roundRobin and
#                   icount runs of one pair, each simulated (uncached).
#   6. config       a zero width or FU count, or a malformed numeric
#                   flag, exits 1 naming the field or flag.
#   7. scenarios    driver self-checks, then the traces replay_example
#                   replays are recorded and every scenario file runs
#                   through `ltp sweep` at quick staging.
#   8. checkpoint   `checkpoint create|ls|verify`, and a sample from
#                   the checkpoint equals one that fast-forwards fresh.
#
# Daemons listen on ephemeral ports (--port=0, read back from their
# "listening on port" line); caches and reports live in a temporary
# directory removed on exit.
#
# Usage: cli_smoke.sh <path/to/ltp> <repo root>
set -euo pipefail

LTP=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
SCENARIOS=$(cd "$2" && pwd)/scenarios
WORK=$(mktemp -d "${TMPDIR:-/tmp}/ltp_cli_smoke.XXXXXX")
PIDS=()

cleanup() {
    for pid in "${PIDS[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
cd "$WORK"
# Nothing here may read or write the user's cache.
export LTP_CACHE_DIR="$WORK/cache"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# Diff two JSON reports, ignoring the lines matching $3.
same_report() {
    diff <(grep -vE "$3" "$1") <(grep -vE "$3" "$2") ||
        fail "$1 and $2 differ"
}

# start_daemon <name> [serve flags...]: start `ltp serve --port=0` in
# the background and set PORT once it reports the port it bound.
start_daemon() {
    local name=$1
    shift
    "$LTP" serve --port=0 "$@" 2>"$name.log" &
    PIDS+=($!)
    for _ in $(seq 1 100); do
        PORT=$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' \
            "$name.log")
        if [ -n "$PORT" ]; then
            "$LTP" serve ping --port="$PORT"
            return 0
        fi
        sleep 0.1
    done
    cat "$name.log" >&2
    fail "$name never reported its port"
}

echo "== 1. result cache: cold vs warm"
"$LTP" sweep "$SCENARIOS/fig6_iq_quick.json" --threads=2 \
    --json=fig6_cold.json 2>cold.log
"$LTP" sweep "$SCENARIOS/fig6_iq_quick.json" --threads=2 \
    --json=fig6_warm.json 2>warm.log
cat warm.log
grep -E 'backend cache\(local\): ([0-9]+)/\1 cells' warm.log ||
    fail "warm sweep was not answered entirely from the cache"
same_report fig6_cold.json fig6_warm.json wall_ms
# The bound only needs to exclude re-running the 336 simulations.
warm_ms=$(grep -o '"wall_ms": [0-9.]*' fig6_warm.json | cut -d' ' -f2)
echo "warm sweep wall clock: ${warm_ms} ms"
awk -v ms="$warm_ms" 'BEGIN { exit !(ms < 1000) }' ||
    fail "warm sweep took ${warm_ms} ms"

"$LTP" cache stat
"$LTP" cache ls >cache_ls.txt
head -20 cache_ls.txt
"$LTP" cache gc --max-age-days=30
"$LTP" cache clear
"$LTP" cache stat | grep '0 entries' || fail "cache clear left entries"

echo "== 2. one serve daemon"
start_daemon serve --threads=2 --cache-dir="$WORK/serve-cache"
SERVE=$PORT
"$LTP" sweep "$SCENARIOS/table1_compare.json" --threads=2 --no-cache \
    --json=table1_local.json
"$LTP" sweep "$SCENARIOS/table1_compare.json" --threads=2 \
    --server=127.0.0.1:"$SERVE" --json=table1_serve.json
same_report table1_local.json table1_serve.json wall_ms
"$LTP" sweep "$SCENARIOS/table1_compare.json" --threads=2 \
    --server=127.0.0.1:"$SERVE" --json=table1_serve2.json 2>serve2.log
cat serve2.log
grep -E 'backend serve: ([0-9]+)/\1 cells' serve2.log ||
    fail "second served run simulated cells"

# A daemon-side error ends a served run through fatal, not an abort.
status=0
"$LTP" run --server=127.0.0.1:"$SERVE" --kernel=nope 2>nope.log ||
    status=$?
cat nope.log
[ "$status" -eq 1 ] || fail "served unknown workload exited $status"
grep -q "unknown workload 'nope'" nope.log ||
    fail "served unknown workload error does not name it"

"$LTP" serve stats --port="$SERVE"
"$LTP" serve stop --port="$SERVE"

echo "== 3. frontend + 2 workers"
start_daemon worker1 --threads=2 --cache-dir="$WORK/worker1-cache"
W1=$PORT
start_daemon worker2 --threads=2 --cache-dir="$WORK/worker2-cache"
W2=$PORT
start_daemon frontend --cache-dir="$WORK/frontend-cache" \
    --worker=127.0.0.1:"$W1" --worker=127.0.0.1:"$W2" \
    --trace-dir="$SCENARIOS"
FE=$PORT
"$LTP" sweep "$SCENARIOS/fig6_iq_quick.json" --threads=2 --no-cache \
    --json=fig6_local.json
"$LTP" sweep "$SCENARIOS/fig6_iq_quick.json" --submit \
    --server=127.0.0.1:"$FE" --json=fig6_dist.json
# threads differs by design: the daemon reports its own pool size.
same_report fig6_local.json fig6_dist.json '"(wall_ms|threads)"'
"$LTP" sweep "$SCENARIOS/fig6_iq_quick.json" --submit \
    --server=127.0.0.1:"$FE" --json=fig6_dist2.json 2>dist2.log
cat dist2.log
grep -E 'backend serve: ([0-9]+)/\1 cells' dist2.log ||
    fail "warm resubmission simulated cells"

"$LTP" serve stats --port="$FE"
for port in "$FE" "$W1" "$W2"; do
    "$LTP" serve stop --port="$port"
done

wait "${PIDS[@]}"
PIDS=()

echo "== 4. record and replay: Metrics bit-identity"
"$LTP" record all --out traces \
    --warm=4000 --pipewarm=800 --detail=2000 --seed=1
# Fails (exit 1) on any replayed-vs-executed Metrics mismatch, under
# both the baseline and the LTP proposal configs.
"$LTP" replay traces --verify
"$LTP" replay traces --verify --preset=ltpProposal --mode=NR+NU

echo "== 5. SMT pairs, both fetch policies"
# The scenario's own sweep covers roundRobin and icount; the explicit
# --set runs pin each policy end to end as well, so a policy-specific
# regression cannot hide behind the other series.  They bypass the
# cache the sweep just filled, so each one really simulates.
"$LTP" sweep "$SCENARIOS/smt_pairs.json" --progress \
    --warm=4000 --pipewarm=800 --detail=2000 --threads=2 \
    --json=BENCH_smt_pairs.json --csv=BENCH_smt_pairs.csv
for policy in roundRobin icount; do
    "$LTP" run --preset=ltpProposal --mode=NR+NU --no-cache \
        --kernel=smt:graph_walk+dense_compute \
        --set core.fetchPolicy=$policy \
        --warm=4000 --pipewarm=800 --detail=2000 >smt.log 2>&1
    cat smt.log
    ! grep -q "answered from cache" smt.log ||
        fail "$policy run was answered from the cache"
done

echo "== 6. invalid config values"
for bad in core.fu.ld=0 core.commitWidth=0; do
    status=0
    "$LTP" run --kernel=linked_list --set "$bad" 2>bad.log || status=$?
    cat bad.log
    [ "$status" -eq 1 ] || fail "--set $bad exited $status"
    grep -q "${bad%=*}" bad.log || fail "--set $bad error does not name it"
done
for bad in detail=2k seed=abc detail=0100 detail=-1 threads=-3; do
    status=0
    "$LTP" run --kernel=linked_list "--$bad" 2>bad.log || status=$?
    cat bad.log
    [ "$status" -eq 1 ] || fail "--$bad exited $status"
    grep -q -- "--${bad%=*}" bad.log || fail "--$bad error does not name it"
done

echo "== 7. every scenario file through ltp sweep"
"$LTP" --help >/dev/null
"$LTP" sweep --help >/dev/null
"$LTP" list-kernels
"$LTP" print-config baseline
"$LTP" print-config --paths
# A private copy, so the traces replay_example.json replays (resolved
# next to the file) are recorded outside the source tree.
cp -r "$SCENARIOS" scenarios
"$LTP" record paper_loop,graph_walk --out scenarios/traces \
    --warm=4000 --pipewarm=800 --detail=2000 --seed=1
for f in scenarios/*.json; do
    name=$(basename "$f" .json)
    echo "-- $name"
    "$LTP" sweep "$f" --progress --no-cache \
        --warm=4000 --pipewarm=800 --detail=2000 --threads=2 \
        --json="BENCH_scenario_${name}.json"
done

echo "== 8. checkpoints"
"$LTP" checkpoint create --kernel=graph_walk \
    --at=500000 --out=graph_walk.ltcp
"$LTP" checkpoint ls --file=graph_walk.ltcp
"$LTP" checkpoint verify --file=graph_walk.ltcp
# A sample measured from the checkpoint must agree with paying the
# same 510000-op fast-forward in-process: the restored run starts at
# 500000 and fast-forwards 10000 more, the fresh run fast-forwards
# 510000 from zero, so both measure the identical window.
"$LTP" sample graph_walk --from=graph_walk.ltcp \
    --samples=1 --sample-ff=10000 --sample-warmup=1000 \
    --sample-detail=3000 --no-cache | tee from_ckpt.txt
"$LTP" sample graph_walk \
    --samples=1 --sample-ff=510000 --sample-warmup=1000 \
    --sample-detail=3000 --no-cache | tee fresh.txt
diff <(grep 'graph_walk' from_ckpt.txt | awk -F'|' '{print $3, $4, $5}') \
     <(grep 'graph_walk' fresh.txt | awk -F'|' '{print $3, $4, $5}') ||
    fail "sample from the checkpoint differs from a fresh fast-forward"

echo "cli smoke: all checks passed"
