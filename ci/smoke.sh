#!/usr/bin/env bash
# Multi-process serving smoke test: real OS processes, real TCP, zero
# fixed ports. Every server binary binds port 0 and announces the
# kernel-assigned address as `C2PI_LISTENING <addr>` on stdout; we wait
# for that line (with a timeout) instead of sleeping and hoping.
#
# Covers:
#   1. the dealt two-process demo (two_party_server/_client), both
#      backends — bit-identical to the in-memory path or exit 1;
#   2. the concurrent serving stack: a live reactor pi_server handling a
#      multi_client load generator that checks every prediction against
#      the clear model;
#   3. crash recovery over the sharded store segments (kill -9, warm
#      boot) and the backpressure path: a deliberately starved pool
#      shedding typed BUSY frames that retrying clients ride out;
#   4. the readiness backend: a Linux pi_server's final reactor line
#      must say it served on epoll.
set -euo pipefail

cd "$(dirname "$0")/.."

WAIT_SECS="${SMOKE_WAIT_SECS:-60}"
CLIENT_TIMEOUT="${SMOKE_CLIENT_TIMEOUT:-300}"

cargo build --release --example two_party_server --example two_party_client \
    --example pi_server --example multi_client --example plan_report

BIN=target/release/examples
server_pid=""
server_log=""

cleanup() {
    if [[ -n "$server_pid" ]] && kill -0 "$server_pid" 2>/dev/null; then
        kill "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
    fi
}
trap cleanup EXIT

# start_server <logfile> <cmd...> — launches the server in the
# background of *this* shell (no command substitution: a subshell could
# not `wait` for it later).
start_server() {
    server_log="$1"
    shift
    : >"$server_log"
    "$@" >"$server_log" 2>&1 &
    server_pid=$!
}

# wait_for_addr — echoes the address the running server announced, or
# fails after the timeout.
wait_for_addr() {
    local deadline=$((SECONDS + WAIT_SECS))
    local addr=""
    while [[ -z "$addr" ]]; do
        if ! kill -0 "$server_pid" 2>/dev/null; then
            echo "smoke: server died before announcing its address:" >&2
            cat "$server_log" >&2
            return 1
        fi
        if ((SECONDS >= deadline)); then
            echo "smoke: server did not announce within ${WAIT_SECS}s" >&2
            cat "$server_log" >&2
            return 1
        fi
        addr=$(awk '/^C2PI_LISTENING /{print $2; exit}' "$server_log")
        [[ -n "$addr" ]] || sleep 0.1
    done
    echo "$addr"
}

# finish_server — waits for the backgrounded server and propagates its
# exit code.
finish_server() {
    local pid="$server_pid"
    server_pid=""
    wait "$pid"
}

echo "== dealt two-process smoke (ephemeral ports) =="
for backend in cheetah delphi; do
    echo "-- backend $backend"
    start_server "target/smoke-two-party-$backend.log" \
        "$BIN/two_party_server" --backend "$backend" --addr 127.0.0.1:0
    addr=$(wait_for_addr)
    timeout "$CLIENT_TIMEOUT" "$BIN/two_party_client" --backend "$backend" --addr "$addr"
    finish_server
    cat "$server_log"
done

echo "== concurrent serving smoke: pi_server + multi_client =="
CLIENTS=4
ITERS=2
for backend in cheetah delphi; do
    echo "-- backend $backend"
    start_server "target/smoke-pi-server-$backend.log" \
        "$BIN/pi_server" --backend "$backend" --addr 127.0.0.1:0 \
        --serve-n $((CLIENTS * ITERS)) --preprocess 2 --workers "$CLIENTS" --shards 2
    addr=$(wait_for_addr)
    timeout "$CLIENT_TIMEOUT" "$BIN/multi_client" --backend "$backend" --addr "$addr" \
        --clients "$CLIENTS" --iters "$ITERS" | tee "target/smoke-multi-client-$backend.log"
    finish_server
    cat "$server_log"
done
# Client-side expansion is legible from the client's own summary line:
# on Delphi it is the client garbling its half of every dealt seed, the
# largest term of a request (the server-side twin, deal_ms_per_set, is
# asserted on the warm-boot life below).
grep -Eq '^\[multi_client\] .* client_deal_ms_mean=[0-9.]*[1-9]' target/smoke-multi-client-delphi.log || {
    echo "smoke: multi_client does not report a positive client_deal_ms_mean on delphi" >&2
    exit 1
}

# The build picks the readiness backend from the target; a Linux server
# that reports anything but epoll was built wrong.
if [[ "$(uname -s)" == Linux ]]; then
    grep -Eq '^\[pi_server\] reactor: .*poll_backend=epoll ' target/smoke-pi-server-cheetah.log || {
        echo "smoke: Linux server did not serve on the epoll poller" >&2
        exit 1
    }
fi

echo "== crash-recovery smoke: kill -9 the server, warm-boot from the store =="
# First life: attach one persistent MaterialStore segment per shard
# ($STORE.shard0, $STORE.shard1), preprocess WARM_PRE sets with the
# replenisher disabled (--pool-low 0), serve WARM_CLIENTS clients, then
# SIGKILL the process — no drain, no flush. Second life: same segments,
# zero preprocessing, and it must announce that exactly the unconsumed
# sets came back (C2PI_WARMBOOT restored=<preprocessed − served>) and
# serve WARM_CLIENTS more clients from them. The expected count is
# derived from the scenario variables so editing one cannot silently
# pass against a stale assertion.
WARM_PRE=6
WARM_CLIENTS=2
WARM_RESTORED=$((WARM_PRE - WARM_CLIENTS))
STORE=target/smoke-material-store.bin
rm -f "$STORE"*
start_server target/smoke-warmboot-1.log \
    "$BIN/pi_server" --backend cheetah --addr 127.0.0.1:0 \
    --persist "$STORE" --preprocess "$WARM_PRE" --pool-low 0 --pool-high 0 --workers 2 --shards 2
addr=$(wait_for_addr)
grep -q '^C2PI_WARMBOOT restored=0 ' target/smoke-warmboot-1.log || {
    echo "smoke: first life did not announce an empty warm boot" >&2
    cat target/smoke-warmboot-1.log >&2
    exit 1
}
timeout "$CLIENT_TIMEOUT" "$BIN/multi_client" --backend cheetah --addr "$addr" \
    --clients "$WARM_CLIENTS" --iters 1
kill -9 "$server_pid" 2>/dev/null
wait "$server_pid" 2>/dev/null || true
server_pid=""
cat target/smoke-warmboot-1.log

start_server target/smoke-warmboot-2.log \
    "$BIN/pi_server" --backend cheetah --addr 127.0.0.1:0 \
    --persist "$STORE" --preprocess 0 --pool-low 0 --pool-high 0 --workers 2 --shards 2 \
    --serve-n "$WARM_CLIENTS"
addr=$(wait_for_addr)
grep -q "^C2PI_WARMBOOT restored=$WARM_RESTORED " target/smoke-warmboot-2.log || {
    echo "smoke: restart did not restore the $WARM_RESTORED unconsumed sets from the store" >&2
    cat target/smoke-warmboot-2.log >&2
    exit 1
}
timeout "$CLIENT_TIMEOUT" "$BIN/multi_client" --backend cheetah --addr "$addr" \
    --clients "$WARM_CLIENTS" --iters 1
finish_server
cat target/smoke-warmboot-2.log
# Serving the second wave from restored sets must not have dealt inline.
grep -q ' 0 inline ' target/smoke-warmboot-2.log || {
    echo "smoke: warm-booted server fell back to inline dealing" >&2
    exit 1
}
# The dealing cost is legible from the server's own last line — and it
# is the first life's: the ledger the segments persisted carries the
# seconds its dealers spent, the second life dealt nothing.
grep -Eq '^\[pi_server\] reactor: .* deal_ms_per_set=[0-9.]*[1-9]' target/smoke-warmboot-2.log || {
    echo "smoke: final reactor line does not report a positive deal_ms_per_set" >&2
    exit 1
}
rm -f "$STORE"*

echo "== backpressure smoke: starved pool sheds, clients retry, graceful drain =="
# The server announces its address *before* dealing any material
# (--preprocess-delay-ms), so every early inference request is answered
# with a typed BUSY frame carrying the 50ms retry hint. The clients ride
# the hint (--retries) until the delayed offline phase lands, after
# which all four inferences must verify against the clear model; the
# server then drains gracefully (exit 0 via --serve-n). The shed counter
# in its final reactor line proves the backpressure path actually fired,
# and the ledger line proves nothing was dealt inline to paper over the
# starvation.
start_server target/smoke-backpressure.log \
    "$BIN/pi_server" --backend cheetah --addr 127.0.0.1:0 \
    --preprocess 4 --preprocess-delay-ms 500 --retry-after-ms 50 \
    --pool-low 0 --pool-high 0 --workers 2 --shards 2 --serve-n 4
addr=$(wait_for_addr)
timeout "$CLIENT_TIMEOUT" "$BIN/multi_client" --backend cheetah --addr "$addr" \
    --clients 4 --iters 1 --retries 100 --stats
finish_server
cat target/smoke-backpressure.log
grep -Eq '^\[pi_server\] reactor: accepted=[0-9]+ shed=[1-9]' target/smoke-backpressure.log || {
    echo "smoke: starved server never shed a request with a BUSY frame" >&2
    exit 1
}
grep -q ' 0 inline ' target/smoke-backpressure.log || {
    echo "smoke: starved server dealt inline instead of shedding" >&2
    exit 1
}

echo "== batching smoke: coalesced window, bit-identical logits =="
# Two lives of the same deterministic server (one worker, one shard, no
# replenisher: material sets 0..N-1 are consumed in stream order no
# matter how the wave is partitioned into batches), all N clients
# sending the same input. Reconstruction low bits depend on the
# consumed material set (probabilistic truncation), and batch order is
# racy — but the *multiset* of (input, material) pairings is invariant,
# so the sorted logit-bit dumps must diff clean. The batched life's
# final reactor line must prove real coalescing happened (coalesced>0),
# and the unbatched life must have served N runs of one (batches=N,
# coalesced=0).
BATCH_CLIENTS=4
for mode in off on; do
    batch_flags=()
    if [[ $mode == on ]]; then
        batch_flags=(--batch-window-ms 200 --max-batch "$BATCH_CLIENTS")
    fi
    start_server "target/smoke-batch-$mode.log" \
        "$BIN/pi_server" --backend cheetah --addr 127.0.0.1:0 \
        --preprocess "$BATCH_CLIENTS" --pool-low 0 --pool-high 0 \
        --workers 1 --shards 1 --serve-n "$BATCH_CLIENTS" "${batch_flags[@]}"
    addr=$(wait_for_addr)
    timeout "$CLIENT_TIMEOUT" "$BIN/multi_client" --backend cheetah --addr "$addr" \
        --clients "$BATCH_CLIENTS" --iters 1 --fixed-seed 4242 \
        --dump-bits "target/smoke-batch-$mode.bits"
    finish_server
    cat "target/smoke-batch-$mode.log"
    sort "target/smoke-batch-$mode.bits" >"target/smoke-batch-$mode.sorted"
done
diff target/smoke-batch-off.sorted target/smoke-batch-on.sorted || {
    echo "smoke: batched logits are not bit-identical to the unbatched reference" >&2
    exit 1
}
grep -Eq '^\[pi_server\] reactor: .*coalesced=[1-9]' target/smoke-batch-on.log || {
    echo "smoke: batching server never coalesced concurrent requests" >&2
    exit 1
}
grep -Eq "^\[pi_server\] reactor: .*coalesced=0 batches=$BATCH_CLIENTS " target/smoke-batch-off.log || {
    echo "smoke: unbatched server did not serve every request as a run of one" >&2
    exit 1
}

echo "== deployment-planner smoke: deterministic plan + round-trip =="
# plan_report exits non-zero unless every smoke prediction round-trips
# bit-identically through the top-ranked plan; running it twice and
# diffing pins the byte-identical-output contract at release speed.
# Keep stderr (progress + any round-trip mismatch diagnostics) in a
# log so a failure is debuggable from the CI output.
run_plan_report() {
    local out=$1 log=$2
    if ! "$BIN/plan_report" --seed 47 >"$out" 2>"$log"; then
        echo "smoke: plan_report failed; its stderr follows" >&2
        cat "$log" >&2
        exit 1
    fi
}
run_plan_report target/smoke-plan-a.txt target/smoke-plan-a.log
run_plan_report target/smoke-plan-b.txt target/smoke-plan-b.log
diff target/smoke-plan-a.txt target/smoke-plan-b.txt || {
    echo "smoke: plan_report output is not byte-identical across runs" >&2
    exit 1
}
head -3 target/smoke-plan-a.txt

echo "smoke: OK"
