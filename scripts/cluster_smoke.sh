#!/usr/bin/env bash
# Multi-process cluster smoke test: run the same command once
# in-process and once with -workers 3 — the command's own process as
# jobtracker, three worker processes over TCP — and require the same
# answer byte for byte. Leg 1 is k-means with one worker SIGKILLed
# mid-run; leg 2 is the six-job POI attack.
#
# This is the end-to-end proof behind the executor split: the scheduler
# cannot tell the two backends apart, losing a tasktracker costs
# retries, never answers, and every pipeline — not only k-means —
# crosses the process boundary.
#
# Leg 1 also exercises the observability plane: the jobtracker serves
# its status server with -linger, and the script scrapes /cluster,
# /metrics (federated per-worker series) and the live worker table,
# then renders the clock-aligned Chrome trace via `gepeto analyze`.
# Set ARTIFACT_DIR to keep the trace + scrapes (CI uploads them).
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/gepeto" ./cmd/gepeto

echo "== generate corpus"
"$workdir/gepeto" generate -users 5 -traces 20000 -seed 42 -out "$workdir/data" >/dev/null

echo "== in-process reference run"
"$workdir/gepeto" kmeans -in "$workdir/data" -k 5 -maxiter 5 -seed 1 -combiner \
    -nodes 3 -racks 2 -slots 4 \
    -centroids-out "$workdir/expected.txt" >/dev/null

echo "== multi-process run (3 workers, one killed mid-run)"
"$workdir/gepeto" kmeans -in "$workdir/data" -k 5 -maxiter 5 -seed 1 -combiner \
    -racks 2 -slots 4 -workers 3 -grace 1s \
    -addr-file "$workdir/jt.addr" \
    -status :0 -status-file "$workdir/status.addr" \
    -historydir "$workdir/history" -linger 60s -log-level info \
    -centroids-out "$workdir/actual.txt" &
jt_pid=$!
pids+=("$jt_pid")

worker_pids=()
for i in 0 1 2; do
    # The per-task overhead stretches the run so the kill below lands
    # while the job is still in flight. node-02 runs on a clock skewed
    # 2s into the future, so the trace only assembles cleanly if the
    # jobtracker's offset correction works.
    skew=0s
    [ "$i" = 2 ] && skew=2s
    "$workdir/gepeto" worker -node "node-0$i" -slots 4 \
        -addr-file "$workdir/jt.addr" -task-overhead 100ms \
        -clock-skew "$skew" -log-level warn &
    worker_pids+=("$!")
    pids+=("$!")
done

sleep 1
echo "== killing worker node-01 (pid ${worker_pids[1]})"
kill -9 "${worker_pids[1]}" 2>/dev/null || true

echo "== waiting for the job (the kmeans process lingers for scraping)"
deadline=$((SECONDS + 120))
while [ ! -s "$workdir/actual.txt" ]; do
    if ! kill -0 "$jt_pid" 2>/dev/null; then
        echo "FAIL: jobtracker exited before producing centroids" >&2
        exit 1
    fi
    if [ "$SECONDS" -ge "$deadline" ]; then
        echo "FAIL: job never finished" >&2
        exit 1
    fi
    sleep 0.5
done

status_addr=$(cat "$workdir/status.addr")
echo "== scraping the lingering status server on $status_addr"
curl -fsS "http://$status_addr/cluster" >"$workdir/cluster.txt"
curl -fsS "http://$status_addr/cluster.json" >"$workdir/cluster.json"
curl -fsS "http://$status_addr/metrics" >"$workdir/metrics.txt"
"$workdir/gepeto" cluster -status "$status_addr" >"$workdir/cluster_cli.txt"

echo "== asserting the cluster view"
for node in node-00 node-02; do
    if ! grep -q "$node" "$workdir/cluster.txt"; then
        echo "FAIL: /cluster missing surviving worker $node" >&2
        cat "$workdir/cluster.txt" >&2
        exit 1
    fi
done
if ! grep -q "lost" "$workdir/cluster.txt"; then
    echo "FAIL: /cluster does not report the killed worker as lost" >&2
    cat "$workdir/cluster.txt" >&2
    exit 1
fi
if ! cmp -s "$workdir/cluster.txt" "$workdir/cluster_cli.txt"; then
    # Heartbeat ages advance between the two scrapes; only require the
    # CLI to render the same worker set, not identical bytes.
    for node in node-00 node-02; do
        if ! grep -q "$node" "$workdir/cluster_cli.txt"; then
            echo "FAIL: gepeto cluster missing worker $node" >&2
            cat "$workdir/cluster_cli.txt" >&2
            exit 1
        fi
    done
fi

echo "== asserting federated per-worker metrics"
for node in node-00 node-02; do
    # Every surviving worker must federate nonzero RPC client calls.
    if ! awk -v node="$node" '
        /^rpc_client_calls_total\{/ && index($0, "worker=\"" node "\"") { sum += $NF }
        END { exit (sum > 0 ? 0 : 1) }' "$workdir/metrics.txt"; then
        echo "FAIL: /metrics has no rpc_client_calls_total for $node" >&2
        grep "^rpc_client_calls_total" "$workdir/metrics.txt" >&2 || true
        exit 1
    fi
done
for family in rpc_server_handled_total cluster_workers cluster_worker_heartbeat_age_seconds; do
    if ! grep -q "^$family" "$workdir/metrics.txt"; then
        echo "FAIL: /metrics missing $family" >&2
        exit 1
    fi
done

echo "== rendering the clock-aligned Chrome trace"
"$workdir/gepeto" analyze -dir "$workdir/history" >"$workdir/traces.txt"
seq=$(awk 'NR==2{print $1}' "$workdir/traces.txt")
"$workdir/gepeto" analyze -dir "$workdir/history" -chrome "$workdir/trace.json" "$seq" >"$workdir/analyze.txt"
if ! grep -q "rpc overhead:" "$workdir/analyze.txt"; then
    echo "FAIL: analyze report has no rpc overhead section" >&2
    cat "$workdir/analyze.txt" >&2
    exit 1
fi
if ! grep -q "(worker)" "$workdir/trace.json"; then
    echo "FAIL: Chrome trace has no worker-side exec lanes" >&2
    exit 1
fi

if [ -n "${ARTIFACT_DIR:-}" ]; then
    mkdir -p "$ARTIFACT_DIR"
    cp "$workdir/trace.json" "$workdir/analyze.txt" "$workdir/cluster.txt" \
       "$workdir/cluster.json" "$workdir/metrics.txt" "$ARTIFACT_DIR/"
fi

echo "== ending the linger"
kill -INT "$jt_pid" 2>/dev/null || true
if ! wait "$jt_pid"; then
    echo "FAIL: jobtracker exited nonzero" >&2
    exit 1
fi

# Surviving workers exit via the jobtracker's shutdown; don't fail the
# script on their status.
wait "${worker_pids[0]}" 2>/dev/null || true
wait "${worker_pids[2]}" 2>/dev/null || true

echo "== diff centroids"
if ! diff -u "$workdir/expected.txt" "$workdir/actual.txt"; then
    echo "FAIL: multi-process centroids differ from in-process run" >&2
    exit 1
fi

echo "== POI attack: in-process reference run"
"$workdir/gepeto" attack -in "$workdir/data" -nodes 3 -racks 2 -slots 4 \
    -historydir "" >"$workdir/pois_expected.txt"

echo "== POI attack: multi-process run (3 workers)"
rm -f "$workdir/jt.addr"
"$workdir/gepeto" attack -in "$workdir/data" -racks 2 -slots 4 -workers 3 \
    -addr-file "$workdir/jt.addr" -historydir "" >"$workdir/pois_actual.txt" &
attack_pid=$!
pids+=("$attack_pid")
for i in 0 1 2; do
    "$workdir/gepeto" worker -node "node-0$i" -slots 4 -addr-file "$workdir/jt.addr" &
    pids+=("$!")
done
if ! wait "$attack_pid"; then
    echo "FAIL: multi-process attack exited nonzero" >&2
    exit 1
fi
if ! grep -q "^user " "$workdir/pois_expected.txt"; then
    echo "FAIL: the reference attack found no POIs to compare" >&2
    exit 1
fi
if ! diff -u "$workdir/pois_expected.txt" "$workdir/pois_actual.txt"; then
    echo "FAIL: multi-process POIs differ from in-process run" >&2
    exit 1
fi
echo "PASS: centroids and POIs byte-identical across backends, cluster view + federated metrics + clock-aligned trace verified"
