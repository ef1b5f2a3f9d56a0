#!/usr/bin/env bash
# Runs the mecsc CLI twice with identical seeds and diffs every artifact.
# Any divergence means hidden nondeterminism (unordered iteration, uninit
# reads, wall-clock leakage) crept into an algorithm — the reproducibility
# guarantee behind every figure in the paper.
#
# Usage: check_determinism.sh /path/to/mecsc [seed]
set -eu

MECSC="${1:?usage: check_determinism.sh /path/to/mecsc [seed]}"
SEED="${2:-42}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
TOOLS_DIR="$(cd "$(dirname "$0")" && pwd)"

run_once() {
  out="$1"
  mkdir -p "$out"
  "$MECSC" generate --size 80 --providers 30 --seed "$SEED" \
      -o "$out/inst.json"
  for alg in lcf appro appro-literal jo offload selfish; do
    "$MECSC" solve -i "$out/inst.json" --algorithm "$alg" \
        -o "$out/$alg.raw.json" 2>/dev/null
    # wall_elapsed_ms is wall-clock metadata, not an algorithm result;
    # everything else in the artifact must be bit-identical across runs.
    mv "$out/$alg.raw.json" "$out/$alg.json"
    python3 "$TOOLS_DIR/strip_wallclock.py" "$out/$alg.json"
    "$MECSC" evaluate -i "$out/inst.json" -p "$out/$alg.json" \
        > "$out/$alg.eval.txt"
  done
  "$MECSC" price -i "$out/inst.json" -o "$out/priced.json" 2>/dev/null
  "$MECSC" stability -i "$out/inst.json" > "$out/stability.txt"
  "$MECSC" delay -i "$out/inst.json" -p "$out/lcf.json" > "$out/delay.txt"
  "$MECSC" emulate -i "$out/inst.json" -p "$out/lcf.json" --horizon 10 \
      > "$out/emulate.txt"

  # Observability artifacts: trace, metrics, phase profile, and run manifest
  # from one instrumented solve. Their deterministic sections (everything
  # except "wall_"-prefixed keys and the Perfetto traceEvents array) must
  # also be bit-identical across runs.
  "$MECSC" solve -i "$out/inst.json" --algorithm lcf -o - \
      --trace-out "$out/lcf.trace.jsonl" \
      --metrics-out "$out/lcf.metrics.json" \
      --profile-out "$out/lcf.profile.json" \
      --manifest-out "$out/lcf.manifest.json" > /dev/null 2>&1
  python3 "$TOOLS_DIR/strip_wallclock.py" \
      "$out/lcf.trace.jsonl" "$out/lcf.metrics.json" \
      "$out/lcf.profile.json" "$out/lcf.manifest.json"
  # The manifest faithfully records the flags, which contain this run's
  # scratch directory; normalize the path so the a/b dirs compare equal.
  sed -i "s|$out|RUNDIR|g" "$out/lcf.manifest.json"

  # Served-response determinism: responses from the solver service for
  # identical requests must be byte-identical across runs once wall_ keys
  # are stripped — same contract as the CLI artifacts, over a socket.
  SERVE="$(dirname "$MECSC")/mecsc_serve"
  LOADGEN="$(dirname "$MECSC")/mecsc_loadgen"
  if [ -x "$SERVE" ] && [ -x "$LOADGEN" ]; then
    # One worker: FIFO processing keeps the response *order* on a
    # pipelined connection deterministic, not just the payloads.
    "$SERVE" --tcp-port 0 --threads 1 --port-file "$out/port.txt" \
        2>/dev/null &
    serve_pid=$!
    for _ in $(seq 1 200); do
      [ -s "$out/port.txt" ] && break
      sleep 0.05
    done
    port="$(cat "$out/port.txt")"
    rm "$out/port.txt"  # the ephemeral port differs across runs

    # Raw wire capture: pipelined solve requests (each algorithm twice, so
    # the second hit exercises the result cache) over bash's /dev/tcp.
    python3 - "$out" <<'EOF'
import json, sys
out = sys.argv[1]
inst = json.load(open(out + "/inst.json"))
with open(out + "/svc.requests", "w") as f:
    rid = 0
    for alg in ("lcf", "appro", "lcf", "appro"):
        rid += 1
        f.write(json.dumps({"id": rid, "type": "solve", "algorithm": alg,
                            "instance": inst}) + "\n")
EOF
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    cat "$out/svc.requests" >&3
    : > "$out/svc.responses.jsonl"
    for _ in 1 2 3 4; do
      IFS= read -r line <&3
      printf '%s\n' "$line" >> "$out/svc.responses.jsonl"
    done
    exec 3>&- 3<&-
    rm "$out/svc.requests"
    python3 "$TOOLS_DIR/strip_wallclock.py" "$out/svc.responses.jsonl"

    # Closed-loop load: per-combination result digests land in
    # BENCH_svc.json; its deterministic sections must match across runs.
    MECSC_BENCH_JSON_DIR="$out" "$LOADGEN" --connect "tcp:127.0.0.1:$port" \
        --requests 40 --connections 4 --size 30 --providers 20 \
        --seed "$SEED" --shutdown-after 1 2>/dev/null
    python3 "$TOOLS_DIR/strip_wallclock.py" "$out/BENCH_svc.json"
    wait "$serve_pid"

    # Telemetry determinism: a dedicated single-worker server with the
    # wide-event request log on. One pipelined connection sends solves
    # (cold, cached, second algorithm), a metrics snapshot, and a
    # shutdown; with one FIFO worker the event order, the server-minted
    # request_ids ("s-<n>"), the cache outcomes, and every non-wall_
    # field of both the responses and the request log are exact functions
    # of the request stream — so they must diff clean across runs.
    "$SERVE" --tcp-port 0 --threads 1 --port-file "$out/tport.txt" \
        --request-log "$out/svc.requestlog.jsonl" 2>/dev/null &
    tserve_pid=$!
    for _ in $(seq 1 200); do
      [ -s "$out/tport.txt" ] && break
      sleep 0.05
    done
    tport="$(cat "$out/tport.txt")"
    rm "$out/tport.txt"
    python3 - "$out" <<'EOF'
import json, sys
out = sys.argv[1]
inst = json.load(open(out + "/inst.json"))
requests = [
    {"id": 1, "type": "solve", "algorithm": "lcf", "instance": inst,
     "request_id": "det-1"},                             # miss, echoed id
    {"id": 2, "type": "solve", "algorithm": "lcf", "instance": inst},
                                                         # hit, minted id
    {"id": 3, "type": "solve", "algorithm": "appro", "instance": inst,
     "request_id": "det-3"},                             # second type
    {"id": 4, "type": "metrics"},                        # snapshot of all 3
    {"id": 5, "type": "shutdown"},
]
with open(out + "/svc.trequests", "w") as f:
    for request in requests:
        f.write(json.dumps(request) + "\n")
EOF
    exec 3<>"/dev/tcp/127.0.0.1/$tport"
    cat "$out/svc.trequests" >&3
    : > "$out/svc.telemetry.responses.jsonl"
    for _ in 1 2 3 4 5; do
      IFS= read -r line <&3
      printf '%s\n' "$line" >> "$out/svc.telemetry.responses.jsonl"
    done
    exec 3>&- 3<&-
    rm "$out/svc.trequests"
    wait "$tserve_pid"  # drain closes (and flushes) the request log
    python3 "$TOOLS_DIR/strip_wallclock.py" \
        "$out/svc.telemetry.responses.jsonl" "$out/svc.requestlog.jsonl"

    # Trace determinism: a single-worker server with tracing fully on.
    # Trace ids are derived (client-sent traceparents are fixed strings;
    # server-minted ones hash the FIFO request_id), span ids are sequence
    # hashes, and the trace artifact's summaries, the flight-recorder dump,
    # and the responses must all diff clean once wall_ keys and the
    # traceEvents timeline (wall-clock by nature) are stripped.
    "$SERVE" --tcp-port 0 --threads 1 --port-file "$out/rport.txt" \
        --trace-out "$out/svc.trace.json" --trace-sample-rate 1 \
        --flight-recorder 8 --admin-port 0 \
        --admin-port-file "$out/raport.txt" 2>/dev/null &
    rserve_pid=$!
    for _ in $(seq 1 200); do
      [ -s "$out/rport.txt" ] && [ -s "$out/raport.txt" ] && break
      sleep 0.05
    done
    rport="$(cat "$out/rport.txt")"
    raport="$(cat "$out/raport.txt")"
    rm "$out/rport.txt" "$out/raport.txt"
    python3 - "$out" <<'EOF'
import json, sys
out = sys.argv[1]
inst = json.load(open(out + "/inst.json"))
parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
requests = [
    {"id": 1, "type": "solve", "algorithm": "lcf", "instance": inst,
     "request_id": "trc-1", "traceparent": parent},  # continues the client trace
    {"id": 2, "type": "solve", "algorithm": "lcf", "instance": inst,
     "request_id": "trc-2"},                         # cache hit, minted trace
    {"id": 3, "type": "solve", "algorithm": "no-such-algorithm",
     "instance": inst, "request_id": "trc-err"},     # error: tail-kept
    {"id": 4, "type": "metrics"},                    # FIFO barrier: all flight
]                                                    # entries recorded
with open(out + "/svc.rrequests", "w") as f:
    for request in requests:
        f.write(json.dumps(request) + "\n")
EOF
    exec 3<>"/dev/tcp/127.0.0.1/$rport"
    cat "$out/svc.rrequests" >&3
    : > "$out/svc.trace.responses.jsonl"
    for _ in 1 2 3 4; do
      IFS= read -r line <&3
      printf '%s\n' "$line" >> "$out/svc.trace.responses.jsonl"
    done
    exec 3>&- 3<&-
    rm "$out/svc.rrequests"

    # Flight-recorder dump over the admin endpoint, headers stripped.
    exec 4<>"/dev/tcp/127.0.0.1/$raport"
    printf 'GET /debug/flight HTTP/1.0\r\n\r\n' >&4
    cat <&4 | sed '1,/^\r*$/d' > "$out/svc.flight.json"
    exec 4>&- 4<&-

    # Graceful stop closes (and footers) the trace artifact.
    exec 5<>"/dev/tcp/127.0.0.1/$rport"
    printf '{"id": 9, "type": "shutdown"}\n' >&5
    IFS= read -r _ <&5 || true
    exec 5>&- 5<&-
    wait "$rserve_pid"
    python3 "$TOOLS_DIR/strip_wallclock.py" \
        "$out/svc.trace.responses.jsonl" "$out/svc.trace.json" \
        "$out/svc.flight.json"

    # Routed determinism: a 2-backend single-worker topology behind the
    # front router, health probing off (--health-interval-ms 0 — probe
    # arrival is wall-clock, and these runs must not depend on it). With
    # one pipelined connection and FIFO workers everywhere, the digest
    # placement, the router-minted "r-<n>" ids, the cache outcomes, the
    # spliced route_backend tags, and the wide-event logs of the router
    # and both backends are exact functions of the request stream.
    ROUTE="$(dirname "$MECSC")/mecsc_route"
    if [ -x "$ROUTE" ]; then
      "$SERVE" --tcp-port 0 --threads 1 --port-file "$out/d1port.txt" \
          --request-log "$out/route.b1.requestlog.jsonl" 2>/dev/null &
      d1_pid=$!
      "$SERVE" --tcp-port 0 --threads 1 --port-file "$out/d2port.txt" \
          --request-log "$out/route.b2.requestlog.jsonl" 2>/dev/null &
      d2_pid=$!
      for _ in $(seq 1 200); do
        [ -s "$out/d1port.txt" ] && [ -s "$out/d2port.txt" ] && break
        sleep 0.05
      done
      "$ROUTE" --tcp-port 0 --port-file "$out/rtport.txt" \
          --backend "b1=tcp:127.0.0.1:$(cat "$out/d1port.txt")" \
          --backend "b2=tcp:127.0.0.1:$(cat "$out/d2port.txt")" \
          --health-interval-ms 0 \
          --request-log "$out/route.requestlog.jsonl" 2>/dev/null &
      route_pid=$!
      for _ in $(seq 1 200); do
        [ -s "$out/rtport.txt" ] && break
        sleep 0.05
      done
      rtport="$(cat "$out/rtport.txt")"
      rm "$out/rtport.txt" "$out/d1port.txt" "$out/d2port.txt"
      python3 - "$out" <<'EOF'
import json, sys
out = sys.argv[1]
inst = json.load(open(out + "/inst.json"))
requests = [
    {"id": 1, "type": "solve", "algorithm": "lcf", "instance": inst,
     "request_id": "rt-1"},                       # cold solve on the owner
    {"id": 2, "type": "solve", "algorithm": "lcf", "instance": inst},
                                                  # router-minted id, warm hit
    {"id": 3, "type": "solve", "algorithm": "appro", "instance": inst,
     "request_id": "rt-3"},                       # same digest, same owner
]
with open(out + "/svc.routedrequests", "w") as f:
    for request in requests:
        f.write(json.dumps(request) + "\n")
EOF
      exec 6<>"/dev/tcp/127.0.0.1/$rtport"
      cat "$out/svc.routedrequests" >&6
      : > "$out/svc.routed.responses.jsonl"
      for _ in 1 2 3; do
        IFS= read -r line <&6
        printf '%s\n' "$line" >> "$out/svc.routed.responses.jsonl"
      done
      exec 6>&- 6<&-
      rm "$out/svc.routedrequests"
      # Router first (its drain closes the backend pools and flushes its
      # log), then the backends flush theirs.
      kill -TERM "$route_pid"
      wait "$route_pid"
      kill -TERM "$d1_pid" "$d2_pid"
      wait "$d1_pid" "$d2_pid"
      python3 "$TOOLS_DIR/strip_wallclock.py" \
          "$out/svc.routed.responses.jsonl" "$out/route.requestlog.jsonl" \
          "$out/route.b1.requestlog.jsonl" "$out/route.b2.requestlog.jsonl"
    fi
  fi

  # Parse determinism: bench_json's records carry each generated
  # document's size, arena node count and canonical-dump digest;
  # everything outside wall_ keys must be bit-identical across runs.
  BENCH_JSON="$(dirname "$MECSC")/../bench/bench_json"
  if [ -x "$BENCH_JSON" ]; then
    MECSC_BENCH_SMOKE=1 MECSC_BENCH_JSON_DIR="$out" "$BENCH_JSON" >/dev/null
    python3 "$TOOLS_DIR/strip_wallclock.py" "$out/BENCH_json.json"
  fi
}

run_once "$DIR/a"
run_once "$DIR/b"

if ! diff -ru "$DIR/a" "$DIR/b"; then
  echo "check_determinism: FAIL — identical seeds produced different output" >&2
  exit 1
fi
echo "check_determinism: OK (seed $SEED, $(ls "$DIR/a" | wc -l) artifacts identical)"
