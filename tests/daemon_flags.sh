#!/bin/sh
# The daemons accept every flag they read and reject any other one: an
# unknown flag (a leftover `--parser dom`, a typo like `--cache-capcity`)
# must exit with status 2 and a usage error naming it, before a socket is
# bound.
# Usage: daemon_flags.sh /path/to/mecsc_serve /path/to/mecsc_route
set -eu

SERVE="$1"
ROUTE="$2"
DIR="$(mktemp -d)"
pids=""
cleanup() {
  for pid in $pids; do kill -KILL "$pid" 2>/dev/null || true; done
  rm -rf "$DIR"
}
trap cleanup EXIT

# expect_rejected FLAG COMMAND...
expect_rejected() {
  flag="$1"
  shift
  status=0
  timeout 30 "$@" 2> "$DIR/err" || status=$?
  if [ "$status" -ne 2 ]; then
    echo "expected exit status 2, got $status from: $*" >&2
    cat "$DIR/err" >&2
    exit 1
  fi
  if ! grep -q "^error: unknown flag '$flag'" "$DIR/err"; then
    echo "no usage error naming $flag from: $*" >&2
    cat "$DIR/err" >&2
    exit 1
  fi
  if [ -e "$DIR/sock" ]; then
    echo "socket bound before $flag was rejected: $*" >&2
    exit 1
  fi
}

expect_rejected --parser "$SERVE" --unix-socket "$DIR/sock" --parser dom
expect_rejected --cache-capcity \
    "$SERVE" --unix-socket "$DIR/sock" --cache-capcity 2
expect_rejected --parser "$ROUTE" --unix-socket "$DIR/sock" \
    --backend "b1=unix:$DIR/backend.sock" --parser dom
expect_rejected --profile-out "$ROUTE" --unix-socket "$DIR/sock" \
    --backend "b1=unix:$DIR/backend.sock" --profile-out "$DIR/profile.json"

# wait_for_file FILE: the daemons write their port files once listening.
wait_for_file() {
  for _ in $(seq 1 200); do
    [ -s "$1" ] && return 0
    sleep 0.05
  done
  echo "timed out waiting for $1" >&2
  exit 1
}

# Every flag each daemon reads starts it, and a TERM drains it cleanly.
"$SERVE" --tcp-port 0 --port-file "$DIR/serve.port" --threads 1 \
    --queue-capacity 8 --cache-capacity 2 --default-deadline-ms 0 \
    --request-log "$DIR/serve.log" --request-log-max-mb 1 \
    --slow-request-ms 500 --trace-out "$DIR/serve.trace.json" \
    --trace-sample-rate 1 --flight-recorder 8 \
    --flight-dump "$DIR/serve.flight.json" --admin-port 0 \
    --admin-port-file "$DIR/serve.admin" --telemetry-window-ms 1000 \
    --log-level warn --metrics-out "$DIR/serve.metrics.json" \
    --profile-out "$DIR/serve.profile.json" \
    --manifest-out "$DIR/serve.manifest.json" 2> "$DIR/serve.err" &
serve_pid=$!
pids="$serve_pid"
wait_for_file "$DIR/serve.port"
"$ROUTE" --tcp-port 0 --port-file "$DIR/route.port" \
    --backend "b1=tcp:127.0.0.1:$(cat "$DIR/serve.port")" \
    --health-interval-ms 0 --probe-failures 2 --spill-queue-fraction 0.9 \
    --request-log "$DIR/route.log" --request-log-max-mb 1 \
    --slow-request-ms 500 --trace-out "$DIR/route.trace.json" \
    --trace-sample-rate 1 --flight-recorder 8 \
    --flight-dump "$DIR/route.flight.json" --admin-port 0 \
    --admin-port-file "$DIR/route.admin" --telemetry-window-ms 1000 \
    --log-level warn --metrics-out "$DIR/route.metrics.json" \
    --manifest-out "$DIR/route.manifest.json" 2> "$DIR/route.err" &
route_pid=$!
pids="$serve_pid $route_pid"
wait_for_file "$DIR/route.port"
kill -TERM "$route_pid"
if ! wait "$route_pid"; then
  echo "mecsc_route did not drain cleanly:" >&2
  cat "$DIR/route.err" >&2
  exit 1
fi
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
  echo "mecsc_serve did not drain cleanly:" >&2
  cat "$DIR/serve.err" >&2
  exit 1
fi
pids=""

echo "daemon_flags OK"
