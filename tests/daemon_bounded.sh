#!/bin/sh
# Neither daemon may hold state that grows with the requests or
# connections it serves. Starts one mecsc_serve with one mecsc_route in
# front of it and checks each daemon:
#   - RSS grows by at most 256 KB between the 10,000th and the 50,000th
#     `health` request on one connection (per-request telemetry state);
#   - 300 sequential one-request connections grow VmSize by at most 64 MB
#     and RSS by at most 1 MB (finished session threads are joined);
#   - after 1000 distinct unknown request types, the `metrics` response's
#     `red` map has at most 8 keys (client-chosen strings share one key).
# Sizes come from /proc/<pid>/status, so the script needs Linux.
# Usage: daemon_bounded.sh /path/to/mecsc_serve /path/to/mecsc_route
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

# wait_for_socket PATH: the daemons bind their socket once listening.
wait_for_socket() {
  for _ in $(seq 1 200); do
    [ -S "$1" ] && return 0
    sleep 0.05
  done
  echo "timed out waiting for $1" >&2
  exit 1
}

# Unix sockets: no Nagle stalls on pipelined batches.
"$SERVE" --unix-socket "$DIR/serve.sock" --threads 2 2> "$DIR/serve.err" &
serve_pid=$!
pids="$serve_pid"
wait_for_socket "$DIR/serve.sock"
# Probing off: the prober's own connections would land in the backend's
# connection measurement.
"$ROUTE" --unix-socket "$DIR/route.sock" \
    --backend "b1=unix:$DIR/serve.sock" --health-interval-ms 0 \
    2> "$DIR/route.err" &
route_pid=$!
pids="$serve_pid $route_pid"
wait_for_socket "$DIR/route.sock"

status=0
python3 - "$serve_pid" "$DIR/serve.sock" "$route_pid" "$DIR/route.sock" \
    <<'EOF' || status=$?
import json
import socket
import sys
import time

serve_pid, serve_sock = int(sys.argv[1]), sys.argv[2]
route_pid, route_sock = int(sys.argv[3]), sys.argv[4]
BATCH = 32  # pipelined lines per round trip; below the default queue cap
failures = []


def proc_status(pid, key):
    """An integer field of /proc/<pid>/status (sizes are in kB)."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {key} for pid {pid}")


def check(ok, message):
    print(("ok:   " if ok else "FAIL: ") + message)
    if not ok:
        failures.append(message)


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.lines = self.sock.makefile("rb")

    def batch(self, requests):
        self.sock.sendall(b"".join(r + b"\n" for r in requests))
        return [json.loads(self.lines.readline()) for _ in requests]

    def close(self):
        self.lines.close()
        self.sock.close()


def health_growth(name, pid, path):
    conn = Conn(path)
    health = b'{"type": "health"}'
    sent = 0
    rss = {}
    for mark in (10000, 50000):
        while sent < mark:
            n = min(BATCH, mark - sent)
            for r in conn.batch([health] * n):
                if r.get("ok") is not True:
                    raise RuntimeError(f"{name}: health failed: {r}")
            sent += n
        rss[mark] = proc_status(pid, "VmRSS")
    conn.close()
    growth = rss[50000] - rss[10000]
    check(growth <= 256,
          f"{name}: RSS {rss[10000]} -> {rss[50000]} kB "
          f"(+{growth} kB, bound 256) over health requests 10000..50000")


def one_connection(pid, path, threads):
    """One health request on a fresh connection. Returns once the session
    thread has exited, so each connection's session is finished (though
    not necessarily joined) before the next one starts."""
    conn = Conn(path)
    r = conn.batch([b'{"type": "health"}'])[0]
    conn.close()
    if r.get("ok") is not True:
        raise RuntimeError(f"health failed: {r}")
    deadline = time.monotonic() + 10.0
    while proc_status(pid, "Threads") > threads:
        if time.monotonic() > deadline:
            raise RuntimeError(f"pid {pid}: session thread did not exit")
        time.sleep(0.001)


def connection_growth(name, pid, path):
    time.sleep(0.1)  # let the previous step's session thread exit
    threads = proc_status(pid, "Threads")  # no connection open
    for _ in range(20):  # warm-up: stacks and arenas that get reused
        one_connection(pid, path, threads)
    vm0, rss0 = proc_status(pid, "VmSize"), proc_status(pid, "VmRSS")
    for _ in range(300):
        one_connection(pid, path, threads)
    vm1, rss1 = proc_status(pid, "VmSize"), proc_status(pid, "VmRSS")
    check(vm1 - vm0 <= 64 * 1024,
          f"{name}: VmSize {vm0} -> {vm1} kB (+{vm1 - vm0} kB, bound 65536) "
          f"over 300 connections")
    check(rss1 - rss0 <= 1024,
          f"{name}: RSS {rss0} -> {rss1} kB (+{rss1 - rss0} kB, bound 1024) "
          f"over 300 connections")


def red_keys(conn):
    r = conn.batch([b'{"type": "metrics"}'])[0]
    if r.get("ok") is not True:
        raise RuntimeError(f"metrics failed: {r}")
    return sorted(r["telemetry"]["red"])


def unknown_types(name, path):
    conn = Conn(path)
    requests = [json.dumps({"id": i, "type": f"no-such-type-{i}"}).encode()
                for i in range(1000)]
    for first in range(0, len(requests), BATCH):
        for r in conn.batch(requests[first:first + BATCH]):
            if r.get("ok") is not False or \
                    r["error"]["code"] != "bad_request" or \
                    "no-such-type-" not in r["error"]["message"]:
                raise RuntimeError(f"{name}: unexpected answer: {r}")
    keys = red_keys(conn)
    conn.close()
    check(len(keys) <= 8,
          f"{name}: {len(keys)} red keys (bound 8) after 1000 unknown types: "
          f"{keys[:10]}")


for name, pid, path in (("mecsc_serve", serve_pid, serve_sock),
                        ("mecsc_route", route_pid, route_sock)):
    health_growth(name, pid, path)
    connection_growth(name, pid, path)
    unknown_types(name, path)
# The router forwards unknown types, so the backend saw 1000 more.
conn = Conn(serve_sock)
keys = red_keys(conn)
conn.close()
check(len(keys) <= 8,
      f"mecsc_serve: {len(keys)} red keys (bound 8) after 1000 more unknown "
      f"types through the router: {keys[:10]}")
sys.exit(1 if failures else 0)
EOF

kill -TERM "$route_pid"
wait "$route_pid" || { echo "mecsc_route did not drain cleanly" >&2; status=1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "mecsc_serve did not drain cleanly" >&2; status=1; }
pids=""
if [ "$status" -ne 0 ]; then
  echo "daemon_bounded FAILED" >&2
  exit 1
fi
echo "daemon_bounded OK"
