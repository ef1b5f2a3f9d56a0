#!/usr/bin/env bash
# Builds the service benchmark (the repository's libraries, mecsc_serve,
# mecsc_route and the svcbench driver) from this checkout's sources into
# .bench_build/svcbench, then runs the driver with the given arguments:
#
#   bash svcbench/run.sh --workload hit_large --seed 1 --seconds 30 --trace 0
#   bash svcbench/run.sh --selftest
#
# Build output goes to stderr, so the driver's last stdout line is its
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
build=.bench_build/svcbench
if [ ! -f "$build/Makefile" ]; then
  cmake -S svcbench -B "$build" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" >&2
exec "$build/svcbench" "$@"
