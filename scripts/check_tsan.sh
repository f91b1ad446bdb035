#!/usr/bin/env bash
# ThreadSanitizer gate for the thread-pool and service concurrency code.
#
# Configures a dedicated build tree with -DPGLB_SANITIZE=thread, builds the
# tsan- and fault-labelled test binaries, and runs `ctest -L "tsan|fault"` —
# the fault-injection suite exercises exactly the cross-thread cancellation
# and breaker paths tsan is here to watch.  Run from the repo root:
#
#   scripts/check_tsan.sh [build-dir]
#
# The build tree (default: build-tsan) is kept between runs for fast
# incremental re-checks.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DPGLB_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
# pglb_chaos/pglb_loadgen/pglb_serve back the fault-labelled chaos_drill and
# dynamic_drill, so the proxy's pump threads, the hardened transport, and the
# delta-planning path all run under tsan too.
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target test_thread_pool test_parallel_determinism test_service_server \
           test_obs_trace test_resilience test_service_resilience \
           test_fleet test_fleet_resilience test_autoscale test_replica_fleet \
           test_wire_server test_tcp_backend test_persist \
           test_wire test_netfault test_dynamic test_dynamic_protocol \
           test_proxy_suite test_planner_cache \
           pglb_chaos pglb_loadgen pglb_serve
ctest --test-dir "$BUILD_DIR" -L 'tsan|fault' --output-on-failure -j"$(nproc)"
echo "check_tsan: all tsan- and fault-labelled tests passed"
