#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer gate.
#
# Configures a dedicated build tree with -DPGLB_SANITIZE=address,undefined
# (UBSan findings abort instead of printing and carrying on), builds the
# tsan- and fault-labelled test binaries plus the profile-store suites, and
# runs `ctest -L "tsan|fault"` followed by the store suites.  The labelled
# suites cover the worker pool, the service and fleet transport, snapshots
# and fault injection; the store suites cover the TimeDatabase, its TSV
# loader and the profiler that fills it.  Run from the repo root:
#
#   scripts/check_asan.sh [build-dir]
#
# The build tree (default: build-asan) is kept between runs for fast
# incremental re-checks.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DPGLB_SANITIZE=address,undefined \
  -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
# pglb_chaos/pglb_loadgen/pglb_serve back the fault-labelled chaos_drill and
# dynamic_drill, so the proxy, the hardened transport and the delta-planning
# path run instrumented too.
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target test_thread_pool test_parallel_determinism test_service_server \
           test_obs_trace test_resilience test_service_resilience \
           test_fleet test_fleet_resilience test_autoscale test_replica_fleet \
           test_wire_server test_tcp_backend test_persist \
           test_wire test_netfault test_dynamic test_dynamic_protocol \
           test_proxy_suite test_planner_cache \
           test_time_database test_profiler test_estimators \
           pglb_chaos pglb_loadgen pglb_serve
ctest --test-dir "$BUILD_DIR" -L 'tsan|fault' --output-on-failure -j"$(nproc)"
# The profile-store suites: test_time_database, test_profiler (which also
# holds the OnlineCcr incremental-profiling tests) and test_estimators.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" \
  -R '^(TimeDatabase|ProfileSingleMachine|ProfileCluster|ProfileGroupsOnGraph|OnlineCcr|UniformEstimator|ThreadCountEstimator|Estimators|AllApps/EstimatorAccuracy)\.'
echo "check_asan: all tsan- and fault-labelled tests and the store suites passed"
