#!/usr/bin/env bash
# Tier-1 verification: configure, build, run every test suite, smoke-test the
# end-to-end runtime (loopback harness AND the real-TCP kv_server), and re-configure
# the transport layer with warnings-as-errors. This is the gate every PR must keep
# green.
#
# Usage:
#   scripts/ci.sh                 # Release build in ./build
#   BUILD_DIR=out scripts/ci.sh   # custom build directory
#   CMAKE_ARGS="-DZYGOS_WERROR=ON" scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"

echo "== configure (${BUILD_DIR})"
# shellcheck disable=SC2086  # CMAKE_ARGS is intentionally word-split
cmake -B "${BUILD_DIR}" -S . ${CMAKE_ARGS:-}

echo "== build (-j${JOBS})"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== ctest"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "== perfbench selftest (the benchmark's own arithmetic tests)"
python3 perfbench/run.py --selftest

echo "== smoke: examples/quickstart"
"${BUILD_DIR}/examples/quickstart" --requests=5000 --rate=20000

echo "== smoke: examples/kv_server over real TCP (loopback interface)"
"${BUILD_DIR}/examples/kv_server" --requests=4000 --connections=8 --threads=2

echo "== smoke: bench/micro_dataplane (pooled path must stay allocation-free)"
dataplane_out="$("${BUILD_DIR}/bench/micro_dataplane" --requests=50000 --warmup=10000)"
printf '%s\n' "${dataplane_out}"
pooled_allocs="$(printf '%s\n' "${dataplane_out}" | awk -F, '$1 == "pooled" {print $3}')"
if [[ -z "${pooled_allocs}" ]] || ! awk -v a="${pooled_allocs}" 'BEGIN {exit !(a == 0)}'; then
  echo "ci: pooled data plane allocates (${pooled_allocs:-missing} allocs/op)" >&2
  exit 1
fi

echo "== smoke: bench/fig6_live_runtime (one low-load point, loopback, live runtime)"
live_json="${BUILD_DIR}/fig6_live_smoke.json"
rm -f "${live_json}"
# Capture-then-grep (NOT `| tee | grep -q`): under pipefail, grep -q exiting at
# the first match SIGPIPEs tee when the binary prints its headline later.
live_out="$("${BUILD_DIR}/bench/fig6_live_runtime" --transport=loopback \
  --configs=zygos --rates=1500 --duration-ms=400 --warmup-ms=100 \
  --dist=exponential --service-us=100 --service-mode=sleep --workers=2 \
  --connections=8 --seed=7 --json="${live_json}")"
printf '%s\n' "${live_out}"
printf '%s\n' "${live_out}" | grep -q '^zygos,' || {
    echo "ci: fig6_live_runtime emitted no zygos CSV row" >&2; exit 1; }
if command -v python3 > /dev/null; then
  python3 -m json.tool "${live_json}" > /dev/null || {
    echo "ci: ${live_json} is malformed JSON" >&2; exit 1; }
else
  grep -q '"metric": "live_zygos_p99_us_at_peak_load"' "${live_json}" || {
    echo "ci: ${live_json} is missing the live-runtime metric" >&2; exit 1; }
fi

echo "== smoke: bench/churn_live_runtime (one low churn rate, real TCP, small table)"
churn_json="${BUILD_DIR}/churn_smoke.json"
rm -f "${churn_json}"
churn_out="$("${BUILD_DIR}/bench/churn_live_runtime" --rate=1500 --churn-ms=30 \
  --duration-ms=600 --warmup-ms=200 --connections=4 --threads=2 --max-flows=16 \
  --seed=7 --json="${churn_json}")"
printf '%s\n' "${churn_out}"
printf '%s\n' "${churn_out}" | grep -q '^30,' || {
    echo "ci: churn_live_runtime emitted no churn CSV row" >&2; exit 1; }
if command -v python3 > /dev/null; then
  python3 -m json.tool "${churn_json}" > /dev/null || {
    echo "ci: ${churn_json} is malformed JSON" >&2; exit 1; }
fi
for gate in distinct_conns_exceed_capacity zero_capacity_refusals \
            flat_table_occupancy allocation_free_after_warmup; do
  grep -q "\"${gate}\": true" "${churn_json}" || {
    echo "ci: churn acceptance boolean ${gate} is not true" >&2; exit 1; }
done

echo "== smoke: bench/fanout_chaos (fan-out amplification through the chaos proxy)"
fanout_json="${BUILD_DIR}/fanout_smoke.json"
rm -f "${fanout_json}"
# --steal-compare=false keeps the smoke short; its boolean is then vacuously true
# and recorded as such in params ("steal_compare": false).
fanout_out="$("${BUILD_DIR}/bench/fanout_chaos" --fanouts=1,8 --logical-rate=150 \
  --duration-ms=1000 --warmup-ms=250 --steal-compare=false --seed=7 \
  --json="${fanout_json}")"
printf '%s\n' "${fanout_out}"
printf '%s\n' "${fanout_out}" | grep -q '^proxy,' || {
    echo "ci: fanout_chaos emitted no through-proxy CSV row" >&2; exit 1; }
if command -v python3 > /dev/null; then
  python3 -m json.tool "${fanout_json}" > /dev/null || {
    echo "ci: ${fanout_json} is malformed JSON" >&2; exit 1; }
fi
for gate in p99_amplification_monotone_in_fanout steal_leq_no_steal_under_jitter \
            all_runs_clean; do
  grep -q "\"${gate}\": true" "${fanout_json}" || {
    echo "ci: fanout acceptance boolean ${gate} is not true" >&2; exit 1; }
done

echo "== smoke: bench/fig10_live_runtime (one low-load TPC-C cell, loopback)"
# One sub-saturated zygos cell over the live TPC-C service: the ledger must balance
# exactly (commit+abort+shed+lost == sent, zero malformed) even in a 400 ms window.
# The monotone/steal booleans are vacuously true with a single rate and config; the
# ledger boolean is the real gate here.
fig10_json="${BUILD_DIR}/fig10_live_smoke.json"
rm -f "${fig10_json}"
fig10_out="$("${BUILD_DIR}/bench/fig10_live_runtime" --transport=loopback \
  --configs=zygos --rates=1200 --duration-ms=400 --warmup-ms=100 --workers=2 \
  --warehouses=1 --scale=tiny --seed=7 --json="${fig10_json}")"
printf '%s\n' "${fig10_out}"
printf '%s\n' "${fig10_out}" | grep -q '^zygos,' || {
    echo "ci: fig10_live_runtime emitted no zygos CSV row" >&2; exit 1; }
if command -v python3 > /dev/null; then
  python3 -m json.tool "${fig10_json}" > /dev/null || {
    echo "ci: ${fig10_json} is malformed JSON" >&2; exit 1; }
fi
for gate in zygos_p99_monotone_in_load steal_leq_no_steal_at_peak ledger_balanced; do
  grep -q "\"${gate}\": true" "${fig10_json}" || {
    echo "ci: fig10 acceptance boolean ${gate} is not true" >&2; exit 1; }
done

echo "== smoke: bench/overload_live_runtime (one 2x-overload cell, real TCP)"
# Short-window overload smoke: calibrate, then a 0.8x cell (must shed nothing) and a
# 2x cell (zygos must hold goodput while no-shed collapses). The binary exits
# non-zero if any acceptance boolean fails, so `set -e` is the gate; the JSON is
# validated on top. 1200 ms cells, not shorter: the SLO is derived from the 0.8x
# baseline p99, which host noise can inflate 2-3x on an oversubscribed box — the
# no-shed backlog delay (~0.5x elapsed time at 2x offered) must still clearly
# exceed that inflated SLO inside the window or no_shed_collapses goes flaky.
overload_json="${BUILD_DIR}/overload_smoke.json"
rm -f "${overload_json}"
overload_out="$("${BUILD_DIR}/bench/overload_live_runtime" --workers=2 \
  --connections=8 --threads=2 --service-us=1000 --multipliers=0.8,2 \
  --duration-ms=1200 --warmup-ms=150 --seed=7 --json="${overload_json}")" || {
    # Print what the binary got through before the failing boolean killed it —
    # `set -e` on the bare substitution would otherwise swallow every CSV row.
    printf '%s\n' "${overload_out}"
    echo "ci: overload_live_runtime exited non-zero (an acceptance boolean failed)" >&2
    exit 1; }
printf '%s\n' "${overload_out}"
printf '%s\n' "${overload_out}" | grep -q '^zygos,2\.00,' || {
    echo "ci: overload_live_runtime emitted no 2x zygos CSV row" >&2; exit 1; }
if command -v python3 > /dev/null; then
  python3 -m json.tool "${overload_json}" > /dev/null || {
    echo "ci: ${overload_json} is malformed JSON" >&2; exit 1; }
fi
for gate in goodput_at_2x_geq_090_peak no_shed_collapses \
            zero_sheds_below_saturation ledger_balanced; do
  grep -q "\"${gate}\": true" "${overload_json}" || {
    echo "ci: overload acceptance boolean ${gate} is not true" >&2; exit 1; }
done

echo "== smoke: kv_server serve -> chaos_proxy -> open-loop loadgen over real TCP"
# The full degraded-network pipeline as three separate processes: the loadgen dials
# the PROXY port, every byte crosses the injected jitter, and the run must still
# complete cleanly (the loadgen exits non-zero on a dirty run).
"${BUILD_DIR}/examples/kv_server" --mode=serve --port=7411 --workers=2 --keys=5000 &
kv_pid=$!
trap 'kill "${kv_pid}" 2>/dev/null || true' EXIT
sleep 1
"${BUILD_DIR}/examples/chaos_proxy" --listen-port=7412 --upstream-port=7411 \
  --s2c=uniform:50:200 --seed=7 --stats-interval-s=0 &
proxy_pid=$!
trap 'kill "${proxy_pid}" "${kv_pid}" 2>/dev/null || true' EXIT
sleep 1
"${BUILD_DIR}/examples/kv_server" --mode=loadgen --port=7412 --rate=3000 \
  --duration-ms=600 --warmup-ms=200 --connections=4 --threads=2 --keys=5000
kill -TERM "${proxy_pid}"
wait "${proxy_pid}"
kill -TERM "${kv_pid}"
wait "${kv_pid}"
trap - EXIT

echo "== smoke: kv_server serve (uring transport) -> open-loop loadgen over real TCP"
# Same serve->loadgen pipeline on the io_uring backend. Gated on the runtime probe
# (io_uring_setup may be denied by seccomp/container policy): an ineligible host
# prints the skip and stays green, a capable host must pass.
if "${BUILD_DIR}/bench/fig6_live_runtime" --probe-uring; then
  "${BUILD_DIR}/examples/kv_server" --mode=serve --transport=uring --port=7413 \
    --workers=2 --keys=5000 &
  kv_pid=$!
  trap 'kill "${kv_pid}" 2>/dev/null || true' EXIT
  sleep 1
  "${BUILD_DIR}/examples/kv_server" --mode=loadgen --port=7413 --rate=3000 \
    --duration-ms=600 --warmup-ms=200 --connections=4 --threads=2 --keys=5000
  kill -TERM "${kv_pid}"
  wait "${kv_pid}"
  trap - EXIT
else
  echo "ci: skipping uring smoke (io_uring unavailable on this host)"
fi

echo "== smoke: uring feature ladder (per-feature, probe-gated)"
# One in-process demo smoke per granted io_uring feature, each with ONLY that
# feature requested, so a rung-specific regression cannot hide behind the other
# rungs. The probe's second line must read "io_uring: features multishot=D
# sqpoll=D"; a denied feature skips green. The smoke asserts the server's own
# feature-engagement line echoes exactly the requested set — a silently-degraded
# rung fails here, not in a benchmark.
probe_features="$("${BUILD_DIR}/bench/fig6_live_runtime" --probe-uring | sed -n 2p || true)"
if [[ -n "${probe_features}" ]] && \
    ! [[ "${probe_features}" =~ ^io_uring:\ features\ multishot=[01]\ sqpoll=[01]$ ]]; then
  echo "ci: unexpected --probe-uring feature line: ${probe_features}" >&2
  exit 1
fi
run_uring_feature_smoke() {
  local label="$1" ms="$2" sqp="$3"
  if [[ "${probe_features}" == *"${label}=1"* ]]; then
    smoke_out="$("${BUILD_DIR}/examples/kv_server" --mode=demo --transport=uring \
      --uring-multishot="${ms}" --uring-sqpoll="${sqp}" \
      --workers=2 --keys=2000 --requests=3000 --connections=4 --threads=2)"
    printf '%s\n' "${smoke_out}" | grep "io syscalls"
    if ! printf '%s\n' "${smoke_out}" | \
        grep -q "uring features multishot=${ms} sqpoll=${sqp}$"; then
      echo "ci: uring ${label} smoke did not engage the requested feature set" >&2
      exit 1
    fi
  else
    echo "ci: skipping uring ${label} smoke (kernel denies ${label})"
  fi
}
if [[ -n "${probe_features}" ]]; then
  run_uring_feature_smoke multishot 1 0
  run_uring_feature_smoke sqpoll 0 1
else
  echo "ci: skipping uring feature smokes (io_uring unavailable on this host)"
fi

echo "== smoke: silo_tpcc serve -> TPC-C open-loop loadgen -> SIGTERM over real TCP"
# The second real workload end to end as two processes: a TPC-C server on a fresh
# port, a seeded wire-protocol loadgen dialing it (exits non-zero on a dirty run or a
# leaked request), then a clean SIGTERM shutdown whose final ledger must balance.
"${BUILD_DIR}/examples/silo_tpcc" --mode=serve --port=7414 --workers=2 \
  --warehouses=1 --scale=tiny &
tpcc_pid=$!
trap 'kill "${tpcc_pid}" 2>/dev/null || true' EXIT
sleep 1
"${BUILD_DIR}/examples/silo_tpcc" --mode=loadgen --port=7414 --rate=2000 \
  --duration-ms=600 --warmup-ms=200 --connections=4 --threads=2 --seed=7
kill -TERM "${tpcc_pid}"
wait "${tpcc_pid}"
trap - EXIT

echo "== warnings-as-errors configure of the transport layer (${BUILD_DIR}-werror)"
cmake -B "${BUILD_DIR}-werror" -S . -DZYGOS_WERROR=ON \
  -DZYGOS_BUILD_BENCH=OFF -DZYGOS_BUILD_EXAMPLES=OFF -DZYGOS_BUILD_TESTS=OFF
cmake --build "${BUILD_DIR}-werror" -j "${JOBS}" --target zygos_runtime

echo "== AddressSanitizer: runtime + loadgen + chaos + transport suites (${BUILD_DIR}-asan)"
# Lifecycle refactors are use-after-free factories: the connection slot table hands
# PCBs to thieves, recycles them behind generation tags and reuses freed flow ids —
# ASan over the runtime + loadgen suites is the gate that a teardown race never
# touches recycled memory. chaos_test rides along: the proxy's kill/stall paths
# destroy connections with chunks still parked in the timing wheel, and its replay
# determinism (SameSeedReplaysIdenticalDelaySchedule) is asserted under ASan too.
# transport_conformance_test runs the same lifecycle battery over all backends —
# including the full uring feature matrix (multishot x sqpoll, kernel-supported
# combos only); for uring that is the gate that a kernel-owned completion
# (multishot recv into a buffer-ring slot, pooled recv, straggler send) never
# lands in freed buffers after a sever or shutdown. overload_test rides along:
# a shed reply is a TX buffer for a request that never reached the handler, and the
# gated-handler test holds a shed in flight across a flow recycle — the exact window
# where a refused event's buffer could be freed twice or leak. tpcc_test + net_test
# ride along for the TPC-C wire service: the consistency battery drives concurrent
# OCC commits through pooled executors (read-set pointers into recycled records), and
# the decode fuzz sweep must prove DecodeTpccRequest never reads out of bounds.
cmake -B "${BUILD_DIR}-asan" -S . -DZYGOS_BUILD_BENCH=OFF -DZYGOS_BUILD_EXAMPLES=OFF \
  -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
cmake --build "${BUILD_DIR}-asan" -j "${JOBS}" --target runtime_test loadgen_test \
  chaos_test transport_conformance_test overload_test tpcc_test net_test
# Leak checking stays ON; only the by-design thread-pool leak is suppressed
# (scripts/lsan.supp) — a leaked connection or socket wrapper still fails.
# --repeat until-pass:2: ASan slows the whole pipeline severalfold, which puts
# the suites' real-time assertions (deadline-shed budgets, stall deadlines) one
# ambient scheduler stall away from a false positive on an oversubscribed host.
# One retry absorbs a single stall; a deterministic regression fails both runs.
LSAN_OPTIONS="suppressions=$(pwd)/scripts/lsan.supp" \
  ctest --test-dir "${BUILD_DIR}-asan" \
  -R 'runtime_test|loadgen_test|chaos_test|transport_conformance_test|overload_test|tpcc_test|net_test' \
  --output-on-failure -j "${JOBS}" --repeat until-pass:2

echo "CI OK"
