#!/usr/bin/env bash
# Tier-1 verification: configure, build, run every test suite, smoke-test the
# end-to-end runtime (loopback harness AND the real-TCP kv_server), and rebuild the
# whole tree (libraries, tests, benches, examples) with warnings-as-errors. This is
# the gate every PR must keep green.
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

# smoke_live <binary> <csv_row_regex> [args...]: one short run of a live bench. It
# must print a CSV row matching the regex, write a parseable BENCH JSON, pass every
# gate its params.gates lists (scripts/check_gates.py) and exit 0 — the binary
# exits 1 iff a gate is false (the shared harness, src/loadgen/experiment.h).
smoke_live() {
  local bin="$1" row="$2" status=0 out
  shift 2
  local json="${BUILD_DIR}/${bin}_smoke.json"
  echo "== smoke: bench/${bin}"
  rm -f "${json}"
  # Capture-then-grep (NOT `| tee | grep -q`): under pipefail, grep -q exiting at
  # the first match SIGPIPEs tee when the binary prints its headline later. The
  # `|| status` keeps the CSV rows printed when a failing gate fails the run.
  out="$("${BUILD_DIR}/bench/${bin}" "$@" --json="${json}")" || status=$?
  printf '%s\n' "${out}"
  printf '%s\n' "${out}" | grep -qE "${row}" || {
      echo "ci: ${bin} emitted no CSV row matching ${row}" >&2; exit 1; }
  python3 scripts/check_gates.py "${json}" || exit 1
  (( status == 0 )) || { echo "ci: ${bin} exited ${status}" >&2; exit 1; }
}

# One low-load point, loopback, live runtime.
smoke_live fig6_live_runtime '^zygos,' --transport=loopback --configs=zygos \
  --rates=1500 --duration-ms=400 --warmup-ms=100 --dist=exponential \
  --service-us=100 --service-mode=sleep --workers=2 --connections=8 --seed=7
# One low churn rate, real TCP, small table.
smoke_live churn_live_runtime '^30,' --rate=1500 --churn-ms=30 --duration-ms=600 \
  --warmup-ms=200 --connections=4 --threads=2 --max-flows=16 --seed=7
# Fan-out amplification through the chaos proxy. --steal-compare=false keeps the
# smoke short; its gate is then vacuously true and recorded as such in params
# ("steal_compare": false).
smoke_live fanout_chaos '^proxy,' --fanouts=1,8 --logical-rate=150 \
  --duration-ms=1000 --warmup-ms=250 --steal-compare=false --seed=7
# One sub-saturated zygos cell over the live TPC-C service: the ledger must balance
# exactly (commit+abort+shed+lost == sent, zero malformed) even in a 400 ms window.
# The monotone/steal gates are vacuously true with a single rate and config; the
# ledger gate is the real one here.
smoke_live fig10_live_runtime '^zygos,' --transport=loopback --configs=zygos \
  --rates=1200 --duration-ms=400 --warmup-ms=100 --workers=2 --warehouses=1 \
  --scale=tiny --seed=7
# Short-window overload smoke: calibrate, then a 0.8x cell (must shed nothing) and a
# 2x cell (zygos must hold goodput while no-shed collapses). 1200 ms cells, not
# shorter: the SLO is derived from the 0.8x baseline p99, which host noise can
# inflate 2-3x on an oversubscribed box — the no-shed backlog delay (~0.5x elapsed
# time at 2x offered) must still clearly exceed that inflated SLO inside the window
# or no_shed_collapses goes flaky.
smoke_live overload_live_runtime '^zygos,2\.00,' --workers=2 --connections=8 \
  --threads=2 --service-us=1000 --multipliers=0.8,2 --duration-ms=1200 \
  --warmup-ms=150 --seed=7

echo "== smoke: kv_server demo, pipelined (--pipeline=32), epoll transport"
# 32 requests in flight per connection make TX batches carry several responses per
# flow, which the transport sends as one gather op; the demo exits non-zero on any
# order violation or missing response.
"${BUILD_DIR}/examples/kv_server" --requests=20000 --connections=8 --threads=2 \
  --pipeline=32 --transport=tcp

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
# prints the skip and stays green, a capable host must pass. The probe prints one
# line, "io_uring: available" or "io_uring: unavailable: <reason>".
probe_line="$("${BUILD_DIR}/bench/fig6_live_runtime" --probe-uring || true)"
printf '%s\n' "${probe_line}"
if ! [[ "${probe_line}" =~ ^io_uring:\ (available|unavailable:\ .+)$ ]]; then
  echo "ci: unexpected --probe-uring output: ${probe_line}" >&2
  exit 1
fi
if [[ "${probe_line}" == "io_uring: available" ]]; then
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
  echo "== smoke: kv_server demo, pipelined (--pipeline=32), uring transport"
  "${BUILD_DIR}/examples/kv_server" --requests=20000 --connections=8 --threads=2 \
    --pipeline=32 --transport=uring
else
  echo "# skip: uring serve->loadgen and pipelined demo smokes (io_uring unavailable)"
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

echo "== smoke: bench/fig10a_silo_ccdf --quick (full-scale TPC-C, one and two threads)"
# The Silo index on a full-scale 1-warehouse database whose tables keep growing, not
# only on unit-test sizes: a single-thread run, then two threads sharing the tables.
fig10a_out="$("${BUILD_DIR}/bench/fig10a_silo_ccdf" --quick)"
printf '%s\n' "${fig10a_out}"
printf '%s\n' "${fig10a_out}" | grep -q '^# 2-thread rate' || {
    echo "ci: fig10a_silo_ccdf printed no 2-thread rate" >&2; exit 1; }

echo "== warnings-as-errors build of the whole tree (${BUILD_DIR}-werror)"
cmake -B "${BUILD_DIR}-werror" -S . -DZYGOS_WERROR=ON
cmake --build "${BUILD_DIR}-werror" -j "${JOBS}"

echo "== AddressSanitizer: runtime + loadgen + chaos + transport suites (${BUILD_DIR}-asan)"
# Lifecycle refactors are use-after-free factories: the connection slot table hands
# PCBs to thieves, recycles them behind generation tags and reuses freed flow ids —
# ASan over the runtime + loadgen suites is the gate that a teardown race never
# touches recycled memory. chaos_test rides along: the proxy's kill/stall paths
# destroy connections with chunks still parked in the timing wheel, and its replay
# determinism (SameSeedReplaysIdenticalDelaySchedule) is asserted under ASan too.
# transport_conformance_test runs the same lifecycle battery over all backends
# (loopback, tcp, uring); for uring that is the gate that a kernel-owned completion
# (pooled recv, straggler send) never lands in freed buffers after a sever or
# shutdown. overload_test rides along:
# a shed reply is a TX buffer for a request that never reached the handler, and the
# gated-handler test holds a shed in flight across a flow recycle — the exact window
# where a refused event's buffer could be freed twice or leak. tpcc_test + net_test
# ride along for the TPC-C wire service: the consistency battery drives concurrent
# OCC commits through pooled executors (read-set pointers into recycled records), and
# the decode fuzz sweep must prove DecodeTpccRequest never reads out of bounds.
# db_test rides along for the Silo layer's unlocked scans: record pointers and keys
# handed out of a released index chunk must stay valid across concurrent erases.
cmake -B "${BUILD_DIR}-asan" -S . -DZYGOS_BUILD_BENCH=OFF -DZYGOS_BUILD_EXAMPLES=OFF \
  -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
cmake --build "${BUILD_DIR}-asan" -j "${JOBS}" --target runtime_test loadgen_test \
  chaos_test transport_conformance_test overload_test tpcc_test net_test db_test
# Leak checking stays ON; only the by-design thread-pool leak is suppressed
# (scripts/lsan.supp) — a leaked connection or socket wrapper still fails.
# --repeat until-pass:2: ASan slows the whole pipeline severalfold, which puts
# the suites' real-time assertions (deadline-shed budgets, stall deadlines) one
# ambient scheduler stall away from a false positive on an oversubscribed host.
# One retry absorbs a single stall; a deterministic regression fails both runs.
LSAN_OPTIONS="suppressions=$(pwd)/scripts/lsan.supp" \
  ctest --test-dir "${BUILD_DIR}-asan" \
  -R 'runtime_test|loadgen_test|chaos_test|transport_conformance_test|overload_test|tpcc_test|net_test|db_test' \
  --output-on-failure -j "${JOBS}" --repeat until-pass:2

echo "== UndefinedBehaviorSanitizer: wire-decoder suites (${BUILD_DIR}-ubsan)"
# The decoders parse bytes from the network: a length or count taken from the wire
# that overflows, shifts out of range or indexes past a buffer is UB that a normal
# build may silently survive. net_test (frame parsing), tpcc_test (the TPC-C request
# decode fuzz sweep) and kvstore_test (the KV protocol) drive every decoder path;
# -fno-sanitize-recover makes the first report fatal.
cmake -B "${BUILD_DIR}-ubsan" -S . -DZYGOS_BUILD_BENCH=OFF -DZYGOS_BUILD_EXAMPLES=OFF \
  -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=undefined" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined"
cmake --build "${BUILD_DIR}-ubsan" -j "${JOBS}" --target net_test tpcc_test kvstore_test
ctest --test-dir "${BUILD_DIR}-ubsan" -R 'net_test|tpcc_test|kvstore_test' \
  --output-on-failure -j "${JOBS}"

echo "== ThreadSanitizer: lock-free queues, core scheduler, Silo layer (${BUILD_DIR}-tsan)"
# The MPMC/SPSC rings and the core scheduler are where a missing acquire/release or
# a plain access racing an atomic one would hide: a normal build on x86 forgives
# most of them. db_test and tpcc_test cover the Silo layer two workers share: the
# index's spin RW lock and unlocked chunked scans, the record's TID seqlock (row words
# copied between two TID loads, and a torn-read stress test), and concurrent OCC
# commits. No suppressions: any report fails the suite (TSan exits non-zero when it
# reported a race). -Werror=tsan rejects std::atomic_thread_fence, which TSan does not
# model: code this leg checks must order its accesses with the atomics themselves.
cmake -B "${BUILD_DIR}-tsan" -S . -DZYGOS_BUILD_BENCH=OFF -DZYGOS_BUILD_EXAMPLES=OFF \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -Werror=tsan" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "${BUILD_DIR}-tsan" -j "${JOBS}" --target concurrency_test core_test \
  db_test tpcc_test
ctest --test-dir "${BUILD_DIR}-tsan" -R 'concurrency_test|core_test|db_test|tpcc_test' \
  --output-on-failure -j "${JOBS}"

echo "CI OK"
