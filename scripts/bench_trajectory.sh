#!/usr/bin/env bash
# Longitudinal benchmark harness (the `BENCH_*.json` contract from bench/README.md).
#
# Runs the fixed trajectory subset — fig8_steal_rate, fig6_latency_throughput and
# micro_dataplane — on their fixed seeds, parses the stable CSV from stdout, and
# writes one BENCH_<name>.json per binary ({metric, value, unit, commit, params}) so
# successive commits can be compared for regressions in steal-path behaviour,
# max-load@SLO and data-plane cost. The DES-side experiments are deterministic for a
# fixed seed and host-independent; micro_dataplane's ns/op is host-dependent but its
# allocs/op (tracked in params) is exact and must stay 0.
#
# Usage:
#   scripts/bench_trajectory.sh [out_dir]       # default out_dir: bench
#   BUILD_DIR=build BENCH_REQUESTS=20000 BENCH_POINTS=6 scripts/bench_trajectory.sh
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${1:-bench}"
REQUESTS="${BENCH_REQUESTS:-20000}"
POINTS="${BENCH_POINTS:-6}"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

# Host tunings active during this run (scripts/tune_env.sh state file): stamped into
# every BENCH_*.json so recorded numbers never silently mix tuned and untuned hosts.
TUNE_STATE="${TUNE_STATE:-/tmp/zygos_tune_env.state}"
if [[ -s "${TUNE_STATE}" ]]; then
  ENV_TUNINGS="$(paste -sd, "${TUNE_STATE}")"
else
  ENV_TUNINGS="none"
fi
echo "bench_trajectory: env_tunings=${ENV_TUNINGS}"

# stamp_json <file>: fill in the commit and prepend env_tunings to the params block
# of a binary-written BENCH JSON.
stamp_json() {
  sed -i "s/\"commit\": \"\"/\"commit\": \"${COMMIT}\"/" "$1"
  sed -i "s/\"params\": {/\"params\": {\\n    \"env_tunings\": \"${ENV_TUNINGS}\",/" "$1"
}

for bin in fig8_steal_rate fig6_latency_throughput micro_dataplane fig6_live_runtime \
           churn_live_runtime fanout_chaos overload_live_runtime fig10_live_runtime; do
  if [[ ! -x "${BUILD_DIR}/bench/${bin}" ]]; then
    echo "bench_trajectory: ${BUILD_DIR}/bench/${bin} not built (run cmake --build first)" >&2
    exit 1
  fi
done
mkdir -p "${OUT_DIR}"

# --- fig8: peak ZygOS steal rate -------------------------------------------------------
# CSV contract: system,load,throughput_mrps,steals_per_event_pct,ipis
echo "== fig8_steal_rate (requests=${REQUESTS}, points=${POINTS})"
fig8_csv="$("${BUILD_DIR}/bench/fig8_steal_rate" --requests="${REQUESTS}" --points="${POINTS}")"
peak_steal="$(printf '%s\n' "${fig8_csv}" | awk -F, '
  $1 == "ZygOS" && NF >= 4 { found = 1; if ($4 + 0 > max) max = $4 + 0 }
  END { if (found) printf "%.2f", max }')"
if [[ -z "${peak_steal}" ]]; then
  echo "bench_trajectory: no ZygOS rows in fig8 output — the CSV contract changed?" >&2
  exit 1
fi
cat > "${OUT_DIR}/BENCH_fig8_steal_rate.json" <<EOF
{
  "metric": "zygos_peak_steal_rate",
  "value": ${peak_steal},
  "unit": "steals_per_event_pct",
  "commit": "${COMMIT}",
  "params": {"requests": ${REQUESTS}, "points": ${POINTS}, "mean_us": 25, "seed": 51,
             "env_tunings": "${ENV_TUNINGS}"}
}
EOF
echo "   zygos_peak_steal_rate = ${peak_steal} %  -> ${OUT_DIR}/BENCH_fig8_steal_rate.json"

# --- fig6: ZygOS fraction of the theoretical max load at SLO ---------------------------
# Headline contract: "# headline: ZygOS max load L = P% of theoretical T (paper: ...)";
# the first headline is the 10 us exponential case (the paper's §6.1 primary claim).
echo "== fig6_latency_throughput (requests=${REQUESTS}, points=${POINTS})"
fig6_out="$("${BUILD_DIR}/bench/fig6_latency_throughput" --requests="${REQUESTS}" --points="${POINTS}")"
frac="$(printf '%s\n' "${fig6_out}" | sed -nE 's/^# headline: ZygOS max load [0-9.]+ = ([0-9]+)% of theoretical.*/\1/p' | head -1)"
if [[ -z "${frac}" ]]; then
  echo "bench_trajectory: fig6 headline line missing — the stdout contract changed?" >&2
  exit 1
fi
cat > "${OUT_DIR}/BENCH_fig6_latency_throughput.json" <<EOF
{
  "metric": "zygos_frac_of_theoretical_max_load",
  "value": ${frac},
  "unit": "percent",
  "commit": "${COMMIT}",
  "params": {"requests": ${REQUESTS}, "points": ${POINTS}, "distribution": "exponential", "mean_us": 10, "slo": "10x_mean", "seed": 35, "env_tunings": "${ENV_TUNINGS}"}
}
EOF
echo "   zygos_frac_of_theoretical_max_load = ${frac} %  -> ${OUT_DIR}/BENCH_fig6_latency_throughput.json"

# --- micro_dataplane: ns/op and allocs/op for one echo RPC, string vs pooled -----------
# CSV contract: path,ns_per_op,allocs_per_op with rows `string` and `pooled`.
# Median-of-3 on the speedup (same rationale as fig6_live's --cell-repeats=3): on an
# oversubscribed host the string path's 4 mallocs/op book scheduler stalls into a
# single run's ns/op — observed single-run speedups swing 0.8x-1.5x while the pooled
# ns/op barely moves. The median run discards the one-off in either direction; a
# real fast-path regression shifts all three runs.
echo "== micro_dataplane (requests=200000, median of 3)"
dp_runs=()
dp_speedups=()
for i in 1 2 3; do
  dp_runs[i]="$("${BUILD_DIR}/bench/micro_dataplane" --requests=200000 --warmup=20000)"
  p="$(printf '%s\n' "${dp_runs[i]}" | awk -F, '$1 == "pooled" {print $2}')"
  s="$(printf '%s\n' "${dp_runs[i]}" | awk -F, '$1 == "string" {print $2}')"
  if [[ -z "${p}" || -z "${s}" ]]; then
    echo "bench_trajectory: micro_dataplane rows missing — the CSV contract changed?" >&2
    exit 1
  fi
  dp_speedups[i]="$(awk -v s="${s}" -v p="${p}" 'BEGIN {printf "%.2f", s / p}')"
done
median_i="$(for i in 1 2 3; do echo "${dp_speedups[i]} ${i}"; done | sort -n | awk 'NR == 2 {print $2}')"
dp_csv="${dp_runs[median_i]}"
speedup="${dp_speedups[median_i]}"
pooled_ns="$(printf '%s\n' "${dp_csv}" | awk -F, '$1 == "pooled" {print $2}')"
pooled_allocs="$(printf '%s\n' "${dp_csv}" | awk -F, '$1 == "pooled" {print $3}')"
string_ns="$(printf '%s\n' "${dp_csv}" | awk -F, '$1 == "string" {print $2}')"
string_allocs="$(printf '%s\n' "${dp_csv}" | awk -F, '$1 == "string" {print $3}')"
# The pooled fast path measures 1.2-1.3x the string path on this host; gate well
# below that (1.05) so the trajectory catches a real fast-path regression (the
# pre-inline state was 0.96x) without flaking on run-to-run ns/op jitter.
if awk -v s="${speedup}" 'BEGIN {exit !(s < 1.05)}'; then
  echo "bench_trajectory: pooled data plane (${speedup}x string) lost its edge — small-class fast-path regression?" >&2
  exit 1
fi
dp_json="$(cat <<EOF
{
  "metric": "dataplane_pooled_echo_ns_per_op",
  "value": ${pooled_ns},
  "unit": "ns_per_op",
  "commit": "${COMMIT}",
  "params": {"requests": 200000, "warmup": 20000, "payload": 32,
             "pooled_allocs_per_op": ${pooled_allocs}, "string_ns_per_op": ${string_ns},
             "string_allocs_per_op": ${string_allocs}, "speedup_vs_string": ${speedup},
             "env_tunings": "${ENV_TUNINGS}"}
}
EOF
)"
printf '%s\n' "${dp_json}" > "${OUT_DIR}/BENCH_micro_dataplane.json"
# PR-numbered snapshot: this refactor's acceptance record (pooled vs string).
printf '%s\n' "${dp_json}" > "${OUT_DIR}/BENCH_0003.json"
echo "   dataplane_pooled_echo_ns_per_op = ${pooled_ns} ns (string ${string_ns} ns, ${speedup}x, ${pooled_allocs} allocs/op) -> ${OUT_DIR}/BENCH_micro_dataplane.json"

# --- fig6_live: the LIVE runtime under open-loop load, all transports + uring ladder --
# The binary itself writes the BENCH-contract JSON (src/loadgen/report.h), including
# the acceptance booleans; this script stamps the commit and gates on them.
# Wall-clock latencies are host-dependent; the *relative* curves (monotone-in-load
# p99, stealing <= no-steal at the peak load, uring <= epoll at matched load, uring
# syscalls/request below epoll's, and the io_uring feature ladder's rung-by-rung
# syscall staircase) are the tracked invariants. tcp leads the transport list so the
# calibrated rate list comes from a socket backend and every transport then sweeps
# the same absolute rates (matched-load uring-vs-epoll and rung-vs-rung cells). The
# sleep-mode service keeps the scheduling policies distinguishable on CI hosts with
# fewer hardware threads than workers (see src/loadgen/spin_service.h). A host
# without io_uring drops those legs (the binary prints `# skip:` per rung, likewise
# for rungs whose feature the kernel denies) and every uring boolean holds
# vacuously. params.perf_counters carries per-request cycles/instructions/
# cache-misses when perf_event_open works, with available=false + reason otherwise.
# 3000ms/point: at the lowest swept rate (~1000 rps) a cell needs ~3k completions
# for the p99 to rest on ~30 samples — 1500ms cells made the monotonicity gate a
# coin flip on oversubscribed single-CPU hosts.
LIVE_DURATION_MS="${BENCH_LIVE_DURATION_MS:-3000}"
echo "== fig6_live_runtime (live data plane, tcp+uring ladder+loopback, duration=${LIVE_DURATION_MS}ms/point)"
live_json="${OUT_DIR}/BENCH_fig6_live.json"
# 0.2..0.8 of the calibrated peak (not the default 0.95 top point): calibration is a
# single overload cell whose peak estimate swings ~15% run to run, and the rate list
# comes from the FASTEST backend (tcp) while the slowest (loopback) peaks lower — at
# 0.95 an optimistic calibration pushes cells past saturation, where open-loop p99
# measures queue growth, not the scheduler. 0.8 keeps every transport sub-saturated.
# --cell-repeats=3: median-of-3 per cell (and for the calibration probe). On a host
# where the loadgen and the server share cores, a single scheduler stall books tens
# of ms into one cell's p99 (CO-safe accounting must count it); the median row
# discards the one-off without biasing the curve.
# Transport list = epoll reference, the three io_uring ladder rungs ("uring" is the
# rung-0 baseline with multishot and SQPOLL off: one pooled recv armed per
# connection), and loopback.
"${BUILD_DIR}/bench/fig6_live_runtime" \
  --transport=tcp,uring,uring+ms,uring+ms+sqp,loopback \
  --dist=exponential --service-us=300 --service-mode=sleep --workers=2 \
  --connections=16 --load-fractions=0.2,0.4,0.6,0.8 --cell-repeats=3 \
  --duration-ms="${LIVE_DURATION_MS}" --warmup-ms=400 --seed=3 \
  --json="${live_json}"
stamp_json "${live_json}"
if ! grep -q '"zygos_p99_monotone_in_load": true' "${live_json}"; then
  echo "bench_trajectory: live zygos p99 is not monotone in load — noisy host or regression; rerun or investigate" >&2
  exit 1
fi
if ! grep -q '"steal_leq_no_steal_at_peak": true' "${live_json}"; then
  echo "bench_trajectory: stealing did not beat no-steal at the peak load point — regression in the steal path?" >&2
  exit 1
fi
if ! grep -q '"uring_p99_leq_epoll_at_peak": true' "${live_json}"; then
  echo "bench_trajectory: uring p99 exceeded epoll at matched peak load — noisy host or uring regression; rerun or investigate" >&2
  exit 1
fi
if ! grep -q '"uring_syscalls_below_epoll": true' "${live_json}"; then
  echo "bench_trajectory: uring syscalls/request not below epoll — the batched submission path regressed?" >&2
  exit 1
fi
if ! grep -q '"uring_ladder_syscalls_strictly_decreasing": true' "${live_json}"; then
  echo "bench_trajectory: uring ladder syscalls/request did not fall rung by rung (uring -> +ms -> +sqp) — a feature rung stopped engaging?" >&2
  exit 1
fi
if ! grep -q '"uring_full_ladder_syscalls_leq_0p1": true' "${live_json}"; then
  echo "bench_trajectory: full uring ladder (+ms+sqp) above 0.1 syscalls/request — the zero-syscall steady state regressed?" >&2
  exit 1
fi
# PR-numbered snapshots: the live-harness acceptance record (0004), the uring
# transport's syscalls-per-request trajectory record (0007), and the feature-ladder
# zero-syscall steady-state record (0010).
cp "${live_json}" "${OUT_DIR}/BENCH_0004.json"
cp "${live_json}" "${OUT_DIR}/BENCH_0007.json"
cp "${live_json}" "${OUT_DIR}/BENCH_0010.json"
live_p99="$(sed -nE 's/^  "value": ([0-9.]+),$/\1/p' "${live_json}" | head -1)"
echo "   live_zygos_p99_us_at_peak_load = ${live_p99} us  -> ${live_json}"

# --- churn_live: connection churn on the live runtime (flow-table recycling) -----------
# The binary writes the BENCH-contract JSON itself; this script stamps the commit and
# gates on the four acceptance booleans: lifetime connections exceed the fixed table,
# zero capacity refusals, occupancy never exceeds the table, and churn recycling stays
# allocation-free after warmup. Latencies are host-dependent; the booleans are not.
CHURN_DURATION_MS="${BENCH_CHURN_DURATION_MS:-1200}"
echo "== churn_live_runtime (connection churn sweep, duration=${CHURN_DURATION_MS}ms/point)"
churn_json="${OUT_DIR}/BENCH_churn.json"
"${BUILD_DIR}/bench/churn_live_runtime" --rate=2000 --churn-ms=0,160,80,40,20 \
  --duration-ms="${CHURN_DURATION_MS}" --warmup-ms=300 --connections=8 --threads=2 \
  --max-flows=32 --seed=5 --json="${churn_json}"
stamp_json "${churn_json}"
for gate in distinct_conns_exceed_capacity zero_capacity_refusals \
            flat_table_occupancy allocation_free_after_warmup; do
  if ! grep -q "\"${gate}\": true" "${churn_json}"; then
    echo "bench_trajectory: churn acceptance boolean ${gate} is not true — regression in the connection-lifecycle path?" >&2
    exit 1
  fi
done
# PR-numbered snapshot: the connection-lifecycle acceptance record.
cp "${churn_json}" "${OUT_DIR}/BENCH_0005.json"
churn_p99="$(sed -nE 's/^  "value": ([0-9.]+),$/\1/p' "${churn_json}" | head -1)"
echo "   churn_p99_us_at_fastest_churn = ${churn_p99} us  -> ${churn_json}"

# --- fanout_chaos: tail-at-scale amplification through the chaos proxy -----------------
# The binary writes the BENCH-contract JSON itself; this script stamps the commit and
# gates on the three acceptance booleans: the through-proxy logical p99 grows with the
# fan-out width (the max-of-N amplification law), work stealing does not lose to
# no-steal under injected jitter, and every cell ran clean (no lost logical requests).
# Absolute latencies are host-dependent; the amplification RATIO and the steal
# comparison are relative and are the tracked invariants.
FANOUT_DURATION_MS="${BENCH_FANOUT_DURATION_MS:-2500}"
echo "== fanout_chaos (fan-out sweep through the chaos proxy, duration=${FANOUT_DURATION_MS}ms/cell)"
fanout_json="${OUT_DIR}/BENCH_fanout.json"
"${BUILD_DIR}/bench/fanout_chaos" --fanouts=1,2,4,8 --logical-rate=250 \
  --duration-ms="${FANOUT_DURATION_MS}" --warmup-ms=600 --steal-compare=true \
  --seed=11 --json="${fanout_json}"
stamp_json "${fanout_json}"
for gate in p99_amplification_monotone_in_fanout steal_leq_no_steal_under_jitter \
            all_runs_clean; do
  if ! grep -q "\"${gate}\": true" "${fanout_json}"; then
    echo "bench_trajectory: fanout acceptance boolean ${gate} is not true — noisy host or regression in the fan-out/chaos path?" >&2
    exit 1
  fi
done
# PR-numbered snapshot: the chaos-layer acceptance record.
cp "${fanout_json}" "${OUT_DIR}/BENCH_0006.json"
fanout_amp="$(sed -nE 's/^  "value": ([0-9.]+),$/\1/p' "${fanout_json}" | head -1)"
echo "   fanout_p99_amplification = ${fanout_amp} x  -> ${fanout_json}"

# --- overload_live: goodput under overload with deadline shedding + adaptive admission -
# The binary calibrates its own peak, derives the deadline budget from a no-shed
# baseline, sweeps {0.8,1,2,4,10}x across zygos/no-shed configs and writes the
# BENCH-contract JSON itself; this script stamps the commit and gates on the six
# acceptance booleans. Absolute rates are host-dependent; the booleans are all
# calibration-relative (goodput@2x vs the host's own no-overload peak, sheds vs the
# analytic max(0, 1 - 1/m) curve) and are the tracked invariants.
OVERLOAD_DURATION_MS="${BENCH_OVERLOAD_DURATION_MS:-1200}"
echo "== overload_live_runtime (overload sweep, duration=${OVERLOAD_DURATION_MS}ms/cell)"
overload_json="${OUT_DIR}/BENCH_overload.json"
"${BUILD_DIR}/bench/overload_live_runtime" --workers=2 --connections=8 --threads=2 \
  --service-us=1000 --multipliers=0.8,1,2,4,10 \
  --duration-ms="${OVERLOAD_DURATION_MS}" --warmup-ms=300 --seed=1 \
  --json="${overload_json}"
stamp_json "${overload_json}"
for gate in goodput_at_2x_geq_090_peak admitted_p99_bounded_under_overload \
            no_shed_collapses zero_sheds_below_saturation \
            shed_fraction_tracks_analytic ledger_balanced; do
  if ! grep -q "\"${gate}\": true" "${overload_json}"; then
    echo "bench_trajectory: overload acceptance boolean ${gate} is not true — regression in the shedding path?" >&2
    exit 1
  fi
done
# PR-numbered snapshot: the overload-control acceptance record.
cp "${overload_json}" "${OUT_DIR}/BENCH_0008.json"
overload_ratio="$(sed -nE 's/^  "value": ([0-9.]+),$/\1/p' "${overload_json}" | head -1)"
echo "   overload_goodput_ratio_at_2x = ${overload_ratio} x peak  -> ${overload_json}"

# --- fig10_live: Silo/TPC-C as the live workload (zygos vs no-steal vs partitioned) ----
# The binary loads a Silo/TPC-C database behind the runtime, sweeps the three
# scheduling configs over the open-loop TPC-C loadgen and writes the BENCH-contract
# JSON itself; this script stamps the commit and gates on the three acceptance
# booleans: zygos p99 monotone in load, stealing <= no-steal at the peak cell, and an
# exactly balanced transaction ledger (commit+abort+shed+lost == sent, 0 malformed).
# Absolute tps are host-dependent; the booleans are not. --service-pad-us=300 blocks
# each transaction for 300 us before the OCC work, the same trick as fig6_live's
# sleep-mode service: on CI hosts with fewer hardware threads than workers a pure
# CPU-burn workload makes all scheduling policies identical (one core timeshares
# everything), while a blocking pad keeps them distinguishable. Load fractions stop
# at 0.8 of the calibrated peak for the same sub-saturation reason as fig6_live.
# 5000ms/cell (not fig6_live's 3000): TPC-C service times are heavier-tailed than
# the fixed 300 us sleep, so the p99 estimator needs more tail samples — a 3000ms
# cell at the 0.4-peak rate rests its p99 on ~27 samples and the monotonicity gate
# sat within 1% of the 0.8x noise band on a 1-CPU host; 5000ms cells double that.
FIG10_DURATION_MS="${BENCH_FIG10_DURATION_MS:-5000}"
echo "== fig10_live_runtime (live TPC-C sweep, duration=${FIG10_DURATION_MS}ms/cell)"
fig10_json="${OUT_DIR}/BENCH_fig10_live.json"
"${BUILD_DIR}/bench/fig10_live_runtime" --transport=tcp \
  --configs=zygos,no-steal,partitioned --workers=2 --connections=16 --threads=2 \
  --warehouses=1 --scale=tiny --service-pad-us=300 \
  --load-fractions=0.2,0.4,0.6,0.8 --cell-repeats=3 \
  --duration-ms="${FIG10_DURATION_MS}" --warmup-ms=400 --seed=9 \
  --json="${fig10_json}"
stamp_json "${fig10_json}"
if ! grep -q '"zygos_p99_monotone_in_load": true' "${fig10_json}"; then
  echo "bench_trajectory: live TPC-C zygos p99 is not monotone in load — noisy host or regression; rerun or investigate" >&2
  exit 1
fi
if ! grep -q '"steal_leq_no_steal_at_peak": true' "${fig10_json}"; then
  echo "bench_trajectory: stealing did not beat no-steal at the peak TPC-C cell — regression in the steal path?" >&2
  exit 1
fi
if ! grep -q '"ledger_balanced": true' "${fig10_json}"; then
  echo "bench_trajectory: TPC-C ledger did not balance (commit+abort+shed+lost != sent, or malformed > 0)" >&2
  exit 1
fi
# PR-numbered snapshot: the second-workload acceptance record.
cp "${fig10_json}" "${OUT_DIR}/BENCH_0009.json"
fig10_p99="$(sed -nE 's/^  "value": ([0-9.]+),$/\1/p' "${fig10_json}" | head -1)"
echo "   fig10_live_zygos_p99_us_at_peak_load = ${fig10_p99} us  -> ${fig10_json}"

echo "bench_trajectory OK (commit ${COMMIT})"
