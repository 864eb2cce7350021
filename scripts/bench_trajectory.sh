#!/usr/bin/env bash
# Longitudinal benchmark harness (the `BENCH_*.json` contract from bench/README.md).
#
# Runs the fixed trajectory subset — fig8_steal_rate, fig6_latency_throughput,
# micro_dataplane and the five live benches — on their fixed seeds. Each binary
# writes one BENCH_<name>.json ({metric, value, unit, commit, params}) itself, and
# every record is gated the same way (run_gated below), so successive commits can be
# compared for regressions in steal-path behaviour, max-load@SLO, data-plane cost and
# the live runtime's tail. The DES-side experiments are deterministic for a fixed
# seed and host-independent; micro_dataplane's ns/op is host-dependent but its
# allocs/op is exact and gated to 0.
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

for bin in fig8_steal_rate fig6_latency_throughput micro_dataplane fig6_live_runtime \
           churn_live_runtime fanout_chaos overload_live_runtime fig10_live_runtime; do
  if [[ ! -x "${BUILD_DIR}/bench/${bin}" ]]; then
    echo "bench_trajectory: ${BUILD_DIR}/bench/${bin} not built (run cmake --build first)" >&2
    exit 1
  fi
done
mkdir -p "${OUT_DIR}"

# run_gated <name> <binary> [args...]: runs one bench, which writes the BENCH-contract
# JSON ${OUT_DIR}/BENCH_<name>.json itself (BenchReport, src/loadgen/experiment.h),
# stamps the commit and prepends env_tunings to its params, and fails unless every
# gate its params.gates lists reads true (scripts/check_gates.py). Wall-clock values
# are host-dependent; the gates are the tracked invariants.
run_gated() {
  local json="${OUT_DIR}/BENCH_$1.json" bin="$2" status=0
  shift 2
  echo "== ${bin}"
  "${BUILD_DIR}/bench/${bin}" "$@" --json="${json}" || status=$?
  [[ -f "${json}" ]] || { echo "bench_trajectory: ${bin} wrote no ${json}" >&2; exit 1; }
  sed -i -e "s/\"commit\": \"\"/\"commit\": \"${COMMIT}\"/" \
    -e "s/\"params\": {/\"params\": {\\n    \"env_tunings\": \"${ENV_TUNINGS}\",/" "${json}"
  python3 scripts/check_gates.py "${json}" || status=1
  if (( status != 0 )); then
    echo "bench_trajectory: ${bin} failed a gate — noisy host or regression; rerun or investigate" >&2
    exit 1
  fi
}

# --- fig8: peak ZygOS steal rate (DES, seed 51) ---------------------------------------
run_gated fig8_steal_rate fig8_steal_rate --requests="${REQUESTS}" --points="${POINTS}"

# --- fig6: ZygOS fraction of the theoretical max load at SLO (DES, seed 35) -----------
# The value is the first headline, the 10 us exponential case (the paper's §6.1
# primary claim).
run_gated fig6_latency_throughput fig6_latency_throughput --requests="${REQUESTS}" \
  --points="${POINTS}"

# --- micro_dataplane: ns/op and allocs/op for one echo RPC, string vs pooled ----------
# The binary's median-of-3 run by speedup (see its header for why). Its gates: the
# pooled path allocates nothing and stays >= 1.05x the string path.
run_gated micro_dataplane micro_dataplane --requests=200000 --warmup=20000

# --- fig6_live: the LIVE runtime under open-loop load, both socket transports ---------
# Every cell is served over real sockets and timed by the TCP loadgen, scheduled send
# to response received. tcp leads the transport list so the calibrated rate list
# comes from the epoll backend and uring then sweeps the same absolute rates
# (matched-load uring-vs-epoll cells); the headline value is tcp's zygos peak-load
# p99 (params.headline_transport). The sleep-mode service keeps the scheduling
# policies distinguishable on CI hosts with fewer hardware threads than workers (see
# src/loadgen/spin_service.h). A host without io_uring drops the uring leg (the
# binary prints `# skip:`) and every uring gate holds vacuously.
# 3000ms/point: at the lowest swept rate (~1000 rps) a cell needs ~3k completions
# for the p99 to rest on ~30 samples — 1500ms cells made the monotonicity gate a
# coin flip on oversubscribed single-CPU hosts.
# 0.2..0.8 of the calibrated peak (not the default 0.95 top point): calibration is a
# single overload cell whose peak estimate swings ~15% run to run; at 0.95 an
# optimistic calibration pushes cells past saturation, where open-loop p99 measures
# queue growth, not the scheduler. 0.8 keeps every cell sub-saturated.
# --cell-repeats=3: median-of-3 per cell (and for the calibration probe). On a host
# where the loadgen and the server share cores, a single scheduler stall books tens
# of ms into one cell's p99 (CO-safe accounting must count it); the median row
# discards the one-off without biasing the curve.
# Transport list = epoll reference, then io_uring (one pooled recv armed per
# connection, plain SEND). Configs = the binary's default, zygos and no-steal (the
# runtime's one ablation; the IPI ablation is DES-only, fig6_latency_throughput).
LIVE_DURATION_MS="${BENCH_LIVE_DURATION_MS:-3000}"
run_gated fig6_live fig6_live_runtime \
  --transport=tcp,uring \
  --dist=exponential --service-us=300 --service-mode=sleep --workers=2 \
  --connections=16 --load-fractions=0.2,0.4,0.6,0.8 --cell-repeats=3 \
  --duration-ms="${LIVE_DURATION_MS}" --warmup-ms=400 --seed=3

# --- churn_live: connection churn on the live runtime (flow-table recycling) ----------
CHURN_DURATION_MS="${BENCH_CHURN_DURATION_MS:-1200}"
run_gated churn churn_live_runtime --rate=2000 \
  --churn-ms=0,160,80,40,20 --duration-ms="${CHURN_DURATION_MS}" --warmup-ms=300 \
  --connections=8 --threads=2 --max-flows=32 --seed=5

# --- fanout_chaos: tail-at-scale amplification through the chaos proxy ----------------
# The amplification RATIO and the steal comparison are relative, so the gates hold
# across hosts.
FANOUT_DURATION_MS="${BENCH_FANOUT_DURATION_MS:-2500}"
run_gated fanout fanout_chaos --fanouts=1,2,4,8 --logical-rate=250 \
  --duration-ms="${FANOUT_DURATION_MS}" --warmup-ms=600 --steal-compare=true --seed=11

# --- overload_live: goodput under overload with deadline shedding ---
# The binary calibrates its own peak, derives the deadline budget from a no-shed
# baseline and sweeps {0.8,1,2,4,10}x across zygos/no-shed configs. Its six gates are
# calibration-relative (goodput@2x vs the host's own no-overload peak, sheds vs the
# analytic max(0, 1 - 1/m) curve).
OVERLOAD_DURATION_MS="${BENCH_OVERLOAD_DURATION_MS:-1200}"
run_gated overload overload_live_runtime --workers=2 --connections=8 \
  --threads=2 --service-us=1000 --multipliers=0.8,1,2,4,10 \
  --duration-ms="${OVERLOAD_DURATION_MS}" --warmup-ms=300 --seed=1

# --- fig10_live: Silo/TPC-C as the live workload (zygos vs no-steal) ------------------
# The binary loads a Silo/TPC-C database behind the runtime and sweeps the three
# scheduling configs over the open-loop TPC-C loadgen. --service-pad-us=300 blocks
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
run_gated fig10_live fig10_live_runtime --transport=tcp \
  --configs=zygos,no-steal --workers=2 --connections=16 --threads=2 \
  --warehouses=1 --scale=tiny --service-pad-us=300 \
  --load-fractions=0.2,0.4,0.6,0.8 --cell-repeats=3 \
  --duration-ms="${FIG10_DURATION_MS}" --warmup-ms=400 --seed=9

echo "bench_trajectory OK (commit ${COMMIT})"
