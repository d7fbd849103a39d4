#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full unit-test
# suite.  This is the exact line CI (and the roadmap) treat as the
# gate for every PR.
#
#   tools/run_tier1.sh [BUILD_DIR]
#
# BUILD_DIR defaults to `build` at the repo root.  Extra CMake cache
# arguments can be passed via the DADU_CMAKE_ARGS environment variable.
#
# Sanitizer runs use the DADU_SANITIZE cache option added alongside the
# batched speculation kernel.  The batch-FK kernel test was verified
# under UBSan with:
#
#   cmake -B build-ubsan -S . -DDADU_SANITIZE=undefined -DDADU_BUILD_BENCH=OFF
#   cmake --build build-ubsan -j --target kinematics_batch_fk_test
#   ./build-ubsan/tests/kinematics_batch_fk_test
#
# (ASan is the same with -DDADU_SANITIZE=address.)  The wide
# speculation backends are covered the same way:
#
#   cmake --build build-ubsan -j --target kinematics_spec_backend_test
#   ./build-ubsan/tests/kinematics_spec_backend_test
#   DADU_SPEC_BACKEND=scalar ./build-ubsan/tests/kinematics_spec_backend_test
#
# The serving layer (src/dadu/service/) is verified under
# ThreadSanitizer — queue, seed cache, worker pool and shutdown paths
# are all concurrent — with:
#
#   cmake -B build-tsan -S . -DDADU_SANITIZE=thread -DDADU_BUILD_BENCH=OFF
#   cmake --build build-tsan -j --target service_test service_batch_test \
#       service_stress_test parallel_test
#   ./build-tsan/tests/service_test
#   ./build-tsan/tests/service_batch_test
#   ./build-tsan/tests/service_stress_test
#   ./build-tsan/tests/parallel_test
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

# shellcheck disable=SC2086  # DADU_CMAKE_ARGS is intentionally word-split
cmake -B "${build_dir}" -S "${repo_root}" ${DADU_CMAKE_ARGS:-}
cmake --build "${build_dir}" -j
ctest --test-dir "${build_dir}" --output-on-failure -j

# Wide-speculation parity gate: the scalar/AVX2/AVX-512 speculation
# kernels are required to be bit-identical, so the parity suite runs
# under whatever backend runtime dispatch picked for this host, then
# with the backend forced to scalar via the env override, and — on
# hosts with AVX2 — forced to avx2, whose vectorized walk trig is its
# own explicit code.  The forced legs also re-run the suites that lean
# hardest on the speculation path (IKAcc's functional model included),
# proving solver results do not depend on the host ISA.  The adaptive
# solver reshapes the f64 walk's lane count every iteration, so its
# suite rides along too.
"${build_dir}/tests/kinematics_spec_backend_test"
forced_backends="scalar"
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  forced_backends="scalar avx2"
fi
for backend in ${forced_backends}; do
  for suite in kinematics_spec_backend_test kinematics_batch_fk_test \
      kinematics_walk_trig_test solvers_quick_ik_test service_batch_test \
      ikacc_accelerator_test solvers_adaptive_test; do
    DADU_SPEC_BACKEND="${backend}" "${build_dir}/tests/${suite}"
  done
done
echo "spec backend parity gate: ok (dispatched + forced ${forced_backends// /, } legs)"

# Simulation determinism gate: the same seed must replay the whole
# serving stack byte-identically.  Two runs with a fixed seed must
# produce bit-identical event traces (the digest in the trailer covers
# every event, including ones evicted from the bounded buffer).  Chaos
# covers faults at every layer; multispec covers routing across several
# router lanes and the unknown-spec path of the frame dispatcher.
sim_dir="$(mktemp -d)"
trap 'rm -rf "${sim_dir}"' EXIT
for scenario in chaos multispec; do
  for run in a b; do
    "${build_dir}/tools/dadu" sim --scenario "${scenario}" --seed 1337 \
      --requests 20000 --trace-out "${sim_dir}/${scenario}-${run}.trace" \
      > "${sim_dir}/${scenario}-${run}.out"
  done
  if ! cmp -s "${sim_dir}/${scenario}-a.trace" "${sim_dir}/${scenario}-b.trace"; then
    echo "FAIL: sim determinism gate (${scenario}) — same seed produced different traces" >&2
    diff "${sim_dir}/${scenario}-a.trace" "${sim_dir}/${scenario}-b.trace" | head -20 >&2
    exit 1
  fi
  echo "sim determinism gate (${scenario}): ok ($(grep -c '' "${sim_dir}/${scenario}-a.trace") trace lines identical)"
done

# Optional perf-trajectory step: DADU_RUN_BENCH=1 runs the wire-level
# load generator (64 pipelined TCP connections against a loopback
# IkServer) and leaves BENCH_net.json next to the build dir for later
# PRs to diff against.  --require-batched doubles as the batching
# smoke: the run fails unless queue coalescing actually engaged (mean
# batch occupancy > 1).
if [[ "${DADU_RUN_BENCH:-0}" == "1" ]]; then
  "${build_dir}/bench/net_throughput" --quick --require-batched \
    --json "${build_dir}/BENCH_net.json"
  # Multi-spec leg: the same load split evenly across two registry
  # specs behind one server.  Per-spec req/s is appended to the JSON
  # (net_requests_per_sec_spec<k>) so regressions in the routing layer
  # show up as a per-lane throughput drop at equal per-spec load.
  "${build_dir}/bench/net_throughput" --quick --spec-mix 2 \
    --require-batched --json-append "${build_dir}/BENCH_net.json"
fi
