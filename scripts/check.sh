#!/usr/bin/env bash
# Full verification: build + test the plain configuration, then again
# with AddressSanitizer + UBSan (-DSETCOVER_SANITIZE=ON). Any sanitizer
# finding aborts the offending test (-fno-sanitize-recover=all), so a
# green run means both configurations are clean. Every build here is
# configured with -Werror (CMAKE_CXX_FLAGS on top of the project's
# -Wall -Wextra), so a new compiler warning fails the check. The one
# exception: under ASan, GCC 12 reports std::regex's internals (in the
# vendored bench/minibench) as maybe-uninitialized, a false positive of
# the instrumentation, so that one warning stays a warning there; the
# plain, Release and TSan builds keep it fatal.
#
# With --bench-smoke, instead run the perf-path smoke checks:
#   1. Release build + a short bench_throughput run (catches benchmarks
#      that crash or regress to zero without paying for a full baseline),
#      then a perf gate: every file-replay row, the bucket-queue greedy
#      kernel row, and every transport-ingest row (bench_server_ingest's
#      {local,unix,shm} x batch x window matrix) must sustain at least
#      0.7x the edges/s recorded in the committed BENCH_throughput.json
#      / BENCH_server_ingest.json, so a read-pipeline, offline-kernel,
#      or server-transport regression fails CI instead of silently
#      shipping. The gate re-measures up to 3 times before failing:
#      shared-host steal time depresses whole runs at once, and only a
#      code-caused regression survives re-measurement. A failed gate
#      does not skip stages 2 and 3: they run anyway, and the smoke
#      exits non-zero at the end with the gate's verdict.
#      Both sides of that comparison must be Release: the gate prints
#      the build type of build-release/ and of the committed baseline
#      and refuses to compare anything else,
#   2. the engine-equivalence + batch-equivalence + stream-format tests
#      plus the greedy kernel differential + CSR instance tests, the
#      session wire protocol's hostile-byte surface, and the hostile
#      stream-payload suite, under ASan+UBSan,
#   3. the thread pool + parallel multi-run (which fans out over
#      engine::Execute sessions) + prefetch decoder tests, plus the
#      concurrent session server and its kill-and-resume soak, the
#      two-slot server over unix and shm, and the sharded multi-worker
#      runner's equivalence/resume suite, under TSan
#      (-DSETCOVER_TSAN=ON), so the engine-backed parallel drivers and
#      the server's admission/drain paths are race-checked.
#
# Both modes start with layering guards: outside the engine's pump
# (src/engine/pump.cc) and the contract's own definition sites,
# production code must not drive ProcessEdgeBatch directly — every run
# path goes through the engine —
# src/server/ must stay a pure engine client (no includes of the
# core/instance/algorithm layers), raw shared-memory plumbing
# (memfd_create / SCM_RIGHTS fd passing) stays confined to
# src/util/shm_ring.* and src/server/transport.*, process control
# (fork / waitpid / execve) appears nowhere: every run is in-process,
# and no code in src/ or tools/ pulls edges one record at a time
# (Next(Edge*) / Next(&...)): every source is pulled through
# EdgeSource::NextBatch. rename( appears only in the one atomic writer
# (src/util/atomic_file.cc), and nothing under src/stream/ reads files
# through stdio (fopen / fread / fseek): stream files are mapped.
#
# Usage: scripts/check.sh [--bench-smoke] [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

ASAN_WERROR="-Werror -Wno-error=maybe-uninitialized"

echo "== layering guard: ProcessEdgeBatch callers outside the engine's pump =="
# Allowlist: the engine's one call site (the pump every drive loop
# feeds), the interface + batch/per-edge contract definition sites, and
# the composite algorithm that fans a batch out to its sub-runs. bench/
# and tests/ are exempt by not being scanned.
GUARD_ALLOW=(
  src/engine/pump.cc
  src/core/streaming_algorithm.h
  src/core/streaming_algorithm.cc
  src/core/multi_run.cc
)
GUARD_HITS=$(grep -rnE '(\.|->)ProcessEdgeBatch\(' src/ tools/ examples/ \
  $(printf -- "--exclude=%s " "${GUARD_ALLOW[@]##*/}") || true)
if [[ -n "$GUARD_HITS" ]]; then
  echo "$GUARD_HITS"
  echo "layering guard: ProcessEdgeBatch called outside src/engine/pump.cc;"
  echo "route new run paths through engine::Execute or feed the pump"
  echo "(see docs/architecture.md)"
  exit 1
fi

# The session server is a client of the engine, nothing more: it may
# speak to engine/ (sessions), stream/ (plain edge/fault types), and
# util/, but never reach under the engine to the algorithm or instance
# layers directly.
SERVER_HITS=$(grep -rnE '#include "(core|instance|algorithms|run)/' \
  src/server/ || true)
if [[ -n "$SERVER_HITS" ]]; then
  echo "$SERVER_HITS"
  echo "layering guard: src/server/ must stay an engine client;"
  echo "algorithm/instance/checkpoint access belongs behind engine::Session"
  exit 1
fi

# SIMD intrinsics live behind the util/simd dispatch seam and nowhere
# else: everything outside it uses the simd::Kernels table (or portable
# builtins like __builtin_prefetch), so the scalar/SSE/AVX2 differential
# tests cover every vectorized code path in the tree.
INTRIN_HITS=$(grep -rnE '#include <[a-z0-9_]*(intrin|mmintrin)\.h>' \
  src/ tools/ examples/ bench/ --include='*.h' --include='*.cc' \
  | grep -v '^src/util/simd' || true)
if [[ -n "$INTRIN_HITS" ]]; then
  echo "$INTRIN_HITS"
  echo "layering guard: SIMD intrinsics outside src/util/simd*;"
  echo "add a kernel to util/simd.h instead (see docs/performance.md)"
  exit 1
fi
# The deterministic t-party protocol is the sharded engine's merge
# primitive and nothing else's: outside its own definition site, only
# src/engine/ may call it, so every production merge inherits the
# 2√(n·t) guarantee and the Õ(n) message accounting in one place.
# bench/ and tests/ are exempt by not being scanned.
PROTO_ALLOW=(
  src/engine/shards.cc
  src/comm/deterministic_protocol.h
  src/comm/deterministic_protocol.cc
)
PROTO_HITS=$(grep -rnE 'RunDeterministicProtocol\(' src/ tools/ examples/ \
  $(printf -- "--exclude=%s " "${PROTO_ALLOW[@]##*/}") || true)
if [[ -n "$PROTO_HITS" ]]; then
  echo "$PROTO_HITS"
  echo "layering guard: RunDeterministicProtocol called outside src/engine/;"
  echo "merge per-shard covers via engine::Execute with backend.workers"
  echo "(see docs/architecture.md)"
  exit 1
fi
# Raw shared-memory plumbing (memfd creation, fd passing over sockets)
# stays inside the ring primitive and the transport that negotiates it.
# Everything else — client, server, loadgen, benches — speaks
# Connection/ShmRing and never sees an fd, so the cross-process safety
# argument lives in exactly two reviewed files. (mmap is NOT guarded:
# stream/mmap_file.cc uses it legitimately for read-only replay.)
SHM_HITS=$(grep -rnE 'memfd_create|shm_open|SCM_RIGHTS' \
  src/ tools/ examples/ \
  --exclude=shm_ring.h --exclude=shm_ring.cc \
  --exclude=transport.h --exclude=transport.cc || true)
if [[ -n "$SHM_HITS" ]]; then
  echo "$SHM_HITS"
  echo "layering guard: raw shm/fd-passing calls outside src/util/shm_ring.*"
  echo "and src/server/transport.*; use ShmRing / ConnectShm instead"
  exit 1
fi
# Process control has no owner: W workers are threads of one process
# (engine::Execute), so a fork/exec/reap lifecycle with its own crash
# semantics must not creep back in.
FORK_HITS=$(grep -rnE '\b(fork|waitpid|execve)\s*\(' src/ tools/ examples/ \
  || true)
if [[ -n "$FORK_HITS" ]]; then
  echo "$FORK_HITS"
  echo "layering guard: fork/waitpid/execve in src/ tools/ examples/;"
  echo "fan work out over engine::Execute worker threads (backend.workers)"
  exit 1
fi
# Every run pulls through one batch-shaped interface: sources hand out
# spans (EdgeSource::NextBatch), and engine::Drive is the one loop that
# cuts them. A per-record pull would bring back a second, per-edge
# drive loop beside it.
NEXT_HITS=$(grep -rnE 'Next\(Edge ?\*|Next\(&' src/ tools/ || true)
if [[ -n "$NEXT_HITS" ]]; then
  echo "$NEXT_HITS"
  echo "layering guard: per-record Next() pull in src/ or tools/;"
  echo "pull spans through EdgeSource::NextBatch (stream/edge_source.h)"
  echo "and let engine::Drive cut them"
  exit 1
fi
# Every tmp + rename write goes through the one writer in
# util/atomic_file.cc (stream files, checkpoints, session manifests), so
# the crash-consistency discipline lives in one reviewed place.
RENAME_HITS=$(grep -rnE '\brename\(' src/ tools/ examples/ \
  | grep -v '^src/util/atomic_file\.cc:' || true)
if [[ -n "$RENAME_HITS" ]]; then
  echo "$RENAME_HITS"
  echo "layering guard: rename( outside src/util/atomic_file.cc;"
  echo "write files through WriteFileAtomically (util/atomic_file.h)"
  exit 1
fi
# Stream files are read through MmapFile and written through the
# atomic writer: no stdio read path grows back under src/stream/.
STDIO_HITS=$(grep -rnE '\b(fopen|fread|fseek)\b' src/stream/ || true)
if [[ -n "$STDIO_HITS" ]]; then
  echo "$STDIO_HITS"
  echo "layering guard: stdio file reads under src/stream/;"
  echo "read stream files through MmapFile (stream/mmap_file.h) and write"
  echo "them through WriteFileAtomically (util/atomic_file.h)"
  exit 1
fi
echo "layering guard: clean"

BENCH_SMOKE=0
if [[ "${1:-}" == "--bench-smoke" ]]; then
  BENCH_SMOKE=1
  shift
fi
JOBS="${1:-$(nproc)}"

if [[ "$BENCH_SMOKE" == "1" ]]; then
  echo "== bench smoke: Release build (build-release/) =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror >/dev/null

  # Perf numbers from unoptimized builds are noise: refuse to gate on
  # them. The build dir must be Release, and so must the committed
  # baseline we compare against (bench_baseline.sh stamps it).
  BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
    build-release/CMakeCache.txt)
  echo "bench smoke: build-release/ build type: ${BUILD_TYPE:-<unset>}"
  if [[ "$BUILD_TYPE" != "Release" ]]; then
    echo "bench smoke: refusing perf comparison from a '$BUILD_TYPE' build;"
    echo "delete build-release/ and re-run (it must be -DCMAKE_BUILD_TYPE=Release)"
    exit 1
  fi
  for BASELINE_FILE in BENCH_throughput.json BENCH_server_ingest.json; do
    BASELINE_TYPE=$(python3 -c 'import json, sys; print(json.load(open(
      sys.argv[1])).get("context", {}).get(
      "cmake_build_type", "<unstamped>"))' "$BASELINE_FILE")
    echo "bench smoke: $BASELINE_FILE build type: $BASELINE_TYPE"
    if [[ "$BASELINE_TYPE" != "Release" ]]; then
      echo "bench smoke: $BASELINE_FILE was not recorded from a Release"
      echo "build; refresh it with scripts/bench_baseline.sh before gating"
      exit 1
    fi
    # The benchmark *library* must be a release build too — a debug
    # harness (the distro's prebuilt libbenchmark) distorts per-iteration
    # overhead. The harness stamps library_build_type itself, so both the
    # committed baseline and the fresh smoke run carry the proof.
    BASELINE_LIB=$(python3 -c 'import json, sys; print(json.load(open(
      sys.argv[1])).get("context", {}).get(
      "library_build_type", "<unstamped>"))' "$BASELINE_FILE")
    echo "bench smoke: $BASELINE_FILE library build type: $BASELINE_LIB"
    if [[ "$BASELINE_LIB" != "release" ]]; then
      echo "bench smoke: $BASELINE_FILE was recorded through a"
      echo "non-release benchmark library; refresh it with scripts/bench_baseline.sh"
      exit 1
    fi
  done

  cmake --build build-release -j "$JOBS" \
    --target bench_throughput bench_server_ingest
  build-release/bench/bench_throughput --benchmark_min_time=0.01

  echo "== bench smoke: file-replay + greedy + ingest-ceiling + transport-ingest perf gate =="
  # On a shared single-vCPU host, steal time can depress *every* row of
  # a run by 30%+ at once — a one-shot measurement would flake. A true
  # (code-caused) regression survives re-measurement, transient host
  # noise does not: the gate re-runs the benches up to 3 times and only
  # fails if every attempt has a row below the floor.
  GATE_OK=0
  for GATE_ATTEMPT in 1 2 3; do
    build-release/bench/bench_throughput \
      '--benchmark_filter=FileReplay|BM_GreedyCover/|IngestCeiling|ShardedIngest|BackendIngest' \
      --benchmark_format=json >/tmp/setcover_replay_smoke.json
    # The server ingest matrix runs as its own binary: a full session
    # per iteration (open/ingest/finalize/close) against a live server,
    # so a transport or windowing regression fails the same 0.7x gate
    # as the read-pipeline rows.
    build-release/bench/bench_server_ingest \
      '--benchmark_filter=BM_TransportIngest' \
      --benchmark_format=json >/tmp/setcover_ingest_smoke.json
    for SMOKE_FILE in /tmp/setcover_replay_smoke.json \
                      /tmp/setcover_ingest_smoke.json; do
      SMOKE_LIB=$(python3 -c 'import json, sys; print(json.load(open(
        sys.argv[1])).get("context", {}).get(
        "library_build_type", "<unstamped>"))' "$SMOKE_FILE")
      if [[ "$SMOKE_LIB" != "release" ]]; then
        echo "bench smoke: the fresh smoke run $SMOKE_FILE used a non-release"
        echo "benchmark library ($SMOKE_LIB); rebuild build-release/ against minibench"
        exit 1
      fi
    done
    if python3 - <<'EOF'
import json, sys

FLOOR = 0.7  # fail if a row drops below this fraction of the baseline
GATED = ("backend-ingest/", "file-replay/", "greedy/bucket-queue",
         "ingest-ceiling/", "sharded-ingest/", "transport-ingest/")

def replay_rows(*paths):
    # Merge the gated rows from several benchmark JSON files (the
    # read-pipeline matrix and the server ingest matrix are separate
    # binaries but share one gate). Labels are disjoint by prefix.
    rows, cpus = {}, None
    for path in paths:
        doc = json.load(open(path))
        for bench in doc["benchmarks"]:
            label = bench.get("label", "")
            if label.startswith(GATED):
                rows[label] = bench
        cpus = doc.get("context", {}).get("num_cpus", cpus)
    return rows, cpus

baseline, base_cpus = replay_rows("BENCH_throughput.json",
                                  "BENCH_server_ingest.json")
current, cur_cpus = replay_rows("/tmp/setcover_replay_smoke.json",
                                "/tmp/setcover_ingest_smoke.json")
if not baseline:
    sys.exit("perf gate: no gated rows in the committed baselines; "
             "refresh them with scripts/bench_baseline.sh")
if not any(label.startswith("transport-ingest/") for label in baseline):
    sys.exit("perf gate: no transport-ingest/ rows in "
             "BENCH_server_ingest.json; refresh it with "
             "scripts/bench_baseline.sh")
failed = False
for label, base_row in sorted(baseline.items()):
    base_eps = base_row["items_per_second"]
    row = current.get(label)
    if row is None:
        print(f"perf gate: MISSING {label} (baseline {base_eps/1e6:.1f} M edges/s)")
        failed = True
        continue
    # Parallel-speedup rows (shard or thread fan-out wider than one) are
    # only comparable between hosts with the same core count: a W=4 row
    # recorded on a 1-core baseline host says nothing about a 16-core CI
    # runner. Each row stamps the recording host's num_cpus; on mismatch
    # the gate annotates and skips that row rather than mis-gating.
    workers = max(base_row.get("shards", 1), base_row.get("threads", 1),
                  base_row.get("workers", 1))
    row_cpus = base_row.get("num_cpus", base_cpus)
    if workers > 1 and row_cpus is not None and row_cpus != cur_cpus:
        print(f"perf gate: SKIPPED {label}: parallel row recorded on a "
              f"{int(row_cpus)}-cpu host, this host has "
              f"{int(cur_cpus) if cur_cpus else '?'}")
        continue
    eps = row["items_per_second"]
    ratio = eps / base_eps
    status = "ok" if ratio >= FLOOR else "REGRESSION"
    print(f"perf gate: {status} {label}: {eps/1e6:.1f} M edges/s "
          f"({ratio:.2f}x baseline)")
    failed = failed or ratio < FLOOR
if failed:
    sys.exit(f"perf gate: a gated row fell below {FLOOR}x the committed baseline")
EOF
    then
      GATE_OK=1
      break
    fi
    echo "perf gate: attempt $GATE_ATTEMPT/3 had a row below the floor;"
    echo "re-measuring (transient host noise passes a retry, a real"
    echo "regression keeps failing)"
  done
  if [[ "$GATE_OK" != "1" ]]; then
    # The sanitizer stages below still run: a noisy host must not cost
    # a change its ASan and TSan verdicts. The smoke fails at the end.
    echo "perf gate: rows stayed below the floor across all 3 attempts;"
    echo "running the ASan and TSan stages anyway"
  fi

  echo "== bench smoke: engine equivalence + stream formats + offline kernels + wire protocol + SIMD kernels + hostile payloads under ASan+UBSan (build-asan/) =="
  cmake -B build-asan -S . -DSETCOVER_SANITIZE=ON \
    -DCMAKE_CXX_FLAGS="$ASAN_WERROR" >/dev/null
  cmake --build build-asan -j "$JOBS" \
    --target engine_equivalence_test batch_equivalence_test \
             stream_format_test greedy_kernel_test instance_test \
             bitset_test wire_protocol_test engine_session_test \
             simd_kernel_test simd_dispatch_test sharded_engine_test \
             backend_matrix_test hostile_payload_test \
             shm_ring_test transport_framing_test windowed_ingest_test
  build-asan/tests/engine_equivalence_test
  # The sharded runner's W=1 bit-identity, protocol bounds, and
  # aggregate-checkpoint resume, with ASan watching the merge's
  # candidate remapping.
  build-asan/tests/sharded_engine_test
  # The backend-name matrix — W = 1 bit-identity across names, sidecar
  # bytes, schedules, and the W > 1 Session merge — under ASan.
  build-asan/tests/backend_matrix_test
  build-asan/tests/batch_equivalence_test
  build-asan/tests/stream_format_test
  build-asan/tests/greedy_kernel_test
  build-asan/tests/instance_test
  build-asan/tests/bitset_test
  # The wire protocol's hostile-byte surface (every-byte corruption,
  # truncation, oversize) and the ingest-session engine driver.
  build-asan/tests/wire_protocol_test
  build-asan/tests/engine_session_test
  # The shm ring's wrap-around framing and poisoned-header refusal, the
  # byte-at-a-time transport fragmentation sweep, and the windowed
  # ingest's bit-identity + mid-window crash resync — ASan watches the
  # shared mapping's bounds and every scatter-gather copy.
  build-asan/tests/shm_ring_test
  build-asan/tests/transport_framing_test
  build-asan/tests/windowed_ingest_test
  # The SIMD kernel layer: every tier's kernels against the scalar
  # reference (gathers read out-of-order, so ASan watches the lanes),
  # the cross-tier full-run differentials, and one forced-scalar pass of
  # the batch-equivalence suite so the dispatch override path itself is
  # exercised under the sanitizers.
  build-asan/tests/simd_kernel_test
  build-asan/tests/simd_dispatch_test
  SETCOVER_SIMD_LEVEL=scalar build-asan/tests/batch_equivalence_test
  # CRC-valid hostile stream files: the v3 varint kernel against the
  # scalar tier on over-long, non-canonical, out-of-range and cut
  # payloads (its 16-byte windows read near the payload's end), hostile
  # header N and chunk-index offsets, v1/v2 headers, and the
  # out-of-range-id repro through every algorithm.
  build-asan/tests/hostile_payload_test

  echo "== bench smoke: thread pool + multi-run-over-engine + prefetch decoder + session server + transports under TSan (build-tsan/) =="
  cmake -B build-tsan -S . -DSETCOVER_TSAN=ON -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build build-tsan -j "$JOBS" \
    --target thread_pool_test multi_run_test batch_equivalence_test \
             prefetch_decoder_test session_server_test session_soak_test \
             sharded_engine_test shm_ring_test windowed_ingest_test \
             transport_framing_test
  build-tsan/tests/thread_pool_test
  build-tsan/tests/multi_run_test
  build-tsan/tests/batch_equivalence_test
  build-tsan/tests/prefetch_decoder_test
  # The concurrent session server: connection threads competing for
  # execution slots, shedding, drain, and the 1024-session
  # kill-and-resume soak, all race-checked.
  build-tsan/tests/session_server_test
  build-tsan/tests/session_soak_test
  # W worker pipelines over the shared thread pool, all racing into the
  # mutex-guarded aggregate-checkpoint sink — the sharded runner's
  # equivalence + kill-and-resume suite doubles as its race soak.
  build-tsan/tests/sharded_engine_test
  # The shm ring's acquire/release cursor protocol under a real
  # producer/consumer pair, and the windowed client's in-flight frames
  # against a multi-slot server that answers each connection in order.
  build-tsan/tests/shm_ring_test
  build-tsan/tests/windowed_ingest_test
  # A two-slot server serving framed unix and shm clients side by side,
  # plus the byte-at-a-time framing sweep's concurrent sender/receiver.
  build-tsan/tests/transport_framing_test

  if [[ "$GATE_OK" != "1" ]]; then
    echo "== bench smoke FAILED: the ASan and TSan stages passed, but the"
    echo "perf gate had a row below the floor in all 3 attempts (see above) =="
    exit 1
  fi
  echo "== bench smoke passed =="
  exit 0
fi

echo "== plain build (build/) =="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build -j "$JOBS" --output-on-failure

echo "== sanitized build (build-asan/) =="
cmake -B build-asan -S . -DSETCOVER_SANITIZE=ON \
    -DCMAKE_CXX_FLAGS="$ASAN_WERROR" >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan -j "$JOBS" --output-on-failure

echo "== all checks passed =="
