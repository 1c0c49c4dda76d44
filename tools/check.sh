#!/bin/sh
# Tiered verification driver. Every tier is self-contained (it
# configures and builds what it needs), so CI can fan the tiers out
# as independent jobs while `sh tools/check.sh` with no arguments
# still runs everything, exactly as before the tiers existed.
#
# Usage:
#   tools/check.sh                  # full: every tier below, in order
#   tools/check.sh --tier=fast      # configure + build + ctest, then
#                                   # the supervised-sweep recovery
#                                   # drills (crash/hang/kill/resume
#                                   # differentials) and the SIMD
#                                   # dispatch drills (scalar==native,
#                                   # direct-mapped and 2-way L1s)
#   tools/check.sh --tier=asan      # robustness suites under ASan+UBSan
#   tools/check.sh --tier=tsan      # parallel suites under TSan
#   tools/check.sh --tier=smoke     # bench/example smoke runs, the
#                                   # observability and result-store
#                                   # round trips, the daemon drill, and
#                                   # bench_layers --workload=all --quick
#                                   # (output checks + pinned digests)
#   tools/check.sh --simd=BACKEND   # force the lane-kernel backend
#                                   # (scalar|avx2|neon|native) for
#                                   # every test and bench in the tier
#                                   # by exporting TLC_SIMD; a pre-set
#                                   # TLC_SIMD in the environment is
#                                   # honoured the same way
#   tools/check.sh --artifacts=DIR  # keep the smoke tier's telemetry
#                                   # --metrics-out dump and manifest,
#                                   # and the bench_layers --quick
#                                   # output and its record lines, in
#                                   # DIR for CI artifact upload
#
# Ninja is used when available and CMake's default generator
# otherwise; ccache is picked up automatically when installed (CI
# caches its directory across runs).
set -e
cd "$(dirname "$0")/.."

usage="usage: tools/check.sh [--tier=fast|asan|tsan|smoke|full] [--simd=scalar|avx2|neon|native] [--artifacts=DIR]"
tier=full
simd=
artifacts=
for arg in "$@"; do
    case "$arg" in
      --tier=*) tier="${arg#--tier=}" ;;
      --simd=*) simd="${arg#--simd=}" ;;
      --artifacts=*) artifacts="${arg#--artifacts=}" ;;
      *)
        echo "check.sh: unknown argument '$arg'" >&2
        echo "$usage" >&2
        exit 2
        ;;
    esac
done
case "$tier" in
  fast|asan|tsan|smoke|full) ;;
  *)
    echo "check.sh: unknown tier '$tier'" >&2
    echo "$usage" >&2
    exit 2
    ;;
esac
# Validate the backend here, before a tier burns minutes building
# only for the first simulation to panic on a typo. The exported
# TLC_SIMD reaches every ctest case, drill, and bench below (the
# runtime resolves it in activeSimdBackend, util/simd.hh).
case "$simd" in
  ""|scalar|avx2|neon|native) ;;
  *)
    echo "check.sh: unknown --simd backend '$simd'" >&2
    echo "$usage" >&2
    exit 2
    ;;
esac
if [ -n "$simd" ]; then
    TLC_SIMD="$simd"
    export TLC_SIMD
fi
if [ -n "${TLC_SIMD:-}" ]; then
    echo "== SIMD backend forced: TLC_SIMD=$TLC_SIMD =="
fi
if [ -n "$artifacts" ]; then
    mkdir -p "$artifacts"
    # Resolve now: the smoke tier cd's nowhere, but mktemp subshells
    # copy into it and a relative path would be fragile.
    artifacts=$(cd "$artifacts" && pwd)
fi

# The hard Ninja requirement is gone: fall back to CMake's default
# generator (usually Unix Makefiles) when ninja is not on PATH.
GEN=
if command -v ninja >/dev/null 2>&1; then
    GEN="-G Ninja"
fi
LAUNCHER=
if command -v ccache >/dev/null 2>&1; then
    LAUNCHER="-DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
fi

# configure <build-dir> [extra cmake flags...]
#
# `set -e` would abort on a configure failure anyway, but the bare
# CMake error scrolls past in CI logs and the next person chases a
# phantom build or test failure; fail fast with an explicit verdict
# instead.
configure() {
    dir="$1"
    shift
    # $GEN/$LAUNCHER intentionally unquoted: empty means no argument.
    cmake -B "$dir" $GEN $LAUNCHER "$@" || {
        echo "check.sh: FATAL: cmake configure failed for '$dir'" >&2
        echo "check.sh: fix the toolchain/generator errors above;" \
             "nothing was built or tested" >&2
        exit 1
    }
}

build_main() {
    configure build
    cmake --build build
}

run_fast() {
    echo "== tier fast: configure + build + ctest =="
    build_main
    ctest --test-dir build --output-on-failure
    run_dispatch
    run_recovery
}

run_dispatch() {
    # The SIMD dispatch drill: one real explorer sweep forced onto
    # the scalar kernels and one left to runtime cpuid dispatch must
    # print byte-identical reports — scalar==vector is the batched
    # engine's contract (docs/parallelism.md), and this proves it
    # end to end through the Explorer/tryMissStatsBatch path rather
    # than only in the unit differentials. On a host without vector
    # units both runs resolve to scalar and the drill degenerates to
    # a determinism check, which is still worth one cmp.
    echo "== dispatch drill: TLC_SIMD=scalar vs native sweep =="
    dd_dir=$(mktemp -d)
    TLC_SIMD=scalar build/examples/design_explorer --refs=50000 \
        --quiet > "$dd_dir/scalar.txt"
    TLC_SIMD=native build/examples/design_explorer --refs=50000 \
        --quiet > "$dd_dir/native.txt"
    cmp "$dd_dir/scalar.txt" "$dd_dir/native.txt" || {
        echo "TLC_SIMD=scalar sweep differs from native dispatch" >&2
        exit 1
    }

    # The same comparison per request: direct-mapped and 2-way LRU
    # L1s, one request per two-level policy, authored by tlc_client
    # and switched to the L1 associativity (the canonical encoder
    # spells the field one way). The explorer's default scenarios
    # never price strict inclusion, so these requests are the only
    # end-to-end comparison of the strict-block kernel, direct-mapped
    # included; the 2-way ones also walk the associative shared L1.
    for assoc in 1 2; do
        for policy in inclusive strict-inclusive exclusive; do
            echo "== dispatch drill: TLC_SIMD=scalar vs native," \
                 "l1_assoc $assoc $policy request =="
            build/tools/tlc_client --print-request \
                --bench=gcc1,espresso --refs=50000 --policy="$policy" |
                sed "s/\"l1_assoc\": 1,/\"l1_assoc\": $assoc,/" \
                > "$dd_dir/request.json"
            grep -q "\"l1_assoc\": $assoc," "$dd_dir/request.json" || {
                echo "could not author an l1_assoc $assoc request" >&2
                exit 1
            }
            TLC_SIMD=scalar build/examples/design_explorer \
                --request="$dd_dir/request.json" > "$dd_dir/scalar.json"
            TLC_SIMD=native build/examples/design_explorer \
                --request="$dd_dir/request.json" > "$dd_dir/native.json"
            cmp "$dd_dir/scalar.json" "$dd_dir/native.json" || {
                echo "TLC_SIMD=scalar l1_assoc $assoc $policy response" \
                     "differs from native dispatch" >&2
                exit 1
            }
        done
    done
    rm -rf "$dd_dir"
}

run_recovery() {
    # Recovery drills for the fault-isolated sweep supervisor. Every
    # drill is a differential against the plain in-process sweep: the
    # supervisor's whole contract is "same bytes out, whatever the
    # workers do", so any divergence — including a fault that was
    # supposed to be absorbed by retry — fails the tier.
    echo "== recovery drills: supervised sweep differentials =="
    rec_dir=$(mktemp -d)
    build/examples/design_explorer --refs=50000 --quiet \
        > "$rec_dir/inproc.txt"

    # Fault-free isolation must be invisible in the output.
    build/examples/design_explorer --refs=50000 --quiet \
        --isolate=process > "$rec_dir/isolate.txt"
    cmp "$rec_dir/inproc.txt" "$rec_dir/isolate.txt" || {
        echo "isolated sweep output differs from in-process" >&2
        exit 1
    }

    # A worker that crashes once is retried; the sweep self-heals.
    build/examples/design_explorer --refs=50000 --quiet \
        --isolate=process --inject-crash-at=12 --inject-times=1 \
        > "$rec_dir/crash.txt"
    cmp "$rec_dir/inproc.txt" "$rec_dir/crash.txt" || {
        echo "transient worker crash leaked into sweep output" >&2
        exit 1
    }

    # A worker that hangs once (ignoring SIGTERM) is killed by the
    # watchdog and retried; the sweep self-heals.
    build/examples/design_explorer --refs=50000 --quiet \
        --isolate=process --inject-hang-at=12 --inject-times=1 \
        --shard-timeout=2 > "$rec_dir/hang.txt"
    cmp "$rec_dir/inproc.txt" "$rec_dir/hang.txt" || {
        echo "transient worker hang leaked into sweep output" >&2
        exit 1
    }

    # SIGKILL the supervisor mid-sweep, then --resume against the
    # store the workers were appending to: the finished run must be
    # byte-identical. (If the first run wins the race and completes,
    # the resume differential still has to hold.)
    build/examples/design_explorer --refs=50000 --quiet \
        --isolate=process --result-store="$rec_dir/sweep.tlrs" \
        > /dev/null 2>&1 &
    victim=$!
    sleep 1
    kill -KILL "$victim" 2>/dev/null || true
    wait "$victim" 2>/dev/null || true
    sleep 1   # let any orphaned worker drain its final append
    build/examples/design_explorer --refs=50000 --quiet \
        --isolate=process --result-store="$rec_dir/sweep.tlrs" \
        --resume > "$rec_dir/resumed.txt"
    cmp "$rec_dir/inproc.txt" "$rec_dir/resumed.txt" || {
        echo "--resume after SIGKILLed supervisor diverged" >&2
        exit 1
    }

    # The deterministic misbehaviour modes the drills above rely on:
    # --mode=crash must die by signal, --mode=hang must survive
    # SIGTERM and only yield to SIGKILL (rc 137 from timeout -s KILL).
    rc=0
    build/tools/trace_fuzz --mode=crash --at=5 >/dev/null 2>&1 || rc=$?
    [ "$rc" -ge 128 ] || {
        echo "trace_fuzz --mode=crash exited $rc, expected a signal" >&2
        exit 1
    }
    rc=0
    timeout -s KILL 2 build/tools/trace_fuzz --mode=hang --at=5 \
        >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 137 ] || {
        echo "trace_fuzz --mode=hang exited $rc, expected 137" >&2
        exit 1
    }
    rm -rf "$rec_dir"
}

run_asan() {
    # The fault-injection and store-corruption tests only prove "no
    # memory error on corrupt input" when the memory errors would
    # actually be reported, so build those suites again with the
    # sanitizers on and run a longer fuzz pass. The supervisor and
    # telemetry suites drive the worker frame decoders; their crash
    # drills raise a real SIGSEGV that must kill the worker by
    # signal, so ASan's own SEGV handler stays out of the way. The
    # batch differential runs the lane kernels — the only production
    # simulator — whose raw tag-row arithmetic, prefetches and mmap
    # tag allocator are exactly what the sanitizers watch.
    echo "== tier asan: robustness suites under ASan+UBSan =="
    configure build-asan -DTLC_SANITIZE=ON
    cmake --build build-asan --target test_robustness \
        test_result_store test_supervisor test_telemetry test_batch \
        trace_fuzz
    build-asan/tests/test_robustness
    build-asan/tests/test_result_store
    ASAN_OPTIONS=handle_segv=0 build-asan/tests/test_supervisor
    ASAN_OPTIONS=handle_segv=0 build-asan/tests/test_telemetry
    build-asan/tests/test_batch
    build-asan/tools/trace_fuzz --rounds=100 --refs=2000
    # ~3 KB traces never leave the readers' first 64 KiB block; these
    # ~300 KB ones cross several block boundaries in both formats.
    build-asan/tools/trace_fuzz --rounds=5 --refs=200000
}

run_tsan() {
    # The parallel differential only proves "parallel == serial" when
    # data races would actually be reported, so build the parallel
    # suite (thread pool, differential, golden figures) and the
    # batched-engine differential under ThreadSanitizer and run them
    # with a multi-thread worker team.
    echo "== tier tsan: parallel suites under TSan =="
    configure build-tsan -DTLC_TSAN=ON
    cmake --build build-tsan --target test_parallel test_batch
    TLC_THREADS=4 build-tsan/tests/test_parallel
    TLC_THREADS=4 build-tsan/tests/test_batch
}

run_smoke() {
    echo "== tier smoke: build =="
    build_main

    echo "== smoke-running bench drivers at TLC_TRACE_SCALE=0.05 =="
    for b in build/bench/*; do
        echo "-- $(basename "$b")"
        TLC_TRACE_SCALE=0.05 "$b" > /dev/null
    done

    # Observability end to end: a tiny sweep with progress reporting,
    # a chrome trace, and a run manifest, each validated structurally.
    echo "== smoke-running observability surface =="
    obs_dir=$(mktemp -d)
    build/examples/design_explorer --refs=20000 --budget=500000 \
        --threads=2 --progress --trace-out="$obs_dir/trace.json" \
        --manifest="$obs_dir/manifest.json" \
        > /dev/null 2> "$obs_dir/stderr.txt"
    grep -q "^progress: " "$obs_dir/stderr.txt" || {
        echo "no progress lines on stderr" >&2
        exit 1
    }
    python3 tools/validate_trace.py --trace "$obs_dir/trace.json"
    python3 tools/validate_trace.py --manifest "$obs_dir/manifest.json"
    rm -rf "$obs_dir"

    # Cross-process telemetry end to end: the same sweep under
    # --isolate=process must stream worker metrics back (worker.<id>.*
    # namespaces in the --metrics-out dump), merge trace slices into
    # per-attempt pid tracks, and embed the per-shard attempt
    # timelines in the manifest's "supervisor" object — all validated
    # structurally (docs/observability.md).
    echo "== smoke-running isolated-mode telemetry surface =="
    iso_dir=$(mktemp -d)
    build/examples/design_explorer --refs=20000 --budget=500000 \
        --isolate=process --shard-points=16 --progress \
        --trace-out="$iso_dir/trace.json" \
        --manifest="$iso_dir/manifest.json" \
        --metrics-out="$iso_dir/metrics.json" \
        > /dev/null 2> "$iso_dir/stderr.txt"
    grep -q "^progress: " "$iso_dir/stderr.txt" || {
        echo "no streamed progress lines under --isolate=process" >&2
        exit 1
    }
    python3 tools/validate_trace.py --trace "$iso_dir/trace.json"
    python3 tools/validate_trace.py --manifest "$iso_dir/manifest.json"
    grep -q '"supervisor"' "$iso_dir/manifest.json" || {
        echo "isolated manifest lacks the supervisor timelines" >&2
        exit 1
    }
    python3 -c "import json, sys; json.load(open(sys.argv[1]))" \
        "$iso_dir/metrics.json"
    grep -q '"worker\.' "$iso_dir/metrics.json" || {
        echo "metrics dump lacks worker.<id>.* namespaces" >&2
        exit 1
    }
    if [ -n "$artifacts" ]; then
        cp "$iso_dir/metrics.json" "$artifacts/metrics.json"
        cp "$iso_dir/manifest.json" "$artifacts/manifest.json"
    fi
    rm -rf "$iso_dir"

    # The simulation-trace container round trip: trace_tool writes
    # the version-3 delta/zigzag format with a CRC-32 footer over the
    # decoded records, and the validator re-decodes it independently.
    echo "== smoke-running sim-trace container round trip =="
    sim_dir=$(mktemp -d)
    build/examples/trace_tool generate --bench=gcc1 --refs=30000 \
        --out="$sim_dir/gcc1.trace" > /dev/null
    python3 tools/validate_trace.py --sim-trace "$sim_dir/gcc1.trace"
    rm -rf "$sim_dir"

    # The persistent result store end to end: a cold sweep fills the
    # store, the warm --resume rerun must print byte-identical output,
    # and --resume against a store that does not exist must refuse.
    echo "== smoke-running result store / resume round trip =="
    store_dir=$(mktemp -d)
    build/examples/design_explorer --refs=20000 \
        --result-store="$store_dir/sweep.tlrs" > "$store_dir/cold.txt"
    build/examples/design_explorer --refs=20000 \
        --result-store="$store_dir/sweep.tlrs" --resume \
        > "$store_dir/warm.txt"
    cmp "$store_dir/cold.txt" "$store_dir/warm.txt" || {
        echo "warm --resume sweep output differs from cold" >&2
        exit 1
    }
    if build/examples/design_explorer --refs=20000 \
        --result-store="$store_dir/nonexistent.tlrs" --resume \
        > /dev/null 2>&1; then
        echo "--resume accepted a store file that does not exist" >&2
        exit 1
    fi
    rm -rf "$store_dir"

    # The sweep service end to end (docs/service.md): author a
    # request file with tlc_client --print-request, serve it twice
    # through a live tlcd (cold then warm), once through the CLI
    # --request path, and require all three responses byte-identical
    # — with the warm client's stats proving every point came from
    # the shared result store. SIGTERM must drain and exit 0.
    echo "== smoke-running sweep-service daemon drill =="
    svc_dir=$(mktemp -d)
    build/tools/tlc_client --print-request --bench=gcc1 \
        --refs=20000 --tag=drill > "$svc_dir/request.json"
    build/tools/tlcd --socket="$svc_dir/tlcd.sock" \
        --result-store="$svc_dir/store.tlcr" \
        > "$svc_dir/tlcd.log" 2>&1 &
    svc_pid=$!
    for _ in $(seq 1 100); do
        [ -S "$svc_dir/tlcd.sock" ] && break
        sleep 0.1
    done
    [ -S "$svc_dir/tlcd.sock" ] || {
        echo "tlcd never bound its socket" >&2
        cat "$svc_dir/tlcd.log" >&2
        exit 1
    }
    build/tools/tlc_client --socket="$svc_dir/tlcd.sock" \
        --request="$svc_dir/request.json" \
        --out="$svc_dir/cold.json"
    build/tools/tlc_client --socket="$svc_dir/tlcd.sock" \
        --request="$svc_dir/request.json" \
        --out="$svc_dir/warm.json" \
        --stats-out="$svc_dir/warm_stats.json"
    build/examples/design_explorer \
        --request="$svc_dir/request.json" > "$svc_dir/cli.json"
    cmp "$svc_dir/cold.json" "$svc_dir/warm.json" || {
        echo "warm daemon response differs from cold" >&2
        exit 1
    }
    cmp "$svc_dir/cold.json" "$svc_dir/cli.json" || {
        echo "daemon response differs from --request CLI" >&2
        exit 1
    }
    python3 - "$svc_dir/warm_stats.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["schema"] == "tlc-sweep-stats-v1", s
assert s["store_hits"] > 0 and s["store_misses"] == 0, s
EOF
    kill -TERM "$svc_pid"
    wait "$svc_pid" || {
        echo "tlcd did not exit 0 on SIGTERM" >&2
        cat "$svc_dir/tlcd.log" >&2
        exit 1
    }
    rm -rf "$svc_dir"

    # The layered benchmark (bench/layers/README.md), built as its own
    # project and run once over every workload in quick mode. It exits
    # nonzero on any failed output check: every HierarchyStats field
    # of all five workloads, batch against solo, warm served responses
    # against cold ones, and each seed-0 digest against pins.json.
    # Timings are printed, never gated here.
    echo "== smoke-running bench_layers --workload=all --quick =="
    configure build/layers -S bench/layers
    cmake --build build/layers --target bench_layers
    layers_out=$(mktemp)
    build/layers/bench_layers --workload=all --quick > "$layers_out" || {
        cat "$layers_out"
        echo "bench_layers --quick failed a check or a pinned digest" >&2
        exit 1
    }
    if [ -n "$artifacts" ]; then
        cp "$layers_out" "$artifacts/bench_layers_quick.txt"
        grep '^record ' "$layers_out" > "$artifacts/bench_layers.records"
    fi
    rm -f "$layers_out"
}

case "$tier" in
  fast)  run_fast ;;
  asan)  run_asan ;;
  tsan)  run_tsan ;;
  smoke) run_smoke ;;
  full)
    run_fast
    run_smoke
    run_asan
    run_tsan
    ;;
esac

echo "== tier '$tier' passed =="
