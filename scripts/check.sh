#!/usr/bin/env bash
# catalyst correctness-analysis driver.
#
# Runs the full verification matrix in order of increasing cost:
#
#   1. catalyst-lint        repo-specific static checks (tools/catalyst_lint.py)
#   1b. quick               unit/linalg-labeled tests only; the
#                           sub-minute developer tier, budget-enforced (<60s)
#   2. Release build + ctest    the default configuration users get
#   3. ASan+UBSan build + ctest heap/UB errors the Release build hides
#   4. TSan build + ctest       data races in the worker pool: collection,
#                               chunked lstsq, cache chase, catalystd
#                               workers
#   4b. tsan_linalg             the linalg suite alone under TSan (chunked
#                               block lstsq, the whole pipeline at 1-4
#                               threads and the default, QRCP run from
#                               several threads)
#   5. fault_pipeline           Tables V-VIII pipeline under the canonical
#                               mid-rate FaultPlan vs the clean goldens
#   5b. collection_modes        counting-vs-sampling recovery oracle, quick
#                               ratchet tier (bench/ablation_collection_modes
#                               --quick), budget-enforced (<60s)
#   6. obs                      an untraced run's peak RSS stays under 16 MB;
#                               trace + run-manifest artifacts are schema-valid
#                               (clean and under injected faults)
#   7. clang-tidy               if clang-tidy is installed (SKIPPED otherwise)
#
# The thread_safety stage (between quick/release and the sanitizers) builds
# the tree under Clang with -Werror=thread-safety*; it is SKIPPED with a
# visible line when clang++ is not installed -- the annotations are no-ops
# under gcc, so only a Clang build can check them.
#
# Every selected stage runs even after a failure; a PASS/FAIL/SKIP summary
# table prints at the end and the exit code is capped at 1 (any failure)
# so CI wrappers and `$?` checks behave predictably.  Stages can be
# selected:
#   scripts/check.sh              # everything
#   scripts/check.sh lint release # just those stages
#
# Build trees go to build-check-<stage> so they never collide with a
# developer's ./build.

set -u

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"

JOBS="$(nproc 2>/dev/null || echo 4)"
FAILURES=0
STAGE_NAMES=()
STAGE_RESULTS=()

note() { printf '\n==== %s ====\n' "$*"; }

# A stage function returns 0 (PASS), 77 (SKIP: a tool the stage needs is not
# installed -- the automake convention), or anything else (FAIL).  Failures
# do not stop the run; the summary table and capped exit code report them.
run_stage() {
    local name="$1"; shift
    note "$name"
    local rc=0
    "$@" || rc=$?
    if [ "$rc" -eq 0 ]; then
        printf '==== %s: OK ====\n' "$name"
        STAGE_RESULTS+=("PASS")
    elif [ "$rc" -eq 77 ]; then
        printf '==== %s: SKIPPED ====\n' "$name"
        STAGE_RESULTS+=("SKIP")
    else
        printf '==== %s: FAILED ====\n' "$name" >&2
        FAILURES=$((FAILURES + 1))
        STAGE_RESULTS+=("FAIL")
    fi
    STAGE_NAMES+=("$name")
}

build_and_test() {
    local dir="$1"; shift
    mkdir -p "$dir"
    cmake -B "$dir" -S . "$@" > "$dir/configure.log" 2>&1 \
        || { cat "$dir/configure.log"; return 1; }
    cmake --build "$dir" -j "$JOBS" > "$dir/build.log" 2>&1 \
        || { tail -n 60 "$dir/build.log"; return 1; }
    (cd "$dir" && ctest --output-on-failure -j "$JOBS" --timeout 300)
}

stage_lint() {
    # The 5s budget keeps the full-repo lint cheap enough to never skip;
    # the selftest keeps the linter itself honest.
    python3 tools/catalyst_lint.py --max-seconds 5 \
        && python3 tools/catalyst_lint.py --selftest
}

stage_release() {
    build_and_test build-check-release -DCMAKE_BUILD_TYPE=Release
}

stage_quick() {
    # The sub-minute developer tier: unit-labeled ctest entries only (see
    # tests/CMakeLists.txt for the label taxonomy).  The 60s budget is
    # enforced -- a unit test that outgrows it belongs in integration/slow.
    local dir=build-check-release
    mkdir -p "$dir"
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release > "$dir/configure.log" 2>&1 \
        || { cat "$dir/configure.log"; return 1; }
    cmake --build "$dir" -j "$JOBS" > "$dir/build.log" 2>&1 \
        || { tail -n 60 "$dir/build.log"; return 1; }
    local start end elapsed
    start="$(date +%s)"
    (cd "$dir" && ctest --output-on-failure -L 'unit|linalg' -j "$JOBS" --timeout 120) \
        || return 1
    end="$(date +%s)"
    elapsed=$((end - start))
    printf 'quick tier wall time: %ss (budget 60s)\n' "$elapsed"
    if [ "$elapsed" -ge 60 ]; then
        printf 'quick tier exceeded its 60s budget\n' >&2
        return 1
    fi
}

stage_thread_safety() {
    # Clang thread-safety analysis over the whole tree (src/sync carries the
    # capability annotations; -DCATALYST_THREAD_SAFETY=ON promotes the
    # -Wthread-safety* groups to errors).  Build-only: with the warnings
    # -Werror'd, a clean build IS the pass.  gcc compiles the annotations
    # to nothing, so without clang++ this stage can only be skipped --
    # loudly, so nobody mistakes a skip for a pass.
    if ! command -v clang++ > /dev/null 2>&1; then
        echo "SKIPPED: clang++ not installed; thread-safety analysis needs Clang"
        return 77
    fi
    local dir=build-check-threadsafety
    mkdir -p "$dir"
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
        -DCATALYST_THREAD_SAFETY=ON > "$dir/configure.log" 2>&1 \
        || { cat "$dir/configure.log"; return 1; }
    ln -sfn "$dir/compile_commands.json" compile_commands.json
    cmake --build "$dir" -j "$JOBS" > "$dir/build.log" 2>&1 \
        || { tail -n 60 "$dir/build.log"; return 1; }
}

stage_asan_ubsan() {
    build_and_test build-check-asan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCATALYST_ASAN=ON -DCATALYST_UBSAN=ON
}

stage_tsan() {
    build_and_test build-check-tsan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCATALYST_TSAN=ON
}

stage_tsan_linalg() {
    # Focused race hunt on the linalg-labelled suite (which drives the
    # chunked block lstsq, pipeline_property_test's threaded collection
    # and projection, and QRCP run from several threads at once) under
    # TSan.  Reuses the full-TSan tree so the
    # targeted run is cheap after (or instead of) the whole-suite tsan
    # stage.
    local dir=build-check-tsan
    mkdir -p "$dir"
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCATALYST_TSAN=ON > "$dir/configure.log" 2>&1 \
        || { cat "$dir/configure.log"; return 1; }
    cmake --build "$dir" -j "$JOBS" > "$dir/build.log" 2>&1 \
        || { tail -n 60 "$dir/build.log"; return 1; }
    (cd "$dir" && ctest --output-on-failure -L linalg --no-tests=error --timeout 300)
}

stage_fault_pipeline() {
    # The full paper pipeline under the canonical mid-rate fault plan must
    # reproduce the clean kept events + rounded coefficients (the resilient
    # driver's bit-identity claim, end to end).  Reuses the release tree.
    local dir=build-check-release
    mkdir -p "$dir"
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release > "$dir/configure.log" 2>&1 \
        || { cat "$dir/configure.log"; return 1; }
    cmake --build "$dir" -j "$JOBS" > "$dir/build.log" 2>&1 \
        || { tail -n 60 "$dir/build.log"; return 1; }
    (cd "$dir" && ctest --output-on-failure -R '^fault_pipeline$' --timeout 300)
}

stage_collection_modes() {
    # The counting-vs-sampling recovery oracle: sweep the quick ratchet of
    # sampling ratios and fail on any wrong-model recovery (counting must be
    # >=95% exact with zero wrong; sampling/strobed may degrade but may
    # never recover a wrong model).  The oracle binary enforces those gates
    # itself; this stage just keeps it wired into CI under a time budget.
    # Reuses the release tree.
    local dir=build-check-release
    mkdir -p "$dir"
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release > "$dir/configure.log" 2>&1 \
        || { cat "$dir/configure.log"; return 1; }
    cmake --build "$dir" -j "$JOBS" \
        --target ablation_collection_modes > "$dir/build.log" 2>&1 \
        || { tail -n 60 "$dir/build.log"; return 1; }
    local start elapsed rc=0
    start="$(date +%s)"
    "$dir/bench/ablation_collection_modes" --quick || rc=1
    elapsed=$(( $(date +%s) - start ))
    printf 'collection-modes oracle wall time: %ss (budget 60s)\n' "$elapsed"
    if [ "$elapsed" -ge 60 ]; then
        printf 'collection-modes oracle exceeded its 60s budget\n' >&2
        return 1
    fi
    return "$rc"
}

stage_obs() {
    # Not observing must stay cheap: an untraced run's peak RSS is bounded.
    # The observability artifacts (--trace-out / --manifest-out) must be
    # schema-valid both on a clean run and under the canonical mid-rate
    # fault plan (where retry/backoff spans appear).  Then a short-lived
    # daemon proves the live-telemetry artifacts: a STATS scrape (wire ->
    # snapshot -> exposition), a per-request trace fragment fetched by id,
    # and a SIGUSR1 flight-recorder dump, each run through the schema
    # checker.  Reuses the release tree.
    local dir=build-check-release
    mkdir -p "$dir"
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release > "$dir/configure.log" 2>&1 \
        || { cat "$dir/configure.log"; return 1; }
    cmake --build "$dir" -j "$JOBS" \
        --target catalyst catalystd catalyst_client > "$dir/build.log" 2>&1 \
        || { tail -n 60 "$dir/build.log"; return 1; }
    local tmp
    tmp="$(mktemp -d)" || return 1
    local rc=0
    # Fixed cost of not observing: an untraced one-shot run leaves the trace
    # ring's record pages unfaulted, so its peak RSS (the child's
    # ru_maxrss, in KiB on Linux) stays under 16 MB.  Linux carries the
    # spawning process's RSS into the child's ru_maxrss at exec, so the
    # reading is bounded below by this interpreter's; -I -S and no imports
    # beyond os/sys keep that floor (printed too) at about 8 MB.
    python3 -I -S - "$dir/tools/catalyst" <<'EOF' || rc=1
import os, sys
limit_mb = 16
def peak_mb(argv):
    null = os.open(os.devnull, os.O_WRONLY)
    pid = os.posix_spawn(argv[0], argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, null, 1)])
    _, status, usage = os.wait4(pid, 0)
    return usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)
floor_mb, _ = peak_mb(["/bin/true"])
peak, code = peak_mb([sys.argv[1], "analyze", "branch"])
print(f"untraced analyze branch: peak RSS {peak:.1f} MB (limit {limit_mb} MB, "
      f"spawner floor {floor_mb:.1f} MB), exit {code}")
sys.exit(0 if code == 0 and peak <= limit_mb else 1)
EOF
    [ "$rc" -eq 0 ] && "$dir/tools/catalyst" analyze branch \
        --trace-out "$tmp/trace.json" --manifest-out "$tmp/manifest.json" \
        --stats > "$tmp/report.md" || rc=1
    [ "$rc" -eq 0 ] && python3 tools/trace_schema_check.py --kind trace \
        "$tmp/trace.json" \
        --require-span stage.collect --require-span stage.noise_filter \
        --require-span stage.projection --require-span stage.qrcp \
        --require-span stage.metrics || rc=1
    [ "$rc" -eq 0 ] && python3 tools/trace_schema_check.py --kind manifest \
        "$tmp/manifest.json" --require-span stage.qrcp || rc=1
    # Faulty run: retry + backoff spans must show up and still validate.
    [ "$rc" -eq 0 ] && "$dir/tools/catalyst" collect branch --faults mid \
        --out "$tmp/archive.json" \
        --trace-out "$tmp/trace_faults.json" > "$tmp/collect.md" || rc=1
    [ "$rc" -eq 0 ] && python3 tools/trace_schema_check.py --kind trace \
        "$tmp/trace_faults.json" --require-span collect.retry \
        --require-span collect.backoff || rc=1
    # Live telemetry artifacts, via a short-lived daemon serving the archive
    # the faulty collect just wrote.
    if [ "$rc" -eq 0 ]; then
        local sock="$tmp/obsd.sock" dpid="" i
        "$dir/tools/catalystd" --socket "$sock" \
            --flight-dump "$tmp/flight.json" > "$tmp/obsd.log" 2>&1 &
        dpid=$!
        for i in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
        [ -S "$sock" ] \
            || { echo "obs daemon never bound $sock" >&2
                 cat "$tmp/obsd.log" >&2; rc=1; }
        [ "$rc" -eq 0 ] && { "$dir/tools/catalyst_client" --socket "$sock" \
            submit branch --from "$tmp/archive.json" --trace-id 4242 --wait \
            > /dev/null || rc=1; }
        # STATS round trip: the scraped exposition is a valid metrics doc.
        [ "$rc" -eq 0 ] && { "$dir/tools/catalyst_client" --socket "$sock" \
            stats > "$tmp/stats.json" || rc=1; }
        [ "$rc" -eq 0 ] && python3 tools/trace_schema_check.py --kind metrics \
            "$tmp/stats.json" || rc=1
        # The traced request's fragment is itself a valid Chrome trace.
        [ "$rc" -eq 0 ] && { "$dir/tools/catalyst_client" --socket "$sock" \
            trace 4242 > "$tmp/fragment.json" || rc=1; }
        [ "$rc" -eq 0 ] && python3 tools/trace_schema_check.py --kind trace \
            "$tmp/fragment.json" --require-span service.request || rc=1
        # SIGUSR1 dumps the flight ring; the dump is atomic, so existence
        # means complete.
        if [ "$rc" -eq 0 ]; then
            kill -USR1 "$dpid"
            for i in $(seq 1 50); do
                [ -f "$tmp/flight.json" ] && break; sleep 0.1
            done
            [ -f "$tmp/flight.json" ] \
                || { echo "SIGUSR1 produced no flight dump" >&2; rc=1; }
        fi
        [ "$rc" -eq 0 ] && python3 tools/trace_schema_check.py --kind flight \
            "$tmp/flight.json" --require-trace 4242 || rc=1
        if [ -n "$dpid" ]; then
            kill -TERM "$dpid" 2>/dev/null
            wait "$dpid" || rc=1
        fi
    fi
    rm -rf "$tmp"
    return "$rc"
}

stage_service_soak() {
    # catalystd under abuse: the service-labeled ctest tier, then a live
    # daemon serving an honest client fleet alongside a garbage sender and a
    # slow loris -- zero crashes, typed errors only, byte-identical reports
    # vs the CLI path, monotone mid-load STATS scrapes, a trace fragment
    # fetched by id, a SIGUSR1 flight dump, a clean mid-load SIGTERM drain,
    # and a restart on the same checkpoint directory.  Budget-enforced
    # (<60s).  Reuses the release tree.
    local dir=build-check-release
    mkdir -p "$dir"
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release > "$dir/configure.log" 2>&1 \
        || { cat "$dir/configure.log"; return 1; }
    cmake --build "$dir" -j "$JOBS" \
        --target catalystd catalyst_client catalyst service_protocol_test \
                 service_telemetry_test \
        > "$dir/build.log" 2>&1 || { tail -n 60 "$dir/build.log"; return 1; }
    local start tmp rc=0
    start="$(date +%s)"
    tmp="$(mktemp -d)" || return 1
    local sock="$tmp/catalystd.sock" log="$tmp/daemon.log" ckpt="$tmp/ckpt"
    local daemon_pid=""

    # Protocol + byte-identity tests with the sockets cut away.
    (cd "$dir" && ctest --output-on-failure -L service --no-tests=error \
        --timeout 120) || rc=1

    # One measurement archive serves every client below.
    [ "$rc" -eq 0 ] && { "$dir/tools/catalyst" collect branch \
        --out "$tmp/archive.json" > /dev/null || rc=1; }

    if [ "$rc" -eq 0 ]; then
        "$dir/tools/catalystd" --socket "$sock" --checkpoint-dir "$ckpt" \
            --partial-frame-timeout-ms 300 \
            --flight-dump "$tmp/flight.json" > "$log" 2>&1 &
        daemon_pid=$!
        local i
        for i in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
        [ -S "$sock" ] \
            || { echo "daemon never bound $sock" >&2; cat "$log" >&2; rc=1; }
    fi

    # Byte identity over the live socket: the served report must appear
    # verbatim inside the CLI report for the same archive (the CLI adds a
    # preamble; the event/metric tables themselves are byte-identical).
    if [ "$rc" -eq 0 ]; then
        "$dir/tools/catalyst" analyze branch --from "$tmp/archive.json" \
            > "$tmp/cli.txt" || rc=1
        "$dir/tools/catalyst_client" --socket "$sock" submit branch \
            --from "$tmp/archive.json" --wait > "$tmp/svc.txt" || rc=1
        [ "$rc" -eq 0 ] && python3 - "$tmp/cli.txt" "$tmp/svc.txt" <<'EOF' || rc=1
import sys
cli, svc = open(sys.argv[1]).read(), open(sys.argv[2]).read()
sys.exit(0 if svc and svc in cli else 1)
EOF
    fi

    # The abuse fleet: honest clients + a garbage sender (expects a typed
    # ERROR, never a crash) + a slow loris (expects to be cut off).  While
    # it runs, scrape STATS twice: both polls must be schema-valid metrics
    # expositions and no counter may go backwards between them.
    if [ "$rc" -eq 0 ]; then
        "$dir/tools/catalyst_client" --socket "$sock" soak \
            --clients 4 --requests 6 --category branch \
            --from "$tmp/archive.json" \
            --garbage --slow-loris --dribble-ms 150 \
            > "$tmp/soak1.log" 2>&1 &
        local fleet_pid=$!
        "$dir/tools/catalyst_client" --socket "$sock" stats \
            > "$tmp/stats1.json" || rc=1
        sleep 0.3
        "$dir/tools/catalyst_client" --socket "$sock" stats \
            > "$tmp/stats2.json" || rc=1
        wait "$fleet_pid" \
            || { echo "abuse fleet failed" >&2; cat "$tmp/soak1.log" >&2
                 rc=1; }
        [ "$rc" -eq 0 ] && python3 tools/trace_schema_check.py --kind metrics \
            "$tmp/stats1.json" || rc=1
        [ "$rc" -eq 0 ] && python3 tools/trace_schema_check.py --kind metrics \
            "$tmp/stats2.json" --monotone-baseline "$tmp/stats1.json" || rc=1
    fi

    # A traced request's fragment is fetchable by id, and SIGUSR1 dumps a
    # flight ring that remembers it (the dump is written atomically, so
    # existence means complete).
    if [ "$rc" -eq 0 ]; then
        "$dir/tools/catalyst_client" --socket "$sock" submit branch \
            --from "$tmp/archive.json" --trace-id 9001 --wait \
            > /dev/null || rc=1
        [ "$rc" -eq 0 ] && { "$dir/tools/catalyst_client" --socket "$sock" \
            trace 9001 > "$tmp/fragment.json" || rc=1; }
        [ "$rc" -eq 0 ] && python3 tools/trace_schema_check.py --kind trace \
            "$tmp/fragment.json" --require-span service.request || rc=1
        if [ "$rc" -eq 0 ]; then
            kill -USR1 "$daemon_pid"
            for i in $(seq 1 50); do
                [ -f "$tmp/flight.json" ] && break; sleep 0.1
            done
            [ -f "$tmp/flight.json" ] \
                || { echo "SIGUSR1 produced no flight dump" >&2; rc=1; }
        fi
        [ "$rc" -eq 0 ] && python3 tools/trace_schema_check.py --kind flight \
            "$tmp/flight.json" --require-trace 9001 || rc=1
    fi

    # Mid-load SIGTERM: fire a bigger fleet, yank the daemon under it, and
    # require a clean drain (exit 0) from BOTH sides.
    if [ "$rc" -eq 0 ]; then
        "$dir/tools/catalyst_client" --socket "$sock" soak \
            --clients 2 --requests 200 --category branch \
            --from "$tmp/archive.json" > "$tmp/soak2.log" 2>&1 &
        local soak_pid=$!
        sleep 0.4
        kill -TERM "$daemon_pid"
        wait "$daemon_pid" \
            || { echo "daemon exited nonzero after SIGTERM" >&2
                 tail "$log" >&2; rc=1; }
        daemon_pid=""
        wait "$soak_pid" \
            || { echo "client fleet failed during the drain" >&2
                 cat "$tmp/soak2.log" >&2; rc=1; }
        [ "$rc" -eq 0 ] && { grep -q "drained" "$log" \
            || { echo "daemon log missing the drain banner" >&2; rc=1; }; }
    elif [ -n "$daemon_pid" ]; then
        kill -TERM "$daemon_pid" 2>/dev/null
        wait "$daemon_pid" 2>/dev/null
        daemon_pid=""
    fi

    # Restart on the same checkpoint directory: any work parked by the
    # SIGTERM is restored (the daemon says so) and the daemon serves again.
    if [ "$rc" -eq 0 ]; then
        rm -f "$sock"  # else the [ -S ] wait below sees the dead daemon's file
        "$dir/tools/catalystd" --socket "$sock" --checkpoint-dir "$ckpt" \
            > "$tmp/daemon2.log" 2>&1 &
        daemon_pid=$!
        for i in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
        "$dir/tools/catalyst_client" --socket "$sock" submit branch \
            --from "$tmp/archive.json" --wait > /dev/null || rc=1
        kill -TERM "$daemon_pid"
        wait "$daemon_pid" || rc=1
    fi

    rm -rf "$tmp"
    local elapsed=$(( $(date +%s) - start ))
    printf 'service soak wall time: %ss (budget 60s)\n' "$elapsed"
    if [ "$elapsed" -ge 60 ]; then
        printf 'service soak exceeded its 60s budget\n' >&2
        return 1
    fi
    return "$rc"
}

stage_tidy() {
    if ! command -v clang-tidy > /dev/null 2>&1; then
        echo "SKIPPED: clang-tidy not installed (install it to enable)"
        return 77
    fi
    local dir=build-check-tidy
    mkdir -p "$dir"
    # CMAKE_EXPORT_COMPILE_COMMANDS is on for every configure (top-level
    # CMakeLists); the symlink publishes this tree's database at the repo
    # root, where clang-tidy, clangd, and editors expect it.
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release > "$dir/configure.log" 2>&1 \
        || { cat "$dir/configure.log"; return 1; }
    ln -sfn "$dir/compile_commands.json" compile_commands.json
    # Headers are covered through HeaderFilterRegex in .clang-tidy.
    find src -name '*.cpp' -print0 \
        | xargs -0 -P "$JOBS" -n 8 clang-tidy -p "$dir" --quiet
}

ALL_STAGES="lint quick release thread_safety asan_ubsan tsan tsan_linalg fault_pipeline collection_modes obs service_soak tidy"
STAGES="${*:-$ALL_STAGES}"

for stage in $STAGES; do
    case "$stage" in
        lint)       run_stage "catalyst-lint" stage_lint ;;
        quick)      run_stage "quick tier (ctest -L 'unit|linalg')" stage_quick ;;
        release)    run_stage "Release build + tests" stage_release ;;
        thread_safety)
                    run_stage "Clang thread-safety analysis (-Werror)" \
                              stage_thread_safety ;;
        asan_ubsan) run_stage "ASan+UBSan build + tests" stage_asan_ubsan ;;
        tsan)       run_stage "TSan build + tests" stage_tsan ;;
        tsan_linalg)
                    run_stage "TSan linalg suite (blocked kernels, threads>1)" \
                              stage_tsan_linalg ;;
        fault_pipeline)
                    run_stage "fault-injected pipeline vs clean goldens" \
                              stage_fault_pipeline ;;
        collection_modes)
                    run_stage "collection-modes recovery oracle (quick ratchet)" \
                              stage_collection_modes ;;
        obs)        run_stage "obs artifact schema validation" stage_obs ;;
        service_soak)
                    run_stage "catalystd soak (fleet + garbage + loris + SIGTERM)" \
                              stage_service_soak ;;
        tidy)       run_stage "clang-tidy" stage_tidy ;;
        *)
            echo "unknown stage: $stage (choose from: $ALL_STAGES)" >&2
            exit 2
            ;;
    esac
done

# Per-stage summary; the exit code is capped at 1 no matter how many
# stages failed (an uncapped count could alias mod 256 -- e.g. 256
# failures would exit "0").
printf '\n==== summary ====\n'
for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-4s  %s\n' "${STAGE_RESULTS[$i]}" "${STAGE_NAMES[$i]}"
done
if [ "$FAILURES" -ne 0 ]; then
    printf '\n%d stage(s) failed\n' "$FAILURES" >&2
    exit 1
fi
printf '\nall stages passed\n'
exit 0
