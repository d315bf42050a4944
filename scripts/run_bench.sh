#!/usr/bin/env bash
# Runs the google-benchmark perf binaries and records their JSON output at
# the repo root for per-PR performance trajectory tracking:
#   BENCH_pipeline.json  <- bench/perf_pipeline (collection + pipeline)
#   BENCH_linalg.json    <- bench/perf_linalg   (QR / QRCP / LS kernels)
#   BENCH_service.json   <- bench/service_load  (wire->queue->engine stack;
#                           latency scraped over STATS frames)
#
# Every output is stamped with a `catalyst_provenance` object (git SHA, UTC
# timestamp, compiler, build type, and the catalyst::obs run manifest) so a
# BENCH_*.json can always be traced back to the exact commit + configuration
# that produced it.  If an existing BENCH file carries a provenance stamp
# from a *different* commit, the script refuses to overwrite it unless
# --force is given -- stale-looking numbers should be replaced deliberately.
#
# bench/obs_overhead runs FIRST and aborts the whole bench run if tracing
# overhead exceeds its <2% budget: perf numbers recorded while observability
# is over budget would be misleading.
#
# Only Release builds may stamp the canonical BENCH_*.json files: numbers
# from -O0/debug builds would silently corrupt the per-PR perf trajectory.
# --allow-debug keeps the run possible for local smoke tests but writes a
# BENCH_<name>.debug.json sidecar instead of touching the canonical file.
#
# Usage: scripts/run_bench.sh [build-dir] [--force] [--allow-debug]
#                             [extra benchmark args...]
#   scripts/run_bench.sh                       # default ./build
#   scripts/run_bench.sh build --force
#   scripts/run_bench.sh build --benchmark_filter=BM_Measure
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build"
force=0
allow_debug=0
extra_args=()
for arg in "$@"; do
  case "$arg" in
    --force)       force=1 ;;
    --allow-debug) allow_debug=1 ;;
    --*)           extra_args+=("$arg") ;;
    *)             build_dir="$arg" ;;
  esac
done

git_sha="$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)"
timestamp_utc="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
cache="$build_dir/CMakeCache.txt"
build_type=unknown
compiler=unknown
if [ -f "$cache" ]; then
  build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$cache" | head -n1)"
  [ -n "$build_type" ] || build_type=unknown
  cxx="$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' "$cache" | head -n1)"
  if [ -n "$cxx" ] && [ -x "$cxx" ]; then
    compiler="$("$cxx" --version 2>/dev/null | head -n1)"
  fi
fi

# Gate: never stamp the canonical BENCH files from a non-Release build.
out_suffix=""
if [ "$build_type" != "Release" ]; then
  if [ "$allow_debug" -ne 1 ]; then
    echo "error: $build_dir is a '$build_type' build; BENCH_*.json numbers \
must come from a Release build.  Reconfigure with \
-DCMAKE_BUILD_TYPE=Release, or pass --allow-debug to record a \
BENCH_<name>.debug.json sidecar instead" >&2
    exit 1
  fi
  out_suffix=".debug"
  echo "warning: '$build_type' build; writing BENCH_<name>.debug.json \
sidecars, canonical BENCH_*.json untouched" >&2
fi

# Gate: observability overhead budget.  Perf numbers are only worth recording
# when catalyst::obs is within its <2% envelope.
overhead_bin="$build_dir/bench/obs_overhead"
if [ ! -x "$overhead_bin" ]; then
  echo "error: $overhead_bin not built (run: cmake --build $build_dir)" >&2
  exit 1
fi
echo "== obs_overhead (budget gate)"
"$overhead_bin" || {
  echo "error: obs overhead budget exceeded; not recording bench results" >&2
  exit 1
}

# Refuse cross-commit overwrites up front, before any slow bench runs.
if [ "$force" -ne 1 ]; then
  for name in pipeline linalg service; do
    out="$repo_root/BENCH_$name$out_suffix.json"
    [ -f "$out" ] || continue
    old_sha="$(python3 - "$out" <<'PY'
import json, sys
try:
    with open(sys.argv[1], encoding="utf-8") as f:
        doc = json.load(f)
    print(doc.get("catalyst_provenance", {}).get("git_sha", ""))
except Exception:
    print("")
PY
)"
    if [ -n "$old_sha" ] && [ "$old_sha" != "$git_sha" ]; then
      echo "error: $out was recorded at commit $old_sha but HEAD is \
$git_sha; pass --force to overwrite" >&2
      exit 1
    fi
  done
fi

# Capture a run manifest from the CLI so each BENCH file embeds the full
# pipeline configuration (tau/alpha, stage timings, funnel counts).
manifest_json="$(mktemp)"
trap 'rm -f "$manifest_json"' EXIT
cli_bin="$build_dir/tools/catalyst"
if [ -x "$cli_bin" ]; then
  echo "== catalyst analyze branch --manifest-out (provenance manifest)"
  CATALYST_GIT_SHA="$git_sha" \
    "$cli_bin" analyze branch --manifest-out "$manifest_json" > /dev/null
else
  echo "warning: $cli_bin not built; provenance will omit the run manifest" >&2
  printf 'null' > "$manifest_json"
fi

# stamp_provenance RESULT OUT: writes the JSON document RESULT to OUT with a
# `catalyst_provenance` object added, then removes RESULT.
stamp_provenance() {
  GIT_SHA="$git_sha" TIMESTAMP_UTC="$timestamp_utc" \
  BUILD_TYPE="$build_type" COMPILER="$compiler" \
  python3 - "$1" "$manifest_json" "$2" <<'PY'
import json, os, sys

bench_path, manifest_path, out_path = sys.argv[1:4]
with open(bench_path, encoding="utf-8") as f:
    doc = json.load(f)
with open(manifest_path, encoding="utf-8") as f:
    manifest = json.load(f)
doc["catalyst_provenance"] = {
    "git_sha": os.environ["GIT_SHA"],
    "timestamp_utc": os.environ["TIMESTAMP_UTC"],
    "build_type": os.environ["BUILD_TYPE"],
    "compiler": os.environ["COMPILER"],
    "run_manifest": manifest,
}
with open(out_path, "w", encoding="utf-8") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
PY
  rm -f "$1"
}

for name in pipeline linalg; do
  bin="$build_dir/bench/perf_$name"
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (configure with -DCATALYST_BUILD_BENCH=ON \
and run: cmake --build $build_dir)" >&2
    exit 1
  fi
  out="$repo_root/BENCH_$name$out_suffix.json"
  tmp_out="$(mktemp)"
  echo "== perf_$name -> $out"
  "$bin" --benchmark_out="$tmp_out" --benchmark_out_format=json \
         ${extra_args[@]+"${extra_args[@]}"}

  stamp_provenance "$tmp_out" "$out"
done

# service_load is not a google-benchmark binary: it writes its own result
# document (--json-out) after pushing a closed-loop load through the full
# wire->queue->engine stack, with latency scraped back over STATS frames.
bin="$build_dir/bench/service_load"
if [ ! -x "$bin" ]; then
  echo "error: $bin not built (run: cmake --build $build_dir)" >&2
  exit 1
fi
out="$repo_root/BENCH_service$out_suffix.json"
tmp_out="$(mktemp)"
echo "== service_load -> $out"
"$bin" --json-out "$tmp_out"

stamp_provenance "$tmp_out" "$out"
