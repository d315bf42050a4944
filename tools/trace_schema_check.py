#!/usr/bin/env python3
"""Schema validator for catalyst::obs artifacts.

Validates the four JSON formats the tools emit:

  * Chrome trace_event files (--trace-out,
    `catalyst_client trace <id>` fragments):  --kind trace
  * run manifests (--manifest-out):           --kind manifest
  * metrics expositions (STATS scrapes,
    `catalyst_client stats --json`):          --kind metrics
  * flight-recorder dumps (SIGUSR1 /
    crash-path --flight-dump files):          --kind flight

Usage:
  tools/trace_schema_check.py --kind trace run.json \
      --require-span stage.noise_filter --require-span stage.qrcp
  tools/trace_schema_check.py --kind manifest manifest.json
  tools/trace_schema_check.py --kind metrics stats2.json \
      --monotone-baseline stats1.json
  tools/trace_schema_check.py --kind flight flight.json --require-trace 77

Exit code 0 when the file is schema-valid (and every --require-span /
--require-trace / --monotone-baseline condition holds); 1 with a diagnostic
otherwise.  Stdlib only -- this runs in CI (scripts/check.sh obs and
service_soak) and in a ctest.
"""
from __future__ import annotations

import argparse
import json
import sys

MANIFEST_FORMAT = "catalyst-run-manifest-v1"
METRICS_FORMAT = "catalyst-metrics-v1"
FLIGHT_FORMAT = "catalyst-flight-recorder-v1"
FLIGHT_VERDICTS = ("ok", "cancelled", "deadline", "failed")


class SchemaError(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def is_uint(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_number_or_null(v) -> bool:
    # The exporters write a non-finite double as null (JSON has no inf/nan).
    return v is None or (isinstance(v, (int, float)) and
                         not isinstance(v, bool))


def check_trace(doc, required_spans) -> int:
    expect(isinstance(doc, dict), "trace root must be an object")
    expect("traceEvents" in doc, "trace missing 'traceEvents'")
    events = doc["traceEvents"]
    expect(isinstance(events, list), "'traceEvents' must be an array")
    seen = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        expect(isinstance(ev, dict), f"{where} must be an object")
        expect(ev.get("ph") == "X",
               f"{where}: ph must be 'X' (complete event), got {ev.get('ph')!r}")
        expect(isinstance(ev.get("name"), str) and ev["name"],
               f"{where}: missing/empty 'name'")
        for key in ("ts", "dur"):
            v = ev.get(key)
            expect(isinstance(v, (int, float)) and not isinstance(v, bool),
                   f"{where}: '{key}' must be a number")
            expect(v >= 0, f"{where}: '{key}' must be >= 0, got {v}")
        expect(is_uint(ev.get("pid")), f"{where}: 'pid' must be a non-negative int")
        expect(is_uint(ev.get("tid")), f"{where}: 'tid' must be a non-negative int")
        expect(isinstance(ev.get("args", {}), dict),
               f"{where}: 'args' must be an object")
        seen[ev["name"]] = seen.get(ev["name"], 0) + 1
    other = doc.get("otherData", {})
    expect(isinstance(other, dict), "'otherData' must be an object")
    counters = other.get("counters", {})
    expect(isinstance(counters, dict), "'otherData.counters' must be an object")
    for name, value in counters.items():
        expect(is_uint(value),
               f"counter '{name}' must be a non-negative int, got {value!r}")
    missing = [s for s in required_spans if s not in seen]
    expect(not missing, f"required span(s) never recorded: {', '.join(missing)}")
    print(f"trace OK: {len(events)} spans, {len(seen)} distinct names, "
          f"{len(counters)} counters")
    return 0


def check_manifest(doc, required_spans) -> int:
    expect(isinstance(doc, dict), "manifest root must be an object")
    expect(doc.get("format") == MANIFEST_FORMAT,
           f"manifest 'format' must be '{MANIFEST_FORMAT}', got "
           f"{doc.get('format')!r}")
    for key in ("tool", "category", "machine", "git_sha", "config",
                "config_hash"):
        expect(isinstance(doc.get(key), str) and doc[key],
               f"manifest '{key}' must be a non-empty string")
    expect(len(doc["config_hash"]) == 16 and
           all(c in "0123456789abcdef" for c in doc["config_hash"]),
           "manifest 'config_hash' must be 16 lowercase hex digits")
    for key in ("tau", "alpha"):
        expect(isinstance(doc.get(key), (int, float)) and
               not isinstance(doc.get(key), bool),
               f"manifest '{key}' must be a number")
    expect(is_uint(doc.get("repetitions")),
           "manifest 'repetitions' must be a non-negative int")
    stages = doc.get("stages")
    expect(isinstance(stages, list), "manifest 'stages' must be an array")
    stage_names = set()
    for i, st in enumerate(stages):
        expect(isinstance(st, dict) and isinstance(st.get("name"), str) and
               is_uint(st.get("wall_ns")),
               f"stages[{i}] must be {{name: str, wall_ns: uint}}")
        stage_names.add(st["name"])
    funnel = doc.get("funnel")
    expect(isinstance(funnel, dict) and funnel,
           "manifest 'funnel' must be a non-empty object")
    for key in ("measured", "noise_kept", "projected", "selected"):
        expect(is_uint(funnel.get(key)),
               f"funnel '{key}' must be a non-negative int")
    expect(funnel["measured"] >= funnel["noise_kept"] >= funnel["projected"]
           >= funnel["selected"],
           "funnel counts must be non-increasing "
           "(measured >= noise_kept >= projected >= selected)")
    expect(isinstance(doc.get("counters"), dict),
           "manifest 'counters' must be an object")
    expect(isinstance(doc.get("histograms"), dict),
           "manifest 'histograms' must be an object")
    expect(is_uint(doc.get("spans_published")),
           "manifest 'spans_published' must be a non-negative int")
    expect(is_uint(doc.get("spans_dropped")),
           "manifest 'spans_dropped' must be a non-negative int")
    # --require-span names are matched against the aggregated stage list
    # (manifests carry stage timings, not individual spans).
    wanted = {s[len("stage."):] if s.startswith("stage.") else s
              for s in required_spans}
    missing = sorted(wanted - stage_names)
    expect(not missing, f"required stage(s) missing: {', '.join(missing)}")
    print(f"manifest OK: {doc['tool']} / {doc['category']} on "
          f"{doc['machine']}, {len(stages)} stages, sha {doc['git_sha'][:12]}")
    return 0


def check_counter_map(doc, key) -> dict:
    counters = doc.get(key)
    expect(isinstance(counters, dict), f"metrics '{key}' must be an object")
    return counters


def check_metrics(doc, baseline) -> int:
    expect(isinstance(doc, dict), "metrics root must be an object")
    expect(doc.get("format") == METRICS_FORMAT,
           f"metrics 'format' must be '{METRICS_FORMAT}', got "
           f"{doc.get('format')!r}")
    compiled_out = doc.get("compiled_out", False)
    expect(isinstance(compiled_out, bool),
           "'compiled_out' must be a boolean when present")
    counters = check_counter_map(doc, "counters")
    for name, value in counters.items():
        expect(is_uint(value),
               f"counter '{name}' must be a non-negative int, got {value!r}")
    gauges = check_counter_map(doc, "gauges")
    for name, value in gauges.items():
        expect(is_int(value), f"gauge '{name}' must be an int, got {value!r}")
    hists = doc.get("histograms")
    expect(isinstance(hists, list), "metrics 'histograms' must be an array")
    for i, h in enumerate(hists):
        where = f"histograms[{i}]"
        expect(isinstance(h, dict), f"{where} must be an object")
        expect(isinstance(h.get("name"), str) and h["name"],
               f"{where}: missing/empty 'name'")
        expect(is_uint(h.get("count")), f"{where}: 'count' must be a uint")
        for key in ("sum", "min", "max"):
            expect(is_number_or_null(h.get(key)),
                   f"{where}: '{key}' must be a number or null")
        expect(is_uint(h.get("num_buckets")) and h["num_buckets"] > 0,
               f"{where}: 'num_buckets' must be a positive int")
        expect(is_int(h.get("bucket_bias")),
               f"{where}: 'bucket_bias' must be an int")
        buckets = h.get("buckets")
        expect(isinstance(buckets, list), f"{where}: 'buckets' must be an "
               "array of [index, count] pairs")
        prev_index = -1
        for j, pair in enumerate(buckets):
            expect(isinstance(pair, list) and len(pair) == 2 and
                   is_uint(pair[0]) and is_uint(pair[1]),
                   f"{where}.buckets[{j}] must be [uint index, uint count]")
            expect(pair[0] < h["num_buckets"],
                   f"{where}.buckets[{j}]: index {pair[0]} out of range "
                   f"(num_buckets {h['num_buckets']})")
            expect(pair[0] > prev_index,
                   f"{where}.buckets[{j}]: indices must be strictly "
                   "increasing")
            expect(pair[1] > 0,
                   f"{where}.buckets[{j}]: zero-count buckets are elided "
                   "by the exposition, so a 0 here is malformed")
            prev_index = pair[0]
    if compiled_out:
        expect(not counters and not gauges and not hists,
               "a compiled-out exposition must carry empty "
               "counters/gauges/histograms")
    if baseline is not None:
        base_counters = baseline.get("counters", {})
        expect(isinstance(base_counters, dict),
               "baseline 'counters' must be an object")
        for name, before in base_counters.items():
            after = counters.get(name, 0)
            expect(is_uint(before) and after >= before,
                   f"counter '{name}' went backwards across polls: "
                   f"{before} -> {after}")
    print(f"metrics OK: {len(counters)} counters, {len(gauges)} gauges, "
          f"{len(hists)} histograms"
          + (", compiled out" if compiled_out else "")
          + (f", monotone vs baseline ({len(baseline.get('counters', {}))} "
             "counters)" if baseline is not None else ""))
    return 0


def check_flight(doc, required_traces) -> int:
    expect(isinstance(doc, dict), "flight dump root must be an object")
    expect(doc.get("format") == FLIGHT_FORMAT,
           f"flight 'format' must be '{FLIGHT_FORMAT}', got "
           f"{doc.get('format')!r}")
    expect(is_uint(doc.get("capacity")) and doc["capacity"] >= 1,
           "flight 'capacity' must be a positive int")
    expect(is_uint(doc.get("recorded")),
           "flight 'recorded' must be a non-negative int")
    records = doc.get("records")
    expect(isinstance(records, list), "flight 'records' must be an array")
    expect(len(records) == min(doc["recorded"], doc["capacity"]),
           f"flight ring invariant broken: {doc['recorded']} recorded with "
           f"capacity {doc['capacity']} must retain "
           f"{min(doc['recorded'], doc['capacity'])} records, "
           f"got {len(records)}")
    seen_traces = set()
    for i, r in enumerate(records):
        where = f"records[{i}]"
        expect(isinstance(r, dict), f"{where} must be an object")
        for key in ("request_id", "session_id", "trace_id", "bytes",
                    "faults", "retries"):
            expect(is_uint(r.get(key)),
                   f"{where}: '{key}' must be a non-negative int")
        expect(isinstance(r.get("category"), str),
               f"{where}: 'category' must be a string")
        expect(r.get("verdict") in FLIGHT_VERDICTS,
               f"{where}: 'verdict' must be one of "
               f"{'/'.join(FLIGHT_VERDICTS)}, got {r.get('verdict')!r}")
        for key in ("enqueued_ns", "started_ns", "finished_ns"):
            expect(is_int(r.get(key)), f"{where}: '{key}' must be an int")
        seen_traces.add(r["trace_id"])
    missing = [t for t in required_traces if t not in seen_traces]
    expect(not missing,
           "required trace id(s) absent from the ring: "
           + ", ".join(str(t) for t in missing))
    print(f"flight dump OK: {len(records)} of {doc['recorded']} recorded "
          f"(capacity {doc['capacity']})")
    return 0


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", help="JSON artifact to validate")
    ap.add_argument("--kind", choices=("trace", "manifest", "metrics",
                                       "flight"), required=True)
    ap.add_argument("--require-span", action="append", default=[],
                    metavar="NAME",
                    help="fail unless a span/stage with this name is present "
                         "(repeatable; trace/manifest kinds)")
    ap.add_argument("--monotone-baseline", metavar="FILE",
                    help="metrics kind: fail if any counter in FILE (an "
                         "earlier scrape) exceeds its value in the validated "
                         "exposition")
    ap.add_argument("--require-trace", action="append", default=[], type=int,
                    metavar="ID",
                    help="flight kind: fail unless a record with this "
                         "trace_id survives in the ring (repeatable)")
    args = ap.parse_args()
    try:
        doc = load_json(args.file)
        baseline = (load_json(args.monotone_baseline)
                    if args.monotone_baseline else None)
    except (OSError, json.JSONDecodeError) as e:
        print(f"unreadable or invalid JSON: {e}", file=sys.stderr)
        return 1
    try:
        if args.kind == "trace":
            return check_trace(doc, args.require_span)
        if args.kind == "manifest":
            return check_manifest(doc, args.require_span)
        if args.kind == "metrics":
            return check_metrics(doc, baseline)
        return check_flight(doc, args.require_trace)
    except SchemaError as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
