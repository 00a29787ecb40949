#!/usr/bin/env python3
"""Validate a bench JSON document and flag throughput regressions.

Usage:
    check_bench_regression.py CURRENT.json BASELINE.json [--tolerance 0.25]
    check_bench_regression.py CURRENT.json --schema-only

Five bench schemas are understood (dispatched on the "experiment"
field):

  * "scale"         (bench_scale)  — per-radix cases; the compared
    metrics are route_cache.routes_per_sec, verify_random.perms_per_sec,
    and load_probe.perms_per_sec, matched by radix;
  * "scale_mt"      (bench_scale_mt) — per-topology cases, each run at
    several shard counts; the compared metrics are terminals_per_sec,
    matched by (topology, shards).  Every shard count must report
    identical_to_single_shard == true — a bit-exact divergence from the
    1-shard run is a correctness regression, not noise;
  * "verify_engine" (bench_verify) — the compared metrics are
    adversarial.full.perms_per_sec and adversarial.delta.perms_per_sec;
  * "flow"          (bench_flow)   — per-radix cases; the compared
    metrics are engine.wormhole.cycles_per_sec and
    engine.vct.cycles_per_sec, matched by radix.  The buffer-margin
    verdicts double as correctness gates: the guaranteed routings
    (Theorem 3 and the adaptive schedule) must report a nonzero
    min_flits_nonblocking and no deadlock;
  * "flow_mt"       (bench_flow_mt) — per-topology cases, each run
    serially and at several shard counts; the compared metrics are the
    serial and per-shard-count cycles_per_sec, matched by (topology,
    shards).  Every shard count must report identical_to_serial == true
    — a bit-exact divergence from serial FlowSim is a correctness
    regression, not noise — and the bisection margins on the Theorem 3
    routing must stay nonzero and deadlock-free.  speedup_vs_serial is
    reported but never gated: single-hardware-thread CI runners make
    any speedup floor meaningless.  When the document carries a
    recorder_overhead section (newer benches), its results_identical
    and per-shard-count series identity verdicts are fatal gates and
    the live-vs-paused overhead must stay under a generous cap; older
    baselines without the section still validate.  The scale section
    (sparse lazy arenas on 10-ary trees) is mandatory: every point must
    stay within the committed arena bytes/terminal budget, must not
    deadlock, and identity-checked points must match the serial run;
    scale cycles_per_sec joins the throughput comparison.

The gate is two-level, tuned so scheduler noise on a shared runner
cannot flap it while a real code regression (which slows *every* case)
still trips it:

  * the GEOMETRIC MEAN of the current/baseline ratios over all metrics
    must be >= 1 - tolerance (default 25%) — a genuine slowdown moves
    every ratio, so the mean is far less noisy than any single timing;
  * each INDIVIDUAL metric must stay >= 1 - 2*tolerance — a backstop
    against one case cratering while the others mask it.

Comparisons across *different* hardware are only meaningful for
order-of-magnitude sanity, which is exactly what the CI smoke job uses
them for.  Exit status: 0 = ok, 1 = regression or schema error.
"""

import argparse
import json
import math
import sys


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(doc, path, typ):
    """Fetch a dotted path from nested dicts, checking its type."""
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            fail(f"missing field '{path}'")
        node = node[part]
    if not isinstance(node, typ):
        fail(f"field '{path}' has type {type(node).__name__}, "
             f"expected {typ.__name__}")
    return node


def validate_scale(doc):
    cases = require(doc, "cases", list)
    if not cases:
        fail("scale document has no cases")
    for case in cases:
        require(case, "radix", int)
        require(case, "leafs", int)
        require(case, "links", int)
        require(case, "route_cache.routes_per_sec", (int, float))
        require(case, "route_cache.cache_bytes", int)
        require(case, "verify_random.perms_per_sec", (int, float))
        require(case, "verify_random.nonblocking", bool)
        require(case, "load_probe.perms_per_sec", (int, float))
        require(case, "cache_hit_rate", (int, float))
        require(case, "peak_rss_kb", int)
        if not case["verify_random"]["nonblocking"]:
            fail(f"radix {case['radix']}: verification verdict regressed "
                 "(expected nonblocking)")
    require(doc, "manifest.build_type", str)


def validate_scale_mt(doc):
    cases = require(doc, "cases", list)
    if not cases:
        fail("scale_mt document has no cases")
    for case in cases:
        topo = require(case, "topology", str)
        require(case, "terminals", int)
        require(case, "channels", int)
        require(case, "peak_rss_kb", int)
        points = require(case, "shard_counts", list)
        if not points:
            fail(f"{topo}: no shard-count points")
        for point in points:
            shards = require(point, "shards", int)
            require(point, "seconds", (int, float))
            require(point, "terminals_per_sec", (int, float))
            require(point, "bytes_per_terminal", (int, float))
            require(point, "cross_shard_flits", int)
            require(point, "accepted_throughput", (int, float))
            if not require(point, "identical_to_single_shard", bool):
                fail(f"{topo} at {shards} shards: results diverged from "
                     "the single-shard run (determinism regression)")
    require(doc, "manifest.build_type", str)


def validate_verify(doc):
    require(doc, "adversarial.full.perms_per_sec", (int, float))
    require(doc, "adversarial.delta.perms_per_sec", (int, float))
    require(doc, "adversarial.worst_collisions", int)
    require(doc, "manifest.build_type", str)


FLOW_MARGIN_KEYS = ("thm3_wormhole", "thm3_vct", "dmodk_wormhole",
                    "dmodk_vct", "adaptive_wormhole", "adaptive_vct")


def validate_flow(doc):
    cases = require(doc, "cases", list)
    if not cases:
        fail("flow document has no cases")
    for case in cases:
        require(case, "radix", int)
        require(case, "leafs", int)
        for mode in ("wormhole", "vct"):
            require(case, f"engine.{mode}.cycles_per_sec", (int, float))
            require(case, f"engine.{mode}.accepted_throughput", (int, float))
            if require(case, f"engine.{mode}.deadlocked", bool):
                fail(f"radix {case['radix']}: {mode} engine run deadlocked "
                     "on the Theorem 3 routing")
        for key in FLOW_MARGIN_KEYS:
            require(case, f"margin.{key}.min_flits_nonblocking", int)
            points = require(case, f"margin.{key}.points", list)
            if not points:
                fail(f"radix {case['radix']}: margin {key} has no points")
            for point in points:
                require(point, "buffer_flits", int)
                require(point, "sustained", bool)
                if require(point, "deadlocked", bool):
                    fail(f"radix {case['radix']}: margin {key} deadlocked "
                         f"at depth {point['buffer_flits']}")
        # The guaranteed routings must keep sustaining the probe at some
        # probed depth — a 0 here is a correctness regression, not noise.
        for key in ("thm3_wormhole", "thm3_vct",
                    "adaptive_wormhole", "adaptive_vct"):
            if case["margin"][key]["min_flits_nonblocking"] == 0:
                fail(f"radix {case['radix']}: {key} margin verdict "
                     "regressed (guaranteed routing no longer sustains "
                     "the probe at any depth)")
    require(doc, "manifest.build_type", str)


# The acceptance budget for the flight recorder is < 5% on a quiet
# machine; the hard gate is looser because CI runners time noisily.  The
# identity verdicts, in contrast, are exact and always fatal.
RECORDER_OVERHEAD_CAP_PCT = 25.0


def check_recorder_overhead(doc, where):
    """Validate an optional recorder_overhead section (newer benches
    emit it; older baseline documents without one must keep passing)."""
    if "recorder_overhead" not in doc:
        return
    section = require(doc, "recorder_overhead", dict)
    require(doc, "recorder_overhead.compiled_in", bool)
    require(doc, "recorder_overhead.enabled_seconds", (int, float))
    require(doc, "recorder_overhead.paused_seconds", (int, float))
    overhead = require(doc, "recorder_overhead.overhead_pct", (int, float))
    if not require(doc, "recorder_overhead.results_identical", bool):
        fail(f"{where}: recording changed the engine result "
             "(instrumentation fed back into the simulation)")
    if section["compiled_in"] and overhead > RECORDER_OVERHEAD_CAP_PCT:
        fail(f"{where}: recorder overhead {overhead:.1f}% exceeds the "
             f"{RECORDER_OVERHEAD_CAP_PCT:.0f}% gate")
    for point in section.get("series_identity", []):
        shards = require(point, "shards", int)
        if not require(point, "identical_to_serial", bool):
            fail(f"{where}: merged time-series at {shards} shards "
                 "diverged from the serial run (determinism regression)")


def validate_flow_mt(doc):
    cases = require(doc, "cases", list)
    if not cases:
        fail("flow_mt document has no cases")
    for case in cases:
        topo = require(case, "topology", str)
        require(case, "terminals", int)
        require(case, "channels", int)
        require(case, "peak_rss_kb", int)
        require(case, "serial.cycles_per_sec", (int, float))
        if require(case, "serial.deadlocked", bool):
            fail(f"{topo}: serial reference run deadlocked")
        points = require(case, "shard_counts", list)
        if not points:
            fail(f"{topo}: no shard-count points")
        for point in points:
            shards = require(point, "shards", int)
            require(point, "seconds", (int, float))
            require(point, "cycles_per_sec", (int, float))
            require(point, "speedup_vs_serial", (int, float))
            require(point, "cross_shard_flits", int)
            require(point, "cross_shard_credits", int)
            require(point, "accepted_throughput", (int, float))
            if not require(point, "identical_to_serial", bool):
                fail(f"{topo} at {shards} shards: results diverged from "
                     "the serial FlowSim run (determinism regression)")
        for mode in ("wormhole", "vct"):
            min_flits = require(case, f"margin.{mode}.min_flits_nonblocking",
                                int)
            points = require(case, f"margin.{mode}.points", list)
            if not points:
                fail(f"{topo}: margin {mode} probed no depths")
            for point in points:
                require(point, "buffer_flits", int)
                require(point, "sustained", bool)
                if require(point, "deadlocked", bool):
                    fail(f"{topo}: margin {mode} deadlocked at depth "
                         f"{point['buffer_flits']}")
            if min_flits == 0:
                fail(f"{topo}: {mode} margin verdict regressed (the "
                     "nonblocking routing no longer sustains the probe "
                     "at any depth)")
    budget = require(doc, "scale.budget_bytes_per_terminal", (int, float))
    points = require(doc, "scale.points", list)
    if not points:
        fail("scale section probed no trees")
    for point in points:
        topo = require(point, "topology", str)
        require(point, "terminals", int)
        require(point, "cycles_per_sec", (int, float))
        require(point, "flit_arena_bytes", int)
        require(point, "packet_arena_bytes", int)
        bpt = require(point, "bytes_per_terminal", (int, float))
        require(point, "resident_slots", int)
        require(point, "peak_slots", int)
        if require(point, "deadlocked", bool):
            fail(f"scale {topo}: run deadlocked")
        if not require(point, "within_budget", bool) or bpt > budget:
            fail(f"scale {topo}: {bpt:.1f} arena bytes/terminal exceed "
                 f"the committed {budget:.0f}-byte budget "
                 "(lazy arenas densified)")
        if require(point, "identity_checked", bool) and \
                not require(point, "identical_to_serial", bool):
            fail(f"scale {topo}: sharded run diverged from serial "
                 "(determinism regression)")
    check_recorder_overhead(doc, "flow_mt")
    require(doc, "manifest.build_type", str)


def scale_metrics(doc):
    out = {}
    for case in doc["cases"]:
        r = case["radix"]
        out[f"radix{r}.route_cache.routes_per_sec"] = \
            case["route_cache"]["routes_per_sec"]
        out[f"radix{r}.verify_random.perms_per_sec"] = \
            case["verify_random"]["perms_per_sec"]
        out[f"radix{r}.load_probe.perms_per_sec"] = \
            case["load_probe"]["perms_per_sec"]
    return out


def scale_mt_metrics(doc):
    out = {}
    for case in doc["cases"]:
        topo = case["topology"]
        for point in case["shard_counts"]:
            out[f"{topo}.shards{point['shards']}.terminals_per_sec"] = \
                point["terminals_per_sec"]
    return out


def verify_metrics(doc):
    return {
        "adversarial.full.perms_per_sec":
            doc["adversarial"]["full"]["perms_per_sec"],
        "adversarial.delta.perms_per_sec":
            doc["adversarial"]["delta"]["perms_per_sec"],
    }


def flow_metrics(doc):
    out = {}
    for case in doc["cases"]:
        r = case["radix"]
        for mode in ("wormhole", "vct"):
            out[f"radix{r}.engine.{mode}.cycles_per_sec"] = \
                case["engine"][mode]["cycles_per_sec"]
    return out


def flow_mt_metrics(doc):
    out = {}
    for case in doc["cases"]:
        topo = case["topology"]
        out[f"{topo}.serial.cycles_per_sec"] = \
            case["serial"]["cycles_per_sec"]
        for point in case["shard_counts"]:
            out[f"{topo}.shards{point['shards']}.cycles_per_sec"] = \
                point["cycles_per_sec"]
    for point in doc["scale"]["points"]:
        out[f"scale.{point['topology']}.cycles_per_sec"] = \
            point["cycles_per_sec"]
    return out


SCHEMAS = {
    "scale": (validate_scale, scale_metrics),
    "scale_mt": (validate_scale_mt, scale_mt_metrics),
    "verify_engine": (validate_verify, verify_metrics),
    "flow": (validate_flow, flow_metrics),
    "flow_mt": (validate_flow_mt, flow_mt_metrics),
}


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    kind = require(doc, "experiment", str)
    if kind not in SCHEMAS:
        fail(f"{path}: unknown experiment '{kind}'")
    SCHEMAS[kind][0](doc)
    return kind, doc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown (default 0.25)")
    parser.add_argument("--schema-only", action="store_true",
                        help="validate the document, skip the comparison")
    args = parser.parse_args()

    kind, current = load(args.current)
    print(f"{args.current}: valid '{kind}' document")
    if args.schema_only or args.baseline is None:
        return

    base_kind, baseline = load(args.baseline)
    if base_kind != kind:
        fail(f"experiment mismatch: {kind} vs {base_kind}")

    extract = SCHEMAS[kind][1]
    cur, base = extract(current), extract(baseline)
    hard_floor = 1.0 - 2.0 * args.tolerance
    regressed = False
    log_ratio_sum = 0.0
    for name, base_value in base.items():
        if name not in cur:
            fail(f"current document is missing metric '{name}'")
        if base_value <= 0:
            fail(f"baseline metric '{name}' is not positive")
        ratio = cur[name] / base_value
        log_ratio_sum += math.log(max(ratio, 1e-12))
        verdict = "ok"
        if ratio < hard_floor:
            verdict = f"REGRESSED (below hard floor {hard_floor:.0%})"
            regressed = True
        print(f"  {name}: {cur[name]:.3e} vs baseline {base_value:.3e} "
              f"(ratio {ratio:.2f}) {verdict}")
    geomean = math.exp(log_ratio_sum / len(base))
    print(f"  geometric-mean ratio over {len(base)} metrics: {geomean:.3f}")
    if geomean < 1.0 - args.tolerance:
        fail(f"aggregate throughput regressed beyond {args.tolerance:.0%} "
             f"tolerance (geomean ratio {geomean:.3f})")
    if regressed:
        fail("an individual metric regressed beyond the "
             f"{2 * args.tolerance:.0%} hard floor")
    print(f"no regression beyond {args.tolerance:.0%} tolerance")


if __name__ == "__main__":
    main()
