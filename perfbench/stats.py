"""Arithmetic of the benchmark: percentiles, op counting, and the
conversion of a raw workload report (bench.exe's JSON line) into the
end-to-end and per-layer metrics.  Pure functions; no I/O."""

import statistics

# The tail percentile of each workload, chosen to sit inside one op class
# of the workload's mix (see README.md, "Tail percentile").
TAIL_PERCENTILE = {"compile": 90, "validate": 75, "serve": 99}

# A tail must have at least this many samples beyond it.
MIN_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rate_per_s", "1/s"),
    ("op_ms", "ms"),
    ("tail_ms", "ms"),
    ("parallel_loops", "loops"),
    ("code_lines", "lines"),
]

PER_LAYER = [
    ("frontend.parse_ms", "ms/op"),
    ("analysis.normalize_ms", "ms/op"),
    ("analysis.stmts_normalized", "stmts/op"),
    ("inliner.inline_ms", "ms/op"),
    ("inliner.sites", "sites/op"),
    ("dependence.tests", "tests/op"),
    ("dependence.miss_ms", "ms/op"),
    ("dependence.memo_hit_ratio", "ratio"),
    ("parallelizer.self_ms", "ms/op"),
    ("core.reverse_ms", "ms/op"),
    ("core.reverse_matched", "regions/op"),
    ("planner.self_ms", "ms/op"),
    ("planner.rounds", "rounds/op"),
    ("planner.refusals", "refusals/op"),
    ("runtime.interp_serial_ms", "ms/op"),
    ("runtime.interp_parallel_ms", "ms/op"),
    ("runtime.pool_wait_ms", "ms/op"),
    ("runtime.pool_exec_ms", "ms/op"),
    ("checker.trace_ms", "ms/op"),
    ("checker.iterations_traced", "iterations/op"),
    ("checker.conflicts", "conflicts/op"),
    ("server.hit_ms", "ms"),
    ("server.miss_ms", "ms"),
    ("server.transport_ms", "ms"),
    ("server.unit_hit_ratio", "ratio"),
    ("server.evictions", "evictions/kreq"),
    ("server.cache_mb", "MB"),
    ("gc.alloc_mb", "MB/op"),
    ("trace.overhead_pct", "%"),
    ("reconcile.unattributed_pct", "%"),
]


def percentile(samples, q):
    """The q-th percentile (0 < q < 100) by linear interpolation between
    the two nearest order statistics."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(samples, q):
    """How many samples lie strictly above the q-th percentile."""
    v = percentile(samples, q)
    return sum(1 for x in samples if x > v)


def tail(samples, q):
    """The q-th percentile, refusing a tail with fewer than MIN_BEYOND
    samples beyond it (that would be no tail)."""
    if beyond(samples, q) < MIN_BEYOND:
        raise ValueError(
            "p%g of %d samples has fewer than %d beyond it"
            % (q, len(samples), MIN_BEYOND))
    return percentile(samples, q)


def count_ops(report):
    """(attempted, failed, correct) of a raw report.  correct is true
    only when no op failed a check.  The counts are checked for
    consistency: a failed op always leaves a reason, and a reason always
    belongs to a failed op."""
    attempted, failed = int(report["attempted"]), int(report["failed"])
    if attempted < 1:
        raise ValueError("no op attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed %d of %d attempted" % (failed, attempted))
    if (failed > 0) != bool(report["failures"]):
        raise ValueError("%d failed ops but %d failure reasons"
                         % (failed, len(report["failures"])))
    return attempted, failed, failed == 0


def end_to_end(report):
    """The end-to-end metrics of an untraced report."""
    win = report["untraced"]
    lat_ms = [ns / 1e6 for ns in win["lat_ns"]]
    q = TAIL_PERCENTILE[report["workload"]]
    return {
        "setup_s": statistics.median(report["setup_ns"]) / 1e9,
        "peak_rss_mb": report["peak_rss_kb"] * 1024 / 1e6,
        "rate_per_s": len(lat_ms) / (win["elapsed_ns"] / 1e9),
        "op_ms": statistics.median(lat_ms),
        "tail_ms": tail(lat_ms, q),
        "parallel_loops": report["parallel_loops"],
        "code_lines": report["code_lines"],
    }


def _mean(xs):
    return sum(xs) / len(xs)


def _pass(layers, name):
    """Self ns of a pipeline pass: its Prof time minus the dependence-miss
    spans that ran under it (those belong to the dependence layer)."""
    return (layers["pass_ns"].get(name, 0)
            - layers["dep_miss_ns_by_phase"].get(name, 0))


def compile_self_ns(layers):
    """Layer self-times (ns) of a traced compile window.  Together they
    cover the op: what is left is unattributed driver overhead."""
    return {
        "frontend.parse": layers["pass_ns"].get("parse", 0),
        "analysis.normalize": _pass(layers, "normalize"),
        "inliner.inline": _pass(layers, "inline"),
        "dependence.miss": layers["dep_miss_ns"],
        "parallelizer.self": _pass(layers, "parallelize"),
        "core.reverse": _pass(layers, "reverse"),
        "checker.validate": _pass(layers, "validate"),
        "planner.self": layers["demand_task_ns"] - layers["demand_pass_ns"],
    }


def unattributed_share(layers):
    """Share of the summed op time that no layer self-time covers."""
    covered = sum(compile_self_ns(layers).values())
    return (layers["op_ns"] - covered) / layers["op_ns"]


def _compile_layers(L):
    ops = L["ops"]
    s = compile_self_ns(L)
    ms = lambda ns: ns / 1e6 / ops
    return {
        "frontend.parse_ms": ms(s["frontend.parse"]),
        "analysis.normalize_ms": ms(s["analysis.normalize"]),
        "analysis.stmts_normalized": L["stmts_normalized"] / ops,
        "inliner.inline_ms": ms(s["inliner.inline"]),
        "inliner.sites": L["inline_sites"] / ops,
        "dependence.tests": L["dep_tests"] / ops,
        "dependence.miss_ms": ms(s["dependence.miss"]),
        "dependence.memo_hit_ratio": L["dep_memo_hits"] / max(1, L["dep_tests"]),
        "parallelizer.self_ms": ms(s["parallelizer.self"]),
        "core.reverse_ms": ms(s["core.reverse"]),
        "core.reverse_matched": L["reverse_matched"] / ops,
        "planner.self_ms": ms(s["planner.self"]),
        "planner.rounds": L["planner_rounds"] / ops,
        "planner.refusals": L["planner_refusals"] / ops,
        "gc.alloc_mb": L["alloc_bytes"] / 1e6 / ops,
        "reconcile.unattributed_pct": 100.0 * unattributed_share(L),
    }


def _validate_layers(L):
    ops = L["ops"]
    ms = lambda ns: ns / 1e6 / ops
    return {
        "runtime.interp_serial_ms": ms(L["interp_serial_ns"]),
        "runtime.interp_parallel_ms": ms(L["interp_parallel_ns"]),
        "runtime.pool_wait_ms": ms(L["pool_wait_ns"]),
        "runtime.pool_exec_ms": ms(L["pool_exec_ns"]),
        "checker.trace_ms": ms(L["op_ns"] - L["interp_serial_ns"]
                               - L["interp_parallel_ns"]),
        "checker.iterations_traced": L["iterations_traced"] / ops,
        "checker.conflicts": L["conflicts"] / ops,
        "gc.alloc_mb": L["alloc_bytes"] / 1e6 / ops,
    }


def _family_sum(section, family, label=""):
    """Sum of a daemon metrics section's entries of one family, optionally
    restricted to keys carrying `label` (e.g. 'pass="parse"')."""
    total = 0.0
    for key, v in section.items():
        if key == family or key.startswith(family + "{"):
            if label in key:
                total += v["sum_ms"] if isinstance(v, dict) else v
    return total


def _serve_layers(L):
    ops = L["ops"]
    s0, s1 = L["stats0"], L["stats1"]
    m0, m1 = L["metrics0"], L["metrics1"]
    c0, c1 = s0["counters"], s1["counters"]
    dc = lambda k: c1[k] - c0[k]
    dh = lambda fam, lab="": (_family_sum(m1["histograms"], fam, lab)
                              - _family_sum(m0["histograms"], fam, lab))
    dn = lambda fam: (_family_sum(m1["counters"], fam)
                      - _family_sum(m0["counters"], fam))
    passes = "parinline_pass_duration_seconds"
    return {
        "frontend.parse_ms": dh(passes, 'pass="parse"') / ops,
        "analysis.normalize_ms": dh(passes, 'pass="normalize"') / ops,
        "analysis.stmts_normalized": dc("stmts_normalized") / ops,
        "inliner.inline_ms": dh(passes, 'pass="inline"') / ops,
        "inliner.sites": dn("parinline_inline_sites_total") / ops,
        "dependence.tests": dc("dep_tests_run") / ops,
        "dependence.memo_hit_ratio":
            dc("dep_cache_hits") / max(1, dc("dep_tests_run")),
        "parallelizer.self_ms": dh(passes, 'pass="parallelize"') / ops,
        "core.reverse_ms": dh(passes, 'pass="reverse"') / ops,
        "core.reverse_matched": dc("reverse_sites_matched") / ops,
        "planner.rounds": dn("parinline_planner_rounds_total") / ops,
        "planner.refusals": dn("parinline_planner_refusals_total") / ops,
        "server.hit_ms": statistics.median(L["daemon_hit_ns"]) / 1e6,
        "server.miss_ms": statistics.median(L["daemon_miss_ns"]) / 1e6,
        "server.transport_ms": statistics.median(L["transport_ns"]) / 1e6,
        "server.unit_hit_ratio":
            dc("unit_cache_hits") / max(1, dc("requests_served")),
        "server.evictions": 1000.0 * (s1["cache"]["evictions"]
                                      - s0["cache"]["evictions"]) / ops,
        "server.cache_mb": s1["cache"]["bytes"] / 1e6,
        "gc.alloc_mb": L["alloc_bytes"] / 1e6 / ops,
    }


LAYERS = {"compile": _compile_layers, "validate": _validate_layers,
          "serve": _serve_layers}


def per_layer(report):
    """Every per-layer metric of a traced report.  A layer the workload
    does not exercise reads 0."""
    win = report["traced"]
    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update(LAYERS[report["workload"]](win["layers"]))
    untraced = _mean(report["untraced"]["lat_ns"])
    out["trace.overhead_pct"] = 100.0 * (_mean(win["lat_ns"]) / untraced - 1)
    return out


def spread(values):
    """(median, q1, q3, (q3-q1)/median, largest |v-median|/median) of a
    list of run values, quartiles as statistics.quantiles(n=4) gives
    them."""
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    rel = lambda d: d / abs(med) if med else 0.0
    return (med, q1, q3, rel(q3 - q1),
            max(rel(abs(v - med)) for v in values))
