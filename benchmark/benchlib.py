"""Shared pieces of the benchmark tooling: BENCHMARK.json validation, the
layer map, and the statistics run.py and compare.py report."""

import json
import math
import os
import re
import statistics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
MAX_WORKLOADS = 8
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25

# Which end-to-end metric each per-layer metric should move, and on which
# workload: the prediction a change to that layer is judged against.
ALL = ("selfjoin_sift", "query_mix_gist", "point_gateway_sift",
       "ingest_serve_sift")
LAYER_MAP = {
    "kernels.terms_per_s": [("evals_per_s", "selfjoin_sift"),
                            ("evals_per_s", "query_mix_gist")],
    # Host reference: divides kernels.terms_per_s when reading across hosts.
    "kernels.scalar_terms_per_s": [("evals_per_s", "selfjoin_sift")],
    "kernels.ceiling_evals_per_s": [("evals_per_s", "selfjoin_sift"),
                                    ("evals_per_s", "query_mix_gist")],
    "executor.evals_per_s": [("evals_per_s", "selfjoin_sift")],
    "executor.efficiency": [("evals_per_s", "selfjoin_sift")],
    "pool.busy_frac": [("lat_p50_ms", "point_gateway_sift"),
                       ("evals_per_s", "query_mix_gist")],
    "result.materialize_ms": [("evals_per_s", "selfjoin_sift")],
    "result.pairs": [("evals_per_s", "selfjoin_sift")],
    "prepare.rows_per_s": [("setup_s", w) for w in ALL]
                          + [("ops_per_s", "ingest_serve_sift")],
    "calibrate.miss_ms": [("setup_s", "query_mix_gist"),
                          ("ops_per_s", "ingest_serve_sift"),
                          ("lat_tail_ms", "ingest_serve_sift")],
    "calibrate.misses": [("ops_per_s", "ingest_serve_sift")],
    "calibrate.blocks_built": [("ops_per_s", "ingest_serve_sift")],
    "service.overhead_ms": [("lat_p50_ms", "query_mix_gist")],
    "service.stream_ms": [("lat_p50_ms", "query_mix_gist")],
    "service.point_ms": [("lat_p50_ms", "point_gateway_sift")],
    "knn.rounds_mean": [("lat_tail_ms", "query_mix_gist"),
                        ("ops_per_s", "query_mix_gist")],
    "knn.brute_frac": [("lat_tail_ms", "query_mix_gist"),
                       ("ops_per_s", "query_mix_gist")],
    "gateway.coalescing_factor": [("lat_p50_ms", "point_gateway_sift"),
                                  ("lat_tail_ms", "point_gateway_sift")],
    "gateway.admission_wait_p50_ms": [("lat_p50_ms", "point_gateway_sift"),
                                      ("lat_tail_ms", "point_gateway_sift")],
    "gateway.window_fill_p50_ms": [("lat_p50_ms", "point_gateway_sift"),
                                   ("lat_tail_ms", "point_gateway_sift")],
    "gateway.drain_p50_ms": [("lat_p50_ms", "point_gateway_sift"),
                             ("lat_tail_ms", "point_gateway_sift")],
    "gateway.drain_ms_per_request": [("lat_p50_ms", "point_gateway_sift"),
                                     ("lat_tail_ms", "point_gateway_sift")],
    "gateway.demux_p50_ms": [("lat_p50_ms", "point_gateway_sift"),
                             ("lat_tail_ms", "point_gateway_sift")],
    "gateway.rejected": [("ops_per_s", "point_gateway_sift")],
    "gateway.expired": [("ops_per_s", "point_gateway_sift")],
    "lifecycle.append_ms": [("ops_per_s", "ingest_serve_sift")],
    "lifecycle.erase_ms": [("ops_per_s", "ingest_serve_sift")],
    "lifecycle.compact_ms": [("ops_per_s", "ingest_serve_sift")],
    "lifecycle.open_rebuilds": [("ops_per_s", "ingest_serve_sift")],
    # A run whose generator lagged this much is marked invalid (run.py).
    "loadgen.lag_p99_ms": [("lat_tail_ms", "point_gateway_sift")],
    "obs.trace_overhead": [("ops_per_s", w) for w in ALL],
}
LOADGEN_LAG_LIMIT_MS = 2.0


def load_benchmark(path=BENCHMARK_JSON):
    with open(path) as f:
        return json.load(f)


def validate_benchmark(cfg):
    """Returns the list of problems with a parsed BENCHMARK.json (empty when
    it is valid, including against LAYER_MAP)."""
    errors = []
    expect = {"command", "paths", "run_seconds", "workloads", "end_to_end",
              "per_layer"}
    if set(cfg) != expect:
        return ["keys must be exactly %s" % sorted(expect)]
    cmd = cfg["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32
            or not all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errors.append("command: 1-32 strings of at most 200 characters")
    paths = cfg["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errors.append("paths: 1-16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not PATH_RE.match(p)
                    or p.startswith("/") or ".." in p.split("/")):
                errors.append("paths: bad path %r" % (p,))
    rs = cfg["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        errors.append("run_seconds: whole number 1-60")

    names = []
    workloads = cfg["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= MAX_WORKLOADS:
        errors.append("workloads: 2-%d entries" % MAX_WORKLOADS)
        workloads = []
    for w in workloads:
        if set(w) != {"name", "why"}:
            errors.append("workload %r: keys must be name, why" % (w,))
            continue
        names.append(w["name"])
        why = w["why"]
        if not isinstance(why, str) or not why or "\n" in why or len(why) > 200:
            errors.append("workload %s: why is one line of <= 200 chars" % w["name"])

    e2e = cfg["end_to_end"]
    if not isinstance(e2e, list) or not 1 <= len(e2e) <= MAX_END_TO_END:
        errors.append("end_to_end: 1-%d metrics" % MAX_END_TO_END)
        e2e = []
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            errors.append("end_to_end %r: keys must be name, unit, better, bound" % (m,))
            continue
        names.append(m["name"])
        b = m["bound"]
        if (not isinstance(b, (int, float)) or isinstance(b, bool)
                or not 0 < b <= MAX_BOUND):
            errors.append("end_to_end %s: bound in (0, %g]" % (m["name"], MAX_BOUND))
    if not any(m.get("name") == "setup_s" and m.get("unit") == "s"
               and m.get("better") == "lower" for m in e2e):
        errors.append("end_to_end: setup_s (unit s, lower) is required")

    per_layer = cfg["per_layer"]
    if not isinstance(per_layer, list) or not 1 <= len(per_layer) <= MAX_PER_LAYER:
        errors.append("per_layer: 1-%d metrics" % MAX_PER_LAYER)
        per_layer = []
    for m in per_layer:
        if set(m) != {"name", "unit", "better"}:
            errors.append("per_layer %r: keys must be name, unit, better" % (m,))
            continue
        names.append(m["name"])

    for m in e2e + per_layer:
        if m.get("better") not in ("higher", "lower"):
            errors.append("%s: better is higher or lower" % m.get("name"))
        if not isinstance(m.get("unit"), str) or not UNIT_RE.match(m["unit"]):
            errors.append("%s: bad unit %r" % (m.get("name"), m.get("unit")))
    for n in names:
        if not isinstance(n, str) or not NAME_RE.match(n):
            errors.append("bad name %r" % (n,))
    dups = sorted({n for n in names if names.count(n) > 1})
    if dups:
        errors.append("names used twice: %s" % dups)

    # Every per-layer metric names end-to-end metrics and workloads that
    # exist; every mapped metric is listed.
    wl = {w["name"] for w in workloads if "name" in w}
    e2e_names = {m["name"] for m in e2e if "name" in m}
    layer_names = {m["name"] for m in per_layer if "name" in m}
    for name in sorted(layer_names):
        targets = LAYER_MAP.get(name)
        if not targets:
            errors.append("per_layer %s: not in the layer map" % name)
            continue
        for metric, workload in targets:
            if metric not in e2e_names or workload not in wl:
                errors.append("per_layer %s moves %s@%s, which does not exist"
                              % (name, metric, workload))
    for name in sorted(set(LAYER_MAP) - layer_names):
        errors.append("layer map names %s, which per_layer lacks" % name)
    return errors


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def supported_percentile(samples, candidates=(0.5, 0.75, 0.9, 0.95, 0.99, 0.999)):
    """Highest candidate percentile with at least ten samples beyond it, or
    None when not even the median has."""
    best = None
    for q in candidates:
        if samples * (1 - q) >= 10 - 1e-9:
            best = q
    return best


def gain(a, b, better):
    """Relative change from a to b, positive when b is better."""
    if a == 0:
        return 0.0 if b == 0 else (math.inf if (b > a) == (better == "higher") else -math.inf)
    d = (b - a) / abs(a)
    return d if better == "higher" else -d


def beats(x, y, better):
    return x > y if better == "higher" else x < y


def verdict(a_runs, b_runs, better, bound):
    """Parent runs a, change runs b: improved, unchanged, regressed, or
    unresolved when either side's spread exceeds the bound (unless every
    change run beats every parent run)."""
    _, ma, _ = quartiles(a_runs)
    _, mb, _ = quartiles(b_runs)
    if max(spread(a_runs), spread(b_runs)) > bound:
        if all(beats(b, a, better) for a in a_runs for b in b_runs):
            return "improved"
        return "unresolved"
    g = gain(ma, mb, better)
    if g < -bound:
        return "regressed"
    if g > bound:
        return "improved"
    return "unchanged"


def pair_wins(a_runs, b_runs, better):
    """(wins of b over a, pairs counted) over runs paired in order; ties
    count for neither side and are not counted as pairs won."""
    pairs = list(zip(a_runs, b_runs))
    wins = sum(1 for a, b in pairs if beats(b, a, better))
    return wins, len(pairs)


def claim_met(a_runs, b_runs, better, a_failed=0, b_failed=0):
    """The gain rule: the change wins at least 9/10 of the pairs, its median
    beats the parent's by more than the parent's quartile distance, and no
    more operations fail than at the parent.  Returns (met, reason)."""
    wins, pairs = pair_wins(a_runs, b_runs, better)
    if pairs < 10:
        return False, "%d pairs; at least 10 are needed" % pairs
    if wins < 0.9 * pairs:
        return False, "won %d of %d pairs" % (wins, pairs)
    q1, ma, q3 = quartiles(a_runs)
    _, mb, _ = quartiles(b_runs)
    if not beats(mb, ma, better) or abs(mb - ma) <= q3 - q1:
        return False, "median moved %.4g, parent quartile distance %.4g" % (
            mb - ma, q3 - q1)
    if b_failed > a_failed:
        return False, "%d failed operations vs %d at the parent" % (b_failed, a_failed)
    return True, "won %d of %d pairs" % (wins, pairs)
