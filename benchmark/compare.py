#!/usr/bin/env python3
"""Compares two result files written by `run.py --out`: the parent (A) and
the change (B).

  python3 benchmark/compare.py A.json B.json
  python3 benchmark/compare.py A.json B.json --claim evals_per_s@selfjoin_sift

For every workload x end-to-end metric it prints each side's median and
quartiles, the change (positive = better) and a verdict against the
metric's BENCHMARK.json bound: improved, unchanged, regressed, or
unresolved when either side's quartile spread exceeds the bound.  Per-layer
metrics of traced runs are listed with their medians.  --claim applies the
gain rule: at least 9 of 10 paired runs won, and the medians further apart
than the parent's quartiles.  Exits 1 when a metric regressed or a claim is
not met.
"""

import argparse
import json
import sys

import benchlib


def load_runs(path):
    with open(path) as f:
        return json.load(f)["runs"]


def values(runs, workload, metric, traced):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["traced"] == traced
            and r["metrics"].get(metric, {}).get("value") is not None]


def failed(runs, workload):
    return sum(r["failed"] for r in runs if r["workload"] == workload)


def rows(cfg, a_runs, b_runs):
    """(workload, metric, A quartiles, B quartiles, gain, verdict) for every
    metric both sides measured; per-layer rows have verdict None."""
    out = []
    for w in (x["name"] for x in cfg["workloads"]):
        for specs, traced in ((cfg["end_to_end"], False), (cfg["per_layer"], True)):
            for m in specs:
                av = values(a_runs, w, m["name"], traced)
                bv = values(b_runs, w, m["name"], traced)
                if not av or not bv:
                    continue
                qa, qb = benchlib.quartiles(av), benchlib.quartiles(bv)
                v = (benchlib.verdict(av, bv, m["better"], m["bound"])
                     if "bound" in m else None)
                out.append((w, m["name"], qa, qb,
                            benchlib.gain(qa[1], qb[1], m["better"]), v))
    return out


def main():
    cfg = benchlib.load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--claim", action="append", default=[],
                    metavar="METRIC@WORKLOAD")
    args = ap.parse_args()
    a_runs, b_runs = load_runs(args.parent), load_runs(args.change)

    bad = False
    print("%-20s %-30s %-34s %-34s %8s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "change", "verdict"))
    for w, name, qa, qb, g, v in rows(cfg, a_runs, b_runs):
        fmt = "%.4g [%.4g, %.4g]"
        print("%-20s %-30s %-34s %-34s %+7.2f%%  %s" % (
            w, name, fmt % (qa[1], qa[0], qa[2]), fmt % (qb[1], qb[0], qb[2]),
            100 * g, v or "-"))
        bad |= v == "regressed"

    specs = {m["name"]: (m, False) for m in cfg["end_to_end"]}
    specs.update({m["name"]: (m, True) for m in cfg["per_layer"]})
    for claim in args.claim:
        metric, _, workload = claim.partition("@")
        if metric not in specs:
            print("claim %s: unknown metric" % claim)
            bad = True
            continue
        spec, traced = specs[metric]
        met, reason = benchlib.claim_met(
            values(a_runs, workload, metric, traced),
            values(b_runs, workload, metric, traced), spec["better"],
            failed(a_runs, workload), failed(b_runs, workload))
        print("claim %s: %s (%s)" % (claim, "met" if met else "NOT met", reason))
        bad |= not met
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
