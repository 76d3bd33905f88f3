#!/usr/bin/env python3
"""The repository benchmark: builds benchmark/ into build-bench/, runs each
workload in a fresh process, prints every metric as
`workload metric value unit n=...`, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

  python3 benchmark/run.py                      # every workload, seed 1
  python3 benchmark/run.py --workload selfjoin_sift --seed 7 --seconds 12
  python3 benchmark/run.py --trace 1            # per-layer metrics + spans
  python3 benchmark/run.py --repeat 5 --out A.json
  python3 benchmark/run.py --smoke              # 1/20 scale, 0.5 s each

Untraced runs report the end-to-end metrics of BENCHMARK.json, traced runs
(--trace 1, or --traced) the per-layer ones with each layer's self time,
and write the spans to build-bench/traces/.  --out appends every run's full
result (metrics, sample counts, host, kernels, git sha) to a JSON file that
compare.py reads.  Exits non-zero when the build fails, a run fails, or any
sampled output fails verification.
"""

import argparse
import json
import os
import subprocess
import sys
import time

import benchlib

BUILD_DIR = os.path.join(benchlib.ROOT, "build-bench")
PROGRAM = os.path.join(BUILD_DIR, "fasted_bench")
SMOKE_SCALE = 0.05
SMOKE_SECONDS = 0.5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds fasted_bench; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", benchlib.BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=benchlib.ROOT)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "fasted_bench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, cwd=benchlib.ROOT)


def git_sha():
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(benchlib.ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=benchlib.ROOT,
                             capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_once(workload, seed, seconds, traced, scale, timeout):
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if traced else "0",
           "--scale", repr(scale)]
    if traced:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))]
    log("run: " + " ".join(cmd[1:]))
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=benchlib.ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("%s timed out after %d s" % (workload, timeout))
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no result" % workload)
    return json.loads(lines[-1])


def report(result, specs, traced):
    """Prints one line per metric; returns the problems found."""
    w = result["workload"]
    problems = []
    if result["incorrect"]:
        problems.append("%s: %d operations failed verification"
                        % (w, result["incorrect"]))
    for spec in specs:
        m = result["metrics"].get(spec["name"])
        if m is None or m["value"] is None:
            problems.append("%s: metric %s missing" % (w, spec["name"]))
            continue
        line = "%s %s %.6g %s n=%d" % (w, spec["name"], m["value"],
                                       spec["unit"], m["n"])
        if traced:
            layer = spec["name"].split(".")[0]
            line += " self_ms=%.3f source=%s moves=%s" % (
                result["self_ms"].get(layer, 0.0), m["source"],
                ",".join("%s@%s" % t for t in benchlib.LAYER_MAP[spec["name"]]))
        print(line)
    if traced:
        for layer, ms in sorted(result["self_ms"].items()):
            print("%s layer %s self_ms=%.3f" % (w, layer, ms))
    tail = result["sizes"].get("tail_quantile")
    n = result["metrics"].get("lat_tail_ms", {}).get("n", 0)
    if not traced and tail and (benchlib.supported_percentile(n) or 0) < tail:
        log("warning: %s lat_tail_ms is p%g of %d samples, fewer than 10 beyond"
            % (w, tail * 100, n))
    lag = result["metrics"].get("loadgen.lag_p99_ms")
    if lag and lag["source"] == "main" and lag["value"] > benchlib.LOADGEN_LAG_LIMIT_MS:
        result["valid"] = False
        log("warning: %s invalid: load generator p99 lag %.2f ms > %.1f ms"
            % (w, lag["value"], benchlib.LOADGEN_LAG_LIMIT_MS))
    return problems


def main():
    cfg = benchlib.load_benchmark()
    errors = benchlib.validate_benchmark(cfg)
    if errors:
        for e in errors:
            log("BENCHMARK.json: " + e)
        return 1
    names = [w["name"] for w in cfg["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=cfg["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, each in a fresh process")
    ap.add_argument("--out", help="write every run's full result here")
    ap.add_argument("--smoke", action="store_true",
                    help="1/20 scale and %g s per workload" % SMOKE_SECONDS)
    args = ap.parse_args()
    traced = args.traced or args.trace == 1
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    workloads = names if args.workload == "all" else [args.workload]
    specs = cfg["per_layer"] if traced else cfg["end_to_end"]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    sha = git_sha()
    runs, problems = [], []
    started = time.time()
    for _ in range(args.repeat):
        for w in workloads:
            try:
                r = run_once(w, args.seed, seconds, traced, scale,
                             timeout=int(3 * seconds + 100))
            except (RuntimeError, ValueError) as e:
                log("error: %s" % e)
                return 1
            r["git_sha"] = sha
            r["valid"] = True
            problems += report(r, specs, traced)
            runs.append(r)
    log("%d run(s) in %.1f s" % (len(runs), time.time() - started))

    if args.out:
        kept = []
        if os.path.exists(args.out):
            with open(args.out) as f:
                kept = json.load(f)["runs"]
        with open(args.out, "w") as f:
            json.dump({"runs": kept + runs}, f, indent=1)
            f.write("\n")

    metrics = {}
    for w in workloads:
        for spec in specs:
            vals = [r["metrics"][spec["name"]]["value"] for r in runs
                    if r["workload"] == w and spec["name"] in r["metrics"]]
            if not vals:
                continue
            key = spec["name"] if len(workloads) == 1 else "%s.%s" % (w, spec["name"])
            metrics[key] = {"value": benchlib.quartiles(vals)[1],
                            "unit": spec["unit"]}
    for p in problems:
        log("error: " + p)
    print(json.dumps({
        "correct": not any(r["incorrect"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
