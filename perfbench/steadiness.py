#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--seed0 1]

Runs every workload of BENCHMARK.json --runs times through run.py for the
file's run_seconds, each run with another seed (seed0, seed0+1, ...), and
prints for every end-to-end metric the
median, the quartiles (Python's statistics.quantiles(n=4)) and the
interquartile spread as a share of the median, next to the same figures
for the metric's raw (uncalibrated) counterpart, and whether the spread
stays within a third of the metric's bound in BENCHMARK.json. Exits 1
when a spread does not. Run from the root of the source tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def raw_counterparts(workload, diag):
    """Raw wall-clock figures that correspond to the calibrated metrics."""
    out = {
        "setup_s": diag["bench.setup_raw_s"]["p50"],
        "latency_ms_p50": diag["bench.%s.raw_ms_p50" % workload],
    }
    if workload == "serve":
        # request latency is built from calibrated ticks; its raw twin is
        # the tick, shown beside the calibrated tick
        out["latency_ms_p50"] = None
        out["serve tick ms (cal vs raw)"] = (
            diag["workload"]["tick_ms_p50_calibrated"], diag["bench.serve.raw_ms_p50"])
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = ["| workload | metric | median | q1 | q3 | spread | raw median | raw spread | within bound/3 |",
             "|---|---|---|---|---|---|---|---|---|"]
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        cal, raw = {}, {}
        for i in range(args.runs):
            seed = args.seed0 + i
            t0 = time.time()
            p = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            out = p.stdout.strip().splitlines()
            if p.returncode != 0 or len(out) < 2:
                sys.stderr.write(p.stderr)
                sys.exit("run failed: %s seed %d" % (w, seed))
            result, diag = json.loads(out[-1]), json.loads(out[-2])["diagnostics"]
            for name, m in result["metrics"].items():
                cal.setdefault(name, []).append(m["value"])
            for name, v in raw_counterparts(w, diag).items():
                raw.setdefault(name, []).append(v)
            sys.stderr.write("%s seed %d (%.0f s): %s\n" % (
                w, seed, time.time() - t0,
                {k: round(m["value"], 4) for k, m in result["metrics"].items()}))
        for name, values in cal.items():
            med, q1, q3, s = spread(values)
            rv = raw.get(name)
            rmed, rs = ("", "")
            if rv and None not in rv:
                r = spread(rv)
                rmed, rs = "%.4g" % r[0], "%.1f%%" % (100 * r[3])
            within = s <= bounds[name] / 3
            ok = ok and within
            lines.append("| %s | %s | %.4g | %.4g | %.4g | %.1f%% | %s | %s | %s |" % (
                w, name, med, q1, q3, 100 * s, rmed, rs, "yes" if within else "NO"))
        if "serve tick ms (cal vs raw)" in raw:
            pairs = raw["serve tick ms (cal vs raw)"]
            c, r = spread([a for a, _ in pairs]), spread([b for _, b in pairs])
            lines.append("| %s | tick ms (diagnostic) | %.4g | %.4g | %.4g | %.1f%% | %.4g | %.1f%% | - |" % (
                w, c[0], c[1], c[2], 100 * c[3], r[0], 100 * r[3]))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
