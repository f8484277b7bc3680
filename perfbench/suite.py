"""Every workload over seeds 1-10, then one traced run of each.

    python3 perfbench/suite.py

Runs perfbench/run.py one process at a time from the current directory
(a checkout root), for BENCHMARK.json's run_seconds each: --trace 0 for
every (seed, workload), the workloads interleaved within each seed so
that drift of the host over the minutes the suite takes falls on every
workload alike, then --trace 1 once per workload with seed 1. For each
end-to-end metric it prints the median over seeds with its unit and the
quartile spread (q3 - q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them, against the bound in
BENCHMARK.json. The summary, with the failing jobs, the per-layer
metrics of the traced runs and the run metadata, is written to
.bench_work/suite.json; a copy of it made at a given commit is that
commit's baseline.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import fixtures, run  # noqa: E402

SEEDS = range(1, 11)
OUT = os.path.join(run.WORK, "suite.json")


def bench(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(run.WORK, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        result["failures"] = json.load(fh)["failures"]
    result["seed"] = seed
    vals = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} {vals}", flush=True)
    return result


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"meta": run.metadata(os.getcwd()), "seconds": spec["run_seconds"],
               "seeds": list(SEEDS), "workloads": {}}
    runs = {w: [] for w in fixtures.WORKLOADS}
    for seed in SEEDS:
        for w in fixtures.WORKLOADS:
            runs[w].append(bench(w, seed, 0))
    for w in fixtures.WORKLOADS:
        rec = {"runs": runs[w], "metrics": {},
               "failing_jobs": sorted({f["job"] for r in runs[w] for f in r["failures"]}),
               "correct": all(r["correct"] for r in runs[w])}
        for name, m in runs[w][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rec["metrics"][name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "bound": bounds[name]}
            print(f"  {w:10s} {name:14s} median {med:.4g} {m['unit']:3s} "
                  f"spread {spread:.3f} (bound {bounds[name]})", flush=True)
        ratios = [r["failed"] / r["attempted"] for r in runs[w]]
        print(f"  {w:10s} failed_ratio   median {statistics.median(ratios):.4f}; correct "
              f"{rec['correct']}; failing jobs: {', '.join(rec['failing_jobs']) or 'none'}",
              flush=True)
        summary["workloads"][w] = rec
    for w in fixtures.WORKLOADS:
        rec = summary["workloads"][w]
        traced = bench(w, SEEDS[0], 1)
        rec["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        top = sorted(((v, k) for k, v in rec["per_layer"].items() if k.endswith(".self_s")),
                     reverse=True)[:4]
        print(f"  {w:10s} traced: " + ", ".join(f"{k} {v:.3g} s" for v, k in top)
              + f"; overhead {rec['per_layer']['trace.overhead_ratio']:.3f}", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(OUT)), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
