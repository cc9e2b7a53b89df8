"""Run every workload of the benchmark on two sets of seeds and summarise.

    python3 perfbench/baseline.py [--out FILE]

For each workload this makes one untraced run per seed of each set (seeds
1-10, then 11-20) and one traced run on seed 1, one at a time, each for
``run_seconds`` of ``BENCHMARK.json``, and writes a JSON file with:

* per set and end-to-end metric: the ten values, their median, quartiles
  and spread (interquartile range over median), as the benchmark's bounds
  are checked;
* ``agreement``: the second set's median over the first set's, per metric;
* ``time_bases``: the same spread for three bases of ``verify_s``, each the
  per-run median over its executions: unscaled wall time, the child's CPU
  time (``ru_utime + ru_stime`` from ``os.wait4``) and the probe-scaled
  wall time that the benchmark reports.  If CPU time were as steady as the
  scaled time, the speed probe would not be needed;
* ``executions``: per run, each execution's unscaled ``verify_s``, its
  scaled value and its CPU time;
* the traced run's per-layer metrics and the context of the first run.

``perfbench/baseline.json`` was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_SETS = (list(range(1, 11)), list(range(11, 21)))
TIME_BASES = {"wall": "verify_s", "cpu": "cpu_s", "scaled": "verify_scaled_s"}


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """One run; returns its context, result object and artifact."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    head = json.loads(lines[-2])
    with open(os.path.join(ROOT, head["artifact"])) as fh:
        artifact = json.load(fh)
    return head["context"], result, artifact


def summary_of(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    summary: dict = {"seed_sets": SEED_SETS, "run_seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        sets, bases, executions = [], [], {}
        for seeds in SEED_SETS:
            values: dict[str, list[float]] = {}
            base_values: dict[str, list[float]] = {b: [] for b in TIME_BASES}
            for seed in seeds:
                context, result, artifact = bench(name, seed, seconds, 0)
                summary.setdefault("context", context)
                for metric, v in result["metrics"].items():
                    values.setdefault(metric, []).append(v["value"])
                runs = artifact["executions"]
                for base, key in TIME_BASES.items():
                    base_values[base].append(statistics.median(ex[key] for ex in runs))
                executions[str(seed)] = [
                    {key: ex[key] for key in TIME_BASES.values()} for ex in runs
                ]
                print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
            sets.append({metric: summary_of(vals) for metric, vals in values.items()})
            bases.append({base: summary_of(vals)["spread"] for base, vals in base_values.items()})
            for metric, s in sets[-1].items():
                print(f"  {metric}: median {s['median']:.4f} spread {s['spread']:.4f}", flush=True)
            print(f"  verify_s spread by time base: {bases[-1]}", flush=True)
        _, traced, _ = bench(name, SEED_SETS[0][0], seconds, 1)
        summary["workloads"][name] = {
            "why": w["why"],
            "end_to_end": sets,
            "agreement": {m: sets[1][m]["median"] / sets[0][m]["median"] for m in sets[0]},
            "time_bases": bases,
            "executions": executions,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
