"""The glhecke benchmark: cold `glhecke verify` executions in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}

Run it from the root of a checkout; the program is imported from ``src/``
there, nothing is installed.  Every execution is a new interpreter
(``child.py``), because every user invocation pays the per-rank caches of
``springer`` and ``theta`` cold.  Children run one at a time, with
``GLHECKE_MAX_TERMS`` and the ``PYTHON*`` variables removed from their
environment and ``PYTHONHASHSEED`` fixed.

``--trace 0`` runs the workload's verify invocation again and again until
the next execution would end after ``--seconds``, with two import-only
children before each, and reports medians:

* ``verify_s``: wall time of ``glhecke.cli.main([...])`` after the import,
  less the speed probe's own time, scaled by ``PROBE_NOMINAL_S`` over the
  probe's mean time in that execution (``child.SpeedProbe``): seconds at
  the probe's nominal speed.  Other tenants slow a shared machine down in
  bursts by up to 2x, and the child's CPU time stretches with its wall
  time: the CPU runs slower, the child does not wait, so CPU time is no
  steadier.  On a shared 2-CPU x86-64 machine, twelve executions of one
  fixed input varied by 15.5 % (wall), 15.3 % (CPU) and 2.6 % (scaled),
  as coefficients of variation; ``baseline.json`` holds the spreads of all
  three over whole runs.  The probe runs with the collector off, so its
  time does not depend on the program's heap.  The artifact keeps each
  execution's unscaled time and its CPU time (``cpu_s``, ``os.wait4``);
* ``setup_s``: spawn to ``import glhecke.cli`` finished, scaled by
  ``PROBE_NOMINAL_S`` over the run's median probe time.  An import is too
  short to probe, but this cancels slow phases that last a whole run;
* ``peak_rss_mib``: peak resident memory of the executing child, from its
  own rusage (``os.wait4``).

``--trace 1`` alternates untraced and traced executions (both with the same
seed) over the same time and reports the per-layer metrics of ``tracer.py``
(medians over the first three traced executions), ``trace.verify_s`` (the
unscaled wall time of a traced execution, the base of the self-time shares)
and ``trace.overhead_ratio`` = traced ÷ untraced ``verify_s``.

Execution ``i`` of a run verifies with ``--seed 1000 * SEED + i``, so a run
covers several random draws and its median does not hang on the cost of one
draw; the same ``--seed`` gives the same sequence of inputs.  Every
execution is checked: its exit code must be 0 and its canonical JSON report
must be byte-identical to ``expected/<workload>.json`` with the seed field
set to its own seed (the expected files are the reports of this program at
seed 0; a passing report depends on the seed only through that field).
A failed execution counts all its checks as failed.  The first execution of
a run also passes ``--timings``; its per-check ``elapsed_ms`` are kept in
``perfbench/out/`` as an artifact together with the run context and every
sample.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# argv of `glhecke`, without --seed/--json.  One execution takes a few
# seconds, so that a run holds enough executions for a steady median.  The
# Hecke workload stops at m = 3: one random m = 4 associativity case costs
# anything from 1 ms to 1 s, so a run's time would hang on the cases drawn.
# The springer workload stops at m = 4: at m = 5 one fixed Fraction RREF
# (``kernel_vectors``) takes most of the time and slows down under other
# tenants about 1.24 times as much as the speed probe does (as a power of
# the probe's slowdown), so scaled times still drifted with the machine;
# at m <= 4 the exponent is 0.99 and 200 random draws per rank dominate.
WORKLOADS = {
    "hecke-products": (
        ["verify", "hecke", "--m", "2..3", "--cases", "800"],
        "HeckeElt products and 1-variable LaurentPoly multiplies; never touches "
        "springer or linalg",
    ),
    "module-theorem": (
        ["verify", "main-theorem", "--m", "1..5"],
        "k_act through Cramer solves of one fixed matrix per rank (Laurent Bareiss, "
        "2-variable div_exact); no random checks, so the seed changes nothing",
    ),
    "kernel-restriction": (
        ["verify", "springer", "--m", "2..4", "--cases", "2000"],
        "pushdown_poly, Fraction RREF nullspace and act_T on many-variable "
        "polynomials; Laurent adds, not multiplies",
    ),
}

END_TO_END_UNITS = {"verify_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# import-only children before each execution; spread over the run, their
# median does not hang on one slow second of a shared machine
SETUP_SAMPLES = 2
MIN_EXECUTIONS = 3  # per run; in trace mode, pairs of executions
CHILD_TIMEOUT_S = 150
# about the median time of one child.probe_step on a shared 2-CPU x86-64
# machine with Python 3.11; any fixed value works, it only sets the scale
PROBE_NOMINAL_S = 0.001


def child_env() -> dict[str, str]:
    env = {
        k: v
        for k, v in os.environ.items()
        if k != "GLHECKE_MAX_TERMS" and not k.startswith("PYTHON")
    }
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, record: str, argv: list[str], env: dict[str, str]) -> dict:
    """Run one child to completion; returns its record plus ``setup_s``,
    ``wall_s``, ``rss_mib``, ``returncode`` and ``stderr``."""
    if os.path.exists(record):
        os.remove(record)
    err_path = record + ".err"
    with open(err_path, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), mode, record, *argv],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - t0 > CHILD_TIMEOUT_S:
                os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path) as fh:
        stderr = fh.read()
    os.remove(err_path)
    out = {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024,
    }
    if os.path.exists(record):
        with open(record) as fh:
            out.update(json.load(fh))
        os.remove(record)
        out["setup_s"] = out.pop("imported_at") - t0
    if proc.returncode != 0:
        out["stderr"] = stderr[-2000:]
    return out


def render(payload: dict) -> bytes:
    """The byte format of ``glhecke.verify.report_json``."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def canonical(raw: bytes) -> bytes:
    """Drop the ``elapsed_ms`` that ``--timings`` adds."""
    payload = json.loads(raw)
    for check in payload["checks"]:
        check.pop("elapsed_ms", None)
    return render(payload)


class Run:
    """The executions of one benchmark run and their correctness."""

    def __init__(self, workload: str, seed: int):
        self.argv = WORKLOADS[workload][0]
        self.seed = seed
        with open(os.path.join(HERE, "expected", f"{workload}.json"), "rb") as fh:
            golden = fh.read()
        self.golden = json.loads(golden)
        if render(self.golden) != golden:
            raise SystemExit(f"expected/{workload}.json is not in canonical form")
        self.n_checks = len(self.golden["checks"])
        self.env = child_env()
        self.record = os.path.join(OUT, f"{workload}.record.json")
        self.report = os.path.join(OUT, f"{workload}.report.json")
        self.executions: list[dict] = []
        self.timings: list | None = None
        self.attempted = 0
        self.failed = 0

    def setup_only(self) -> dict:
        return spawn("import", self.record, [], self.env)

    def execute(self, mode: str, index: int) -> dict:
        """Execution ``index`` of the run verifies with seed ``1000 * seed + index``."""
        seed = 1000 * self.seed + index
        timings = self.timings is None
        argv = [*self.argv, "--seed", str(seed), "--json", self.report]
        if timings:
            argv.append("--timings")
        if os.path.exists(self.report):
            os.remove(self.report)
        ex = spawn(mode, self.record, argv, self.env)
        ex["mode"] = mode
        ex["seed"] = seed
        probes = ex.pop("probe_s", None)
        if probes:
            ex["probe_mean_s"] = statistics.fmean(probes)
            ex["verify_scaled_s"] = (
                (ex["verify_s"] - sum(probes)) * PROBE_NOMINAL_S / ex["probe_mean_s"]
            )
        raw = b""
        if os.path.exists(self.report):
            with open(self.report, "rb") as fh:
                raw = fh.read()
            os.remove(self.report)
        ex["ok"] = False
        if ex["returncode"] == 0 and ex.get("exit_code") == 0 and raw:
            report = canonical(raw) if timings else raw
            ex["report_sha256"] = hashlib.sha256(report).hexdigest()
            ex["ok"] = report == render({**self.golden, "seed": seed})
            if ex["ok"] and timings:
                self.timings = [
                    {"id": c["id"], "elapsed_ms": c["elapsed_ms"]}
                    for c in json.loads(raw)["checks"]
                ]
        self.attempted += self.n_checks
        if not ex["ok"]:
            self.failed += self.n_checks
            print(f"execution failed: {json.dumps(ex)}", file=sys.stderr)
        self.executions.append(ex)
        return ex


def median_of(samples: list[dict], key: str, mode: str | None = None) -> float:
    values = [s[key] for s in samples if key in s and (mode is None or s.get("mode") == mode)]
    return statistics.median(values) if values else 0.0


def per_layer_names() -> list[tuple[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def run_context(workload: str, seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # checkouts made for benchmarking need not be git repositories
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "glhecke")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    argv, why = WORKLOADS[workload]
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "argv": ["glhecke", *argv, "--seed", "<1000 * seed + execution index>"],
        "why": why,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "glhecke", "cli.py")):
        print(f"no glhecke sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    run = Run(args.workload, args.seed)
    warm = run.setup_only()  # compiles bytecode once, as an installed package has it
    if warm["returncode"] != 0:
        print(f"glhecke does not import: {warm.get('stderr', '')}", file=sys.stderr)
        return 1

    start = time.monotonic()
    deadline = start + args.seconds
    setups: list[dict] = []
    modes = ["run", "trace"] if args.trace else ["run"]
    rounds = 0
    while True:
        if not args.trace:
            setups += [run.setup_only() for _ in range(SETUP_SAMPLES)]
        walls = [run.execute(mode, rounds)["wall_s"] for mode in modes]
        rounds += 1
        if rounds >= MIN_EXECUTIONS and time.monotonic() + sum(walls) > deadline:
            break
    elapsed = time.monotonic() - start

    executions = run.executions
    if args.trace:
        # the first pairs run in every run, so counts repeat exactly per seed
        traced = [ex["trace"] for ex in executions if ex["ok"] and "trace" in ex]
        traced = traced[:MIN_EXECUTIONS]
        untraced = median_of(executions, "verify_scaled_s", "run")
        metrics = {
            name: statistics.median(t.get(name, 0.0) for t in traced) if traced else 0.0
            for name, _ in per_layer_names()
            if not name.startswith("trace.")
        }
        metrics["trace.verify_s"] = median_of(executions, "verify_s", "trace")
        traced_scaled = median_of(executions, "verify_scaled_s", "trace")
        metrics["trace.overhead_ratio"] = traced_scaled / untraced if untraced else 0.0
        units = dict(per_layer_names())
    else:
        probe = median_of(executions, "probe_mean_s")
        speed = PROBE_NOMINAL_S / probe if probe else 1.0
        metrics = {
            "verify_s": median_of(executions, "verify_scaled_s"),
            "setup_s": median_of(setups + executions, "setup_s") * speed,
            "peak_rss_mib": median_of(executions, "rss_mib"),
        }
        units = END_TO_END_UNITS

    context = run_context(args.workload, args.seed)
    context.update(
        measured_s=elapsed,
        executions=len(executions),
        report_sha256=sorted({ex.get("report_sha256") for ex in executions if ex["ok"]}),
    )
    artifact = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(artifact, "w") as fh:
        json.dump(
            {
                "context": context,
                "check_timings_ms": run.timings,
                "setups": setups,
                "executions": [{k: v for k, v in ex.items() if k != "trace"} for ex in executions],
                "metrics": metrics,
            },
            fh,
            indent=1,
        )
    print(json.dumps({"context": context, "artifact": os.path.relpath(artifact, ROOT)}))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
