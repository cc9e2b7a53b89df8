"""One glhecke execution in a fresh interpreter, measured from the inside.

    python3 perfbench/child.py {import|run|trace} RECORD.json [glhecke argv...]

``import`` only imports ``glhecke.cli``; ``run`` then calls
``glhecke.cli.main(argv)``; ``trace`` installs the per-layer wrappers of
``tracer.py`` first.  The record holds the ``time.monotonic()`` reading at
which the import finished (the parent subtracts its own reading taken just
before the spawn; both read the same system-wide clock), the wall time of
``main`` and its exit code, the speed probe's samples, and in ``trace`` mode
the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROBE_INTERVAL_S = 0.025
PROBE_TERMS = {(i, j, -i): i - j + 1 for i in range(4) for j in range(6)}


class _Poly:
    """A minimal one-variable sparse polynomial for the speed probe."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict) -> None:
        self.terms = terms

    def __mul__(self, other: "_Poly") -> "_Poly":
        out: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = (ka[0] + kb[0],)
                c = out.get(key, 0) + ca * cb
                if c:
                    out[key] = c
                else:
                    out.pop(key, None)
        return _Poly(out)

    def __add__(self, other: "_Poly") -> "_Poly":
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return _Poly(terms)


PROBE_FACTORS = [_Poly({(k,): k + 2, (k + 1,): -1}) for k in range(-3, 4)]


def probe_step() -> None:
    """A fixed piece of pure-Python work with the program's mix: a
    three-variable product on tuple keys, then small-object products and
    sums.  How much a slowdown of the machine stretches a piece of code
    depends on that mix; this one stretches like the workloads do."""
    out: dict = {}
    for ka, ca in PROBE_TERMS.items():
        for kb, cb in PROBE_TERMS.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    acc = _Poly({(0,): 1})
    for _ in range(6):
        for p in PROBE_FACTORS:
            acc = acc * p + p
            if len(acc.terms) > 8:
                acc = _Poly({(0,): 1})


class SpeedProbe:
    """Times ``probe_step`` on a timer signal every 25 ms while the program
    runs.  On a shared machine the CPU slows down in bursts of a fraction of
    a second; these samples say how fast it was during this execution, in
    the same process and the same interval."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _step(self, signum, frame) -> None:
        # without collections, the step's time does not depend on the
        # size of the program's heap
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe_step()
        self.samples.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._step)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    mode, record_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, SRC)
    import glhecke.cli

    imported_at = time.monotonic()
    if not os.path.abspath(glhecke.cli.__file__).startswith(SRC + os.sep):
        print(f"glhecke was imported from {glhecke.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    record: dict = {"imported_at": imported_at}
    if mode != "import":
        tracer = None
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            record["exit_code"] = glhecke.cli.main(argv)
            record["verify_s"] = time.perf_counter() - t0
        record["probe_s"] = probe.samples
        if tracer is not None:
            record["trace"] = tracer.metrics()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return record.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
