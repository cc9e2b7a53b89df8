"""Acceptance criteria: every exactness claim at its stated range and time
budget, one printed pass/fail line per criterion.

All comparisons are exact symbolic equalities (zero tolerance); the time
budgets are generous on current hardware and asserted as stated.  Criteria
that re-check a registered identity run the registered check by id through
``verify.run_check``, the runner behind ``glhecke verify``.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines,
or execute this file directly.
"""

import time

import pytest

from glhecke import laurent, theta, verify


def _report(n, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {n}: {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    return ok


def _criterion(n, label, budget, suite, stems, ms):
    """Run the registered checks ``stems`` of ``suite`` at every rank in ms."""
    t0 = time.perf_counter()
    checks = [verify.run_check(suite, stem, m) for m in ms for stem in stems]
    elapsed = time.perf_counter() - t0
    failed = [c for c in checks if c.status != "pass"]
    assert _report(n, label, not failed, elapsed, budget) and elapsed < budget, failed


def test_criterion_01_tsm_closed_form():
    _criterion(1, "T_sm * 1 closed form, m=2..8", 5, "polyrep", ["tsm"], range(2, 9))


def test_criterion_02_main_theorem():
    stems = ["module-isomorphism", "module-relations"]
    _criterion(2, "module isomorphism + relations, m=1..56", 60, "main-theorem", stems, range(1, 57))


def test_criterion_03_freeness():
    label = "Tw1-orbit of IC^0 is a basis, m=1..64"
    _criterion(3, label, 10, "main-theorem", ["freeness"], range(1, 65))


def test_criterion_04_center():
    label = "orbit sums of e^omega_k act by e_k of the weights, m=2..48"
    _criterion(4, label, 30, "springer", ["center"], range(2, 49))


def test_criterion_05_hecke_soundness():
    t0 = time.perf_counter()
    report = verify.run_suite("hecke", (2, 4), seed=0, cases=1000)
    ok = not (report.failed or report.errored)
    elapsed = time.perf_counter() - t0
    assert _report(5, "braid/quadratic/Bernstein + associativity, m=2..4", ok, elapsed, 60) and elapsed < 60


def test_errored_check_fails_criterion_05(monkeypatch):
    # a check stopped by the term cap decided nothing, so it cannot pass the gate
    monkeypatch.setattr(laurent, "_MAX_TERMS", 3)
    report = verify.run_suite("hecke", (2, 4), seed=0, cases=1000)
    assert report.errored and not report.failed
    with pytest.raises(AssertionError):
        test_criterion_05_hecke_soundness()


def test_criterion_06_basis_system():
    label = "Lusztig change-of-basis system, m=2..32"
    _criterion(6, label, 10, "springer", ["declared-bases"], range(2, 33))


def test_criterion_07_kernel_stability():
    label = "the ideal generators of the kernel stay in it under every generator, m=2..16"
    _criterion(7, label, 60, "springer", ["kernel-stability"], range(2, 17))


def test_criterion_08_orbit_combinatorics():
    # orbit-count, injection-count and representatives at every n <= m <= 4
    bounds = [(bn, br) for bn in range(4) for br in range(4) if bn + br]
    t0 = time.perf_counter()
    checks = [c for b in bounds for c in verify.run_suite("orbits", (1, 4), n=4, bounds=b).checks]
    elapsed = time.perf_counter() - t0
    failed = [c for c in checks if c.status != "pass"]
    assert len(checks) == 450
    label = "orbit enumeration vs brute force, n<=m<=4, N,r<=3"
    assert _report(8, label, not failed, elapsed, 5) and elapsed < 5, failed


def test_criterion_09_weyl_length_oracle():
    label = "length formula == BFS Cayley-graph distance, m<=3"
    _criterion(9, label, 30, "hecke", ["weyl-length-bfs"], (1, 2, 3))


def test_criterion_10_dictionary_report():
    import json
    import os

    t0 = time.perf_counter()
    ok = True
    golden_dir = os.path.join(os.path.dirname(__file__), "golden")
    for m in range(2, 6):
        rep = theta.dictionary_report(m)
        ok = ok and rep["matching_convention"] in ("A", "B")
        rendered = json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n"
        with open(os.path.join(golden_dir, f"dictionary_m{m}.json")) as fh:
            ok = ok and fh.read() == rendered
        again = theta.dictionary_report(m)
        ok = ok and again == rep
    elapsed = time.perf_counter() - t0
    assert _report(10, "exactly one twist convention matches; golden report stable, m=2..5", ok, elapsed, 30) and elapsed < 30


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            fn()
