"""The verification harness and the command-line interface."""

import json
import os
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from glhecke import springer, theta, verify
from glhecke.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, env=None, module="glhecke.cli"):
    """Run the CLI in a fresh interpreter that imports the package from src."""
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
    )


def test_run_suite_main_theorem_small():
    report = verify.run_suite("main-theorem", (1, 3), seed=0, cases=20)
    assert not (report.failed or report.errored)
    assert all(c.status == "pass" for c in report.checks)


def test_polyrep_suite_includes_tsm_check():
    report = verify.run_suite("polyrep", (2, 5), seed=0, cases=10)
    ids = {c.id for c in report.checks if c.status == "pass"}
    assert {f"tsm-m{m}" for m in range(2, 6)} <= ids
    assert not (report.failed or report.errored)


def test_run_suite_rejects_bad_input():
    with pytest.raises(ValueError):
        verify.run_suite("nonsense", (1, 2))
    with pytest.raises(ValueError):
        verify.run_suite("hecke", (3, 2))


def test_theta_suite_passes_from_m1():
    report = verify.run_suite("theta", (1, 2), seed=0, cases=5)
    assert not (report.failed or report.errored)
    assert [c.id for c in report.checks if c.id.startswith("dictionary")] == ["dictionary-m2"]


def test_run_check_matches_run_suite():
    report = verify.run_suite("springer", (3, 3))
    for c in report.checks:
        one = verify.run_check("springer", c.id[: -len("-m3")], 3)
        assert (one.id, one.anchor, one.status, one.counterexample) == (
            c.id, c.anchor, c.status, c.counterexample)
    with pytest.raises(ValueError):
        verify.run_check("springer", "kernel-stability", 1)
    with pytest.raises(ValueError):
        verify.run_check("springer", "nonsense", 2)


def test_planted_kact_fault_fails_every_suite_that_lists_it(monkeypatch, fresh_caches):
    # adding O to every k_act result breaks the k_act formulas, the defining
    # relations and the central characters; each suite must say so under its
    # own id, which shows the shared check functions are not vacuous
    true_k_act = springer.k_act
    monkeypatch.setattr(springer, "k_act", lambda h, c: true_k_act(h, c) + springer.structure_sheaf(c.m))
    planted = {
        "springer": {"kact-examples-m2", "center-m2"},
        "theta": {"defining-relations-m2", "central-characters-m2"},
        "main-theorem": {"module-isomorphism-m2", "module-relations-m2"},
    }
    for suite, ids in planted.items():
        report = verify.run_suite(suite, (2, 2), seed=0, cases=10)
        statuses = {c.id: c.status for c in report.checks}
        assert {statuses[i] for i in ids} == {"fail"}, (suite, statuses)


def _cpus(monkeypatch, n):
    """Run suites on n processes, whatever the machine has."""
    monkeypatch.setattr(verify, "_cpu_count", lambda: n)


def _wait_for(path, seconds=60):
    """Wait in the parent until a helper has made ``path``; ``pytest.fail``
    is no ``Exception``, so it stops the whole run, not just the check."""
    deadline = time.monotonic() + seconds
    while not path.exists():
        if time.monotonic() > deadline:
            pytest.fail(f"no helper made {path.name}")
        time.sleep(0.01)


def test_helpers_give_the_serial_report(monkeypatch, fresh_caches):
    # each unit's result depends on its check and context alone; the
    # helpers' run goes first, on cold caches, and forks exactly its helpers
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    for args in (("hecke", (1, 3), 0, 100), ("main-theorem", (1, 6), 0)):
        _cpus(monkeypatch, 3)
        forked = verify.report_json(verify.run_suite(*args))
        assert len(forks) == 2
        _cpus(monkeypatch, 1)
        assert verify.report_json(verify.run_suite(*args)) == forked, args[0]
        assert len(forks) == 2  # one CPU: nothing is forked
        forks.clear()


def test_planted_fault_fails_in_a_helper(monkeypatch, fresh_caches, tmp_path):
    # the parent holds its first k_act call until a helper has made one, so
    # a helper surely runs a faulty unit; every one of them must fail
    marker = tmp_path / "helper-ran"
    parent = os.getpid()
    true_k_act = springer.k_act

    def faulty(h, c):
        if os.getpid() == parent:
            _wait_for(marker)
        else:
            marker.touch()
        return true_k_act(h, c) + springer.structure_sheaf(c.m)

    monkeypatch.setattr(springer, "k_act", faulty)
    _cpus(monkeypatch, 2)
    report = verify.run_suite("main-theorem", (2, 3))
    statuses = {c.id: c.status for c in report.checks}
    faulty_ids = {f"{stem}-m{m}" for stem in ("module-isomorphism", "module-relations") for m in (2, 3)}
    assert {statuses[i] for i in faulty_ids} == {"fail"}, statuses


def test_a_check_that_kills_its_helper_is_an_error(monkeypatch, tmp_path):
    # a helper takes one `kill` unit and dies; the parent runs the rest
    marker = tmp_path / "killed"
    parent = os.getpid()

    def kill(c):
        if os.getpid() == parent:
            _wait_for(marker)
            return True
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)

    table = (verify._Spec("kill", kill, "x"), verify._Spec("quadratic", verify._quadratic, "y"))
    monkeypatch.setitem(verify._TABLES, "hecke", table)
    _cpus(monkeypatch, 2)
    report = verify.run_suite("hecke", (1, 3))
    assert [c.id for c in report.checks] == [f"{s}-m{m}" for m in (1, 2, 3) for s in ("kill", "quadratic")]
    errors = [c for c in report.checks if c.status != "pass"]
    assert len(errors) == 1 and errors[0].id.startswith("kill-"), report.checks
    assert errors[0].status == "error"
    assert errors[0].error == "the helper process running this check was killed by signal 9"
    assert verify.report_text(report).endswith("result: ERROR\n")


MANY_UNITS = """
from glhecke import verify
verify._cpu_count = lambda: 2
verify._TABLES["hecke"] = tuple(verify._Spec(f"t{i}", lambda c: True, "x") for i in range(7))
report = verify.run_suite("hecke", (1, 10000))
want = [f"t{i}-m{m}" for m in range(1, 10001) for i in range(7)]
print([c.id for c in report.checks] == want, {c.status for c in report.checks})
"""


def test_more_units_than_a_pipe_holds_do_not_hang():
    # 70,000 unit indices are more than 64 KiB even at one byte each
    proc = subprocess.run(
        [sys.executable, "-c", MANY_UNITS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.stdout.strip() == "True {'pass'}", proc.stderr


class _Stop(BaseException):
    """Raised by a check in the parent, past ``_run``'s handlers."""


def test_no_helper_outlives_run_suite(monkeypatch):
    _cpus(monkeypatch, 3)
    verify.run_suite("main-theorem", (1, 4))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    parent = os.getpid()

    def stop(c):
        if os.getpid() == parent:
            raise _Stop
        time.sleep(0.2)  # the helpers are still busy when the parent stops
        return True

    monkeypatch.setitem(verify._TABLES, "hecke", (verify._Spec("stop", stop, "x"),))
    with pytest.raises(_Stop):
        verify.run_suite("hecke", (1, 12))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_canonical_reports_match_golden():
    # the goldens are `glhecke verify <suite> --m 1..B --cases C --seed 0 --json`
    # output (C = 1000 is the default); a refactor must leave these canonical
    # reports byte-identical
    for suite, hi, cases in (
        ("theta", 4, 1000),
        ("main-theorem", 6, 1000),
        ("springer", 4, 1000),
        ("hecke", 3, 100),
        ("polyrep", 4, 100),
    ):
        report = verify.run_suite(suite, (1, hi), seed=0, cases=cases)
        with open(os.path.join(GOLDEN, f"verify_{suite}_m1-{hi}_seed0.json")) as fh:
            assert verify.report_json(report) == fh.read(), suite


def test_python_dash_m_glhecke(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "hecke", "--m", "1", "--cases", "1", "--json", str(out), module="glhecke")
    assert proc.returncode == 0, proc.stderr
    report = verify.run_suite("hecke", (1, 1), seed=0, cases=1)
    assert out.read_text() == verify.report_json(report)


def test_reports_are_deterministic():
    a = verify.run_suite("polyrep", (2, 3), seed=5, cases=15)
    b = verify.run_suite("polyrep", (2, 3), seed=5, cases=15)
    assert verify.report_json(a) == verify.report_json(b)
    # elapsed times may differ but are excluded from the canonical form
    assert verify.report_json(a, include_elapsed=True).count("elapsed_ms") == len(a.checks)


def test_report_statuses_no_floats():
    report = verify.run_suite("theta", (2, 2), seed=0, cases=5)
    payload = json.loads(verify.report_json(report))
    assert payload["schema"] == 1

    def no_floats(node):
        if isinstance(node, float):
            raise AssertionError("float in report")
        if isinstance(node, dict):
            for v in node.values():
                no_floats(v)
        if isinstance(node, list):
            for v in node:
                no_floats(v)

    no_floats(payload)
    statuses = {c["status"] for c in payload["checks"]}
    assert statuses <= {"pass", "fail", "convention-A", "convention-B"}
    assert "convention-A" in statuses


def test_reports_byte_identical_across_processes(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "theta", "--m", "2..3", "--seed", "7", "--cases", "5"]
    assert run_cli(*args, "--json", str(out1)).returncode == 0
    assert run_cli(*args, "--json", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_verify_writes_json(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "orbits", "--m", "1..2", "--n", "2", "--bounds", "0,1", "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == "orbits"
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_cli_verify_exit_code_subprocess():
    proc = run_cli("verify", "main-theorem", "--m", "1..2", "--seed", "0", "--cases", "10")
    assert proc.returncode == 0
    assert "result: OK" in proc.stdout


def test_cli_eval():
    proc = run_cli("eval", "--m", "2", "T[1] * 1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "s^2"
    proc = run_cli("eval", "--m", "2", "T[1] * x1")
    assert proc.stdout.strip() == "x2"
    proc = run_cli("eval", "--m", "3", "Tw[1] * 1")
    assert proc.stdout.strip() == "x1*s^2"
    proc = run_cli("eval", "--m", "2", "(s^2 - 1)*e[1,0] * x1")
    assert proc.stdout.strip() == "s^2 - 1"
    # Tw[2k] = e^(-k,-k) at m = 2; the power costs no recursion
    proc = run_cli("eval", "--m", "2", "Tw[3000] * 1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "x1^1500*x2^1500"


def test_cli_eval_affine():
    proc = run_cli("eval", "--m", "2", "T[2] * 1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x1*x2^-1*s^2 + s^2 - 1"


def test_cli_eval_multifactor_polynomial_tail():
    proc = run_cli("eval", "--m", "2", "T[1]*T[1] * x1*x2")
    assert proc.stdout.strip() == "x1*x2*s^4"
    proc = run_cli("eval", "--m", "2", "T[1] * x1*x2^-1")
    assert proc.stdout.strip() == "-s^2 + 1 + x1^-1*x2"


def test_cli_eval_term_cap_hit_is_an_error():
    # the cap stops the 200,000-term Bernstein correction of T[1] e[200000,0]
    proc = run_cli("eval", "--m", "2", "T[1]*e[200000,0] * 1", env={"GLHECKE_MAX_TERMS": "1000"})
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "GLHECKE_MAX_TERMS=1000" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_springer_flags_and_matrix():
    proc = run_cli("springer", "--m", "3", "--show", "flags")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["fixed_points"][0]["graded_weights"] == ["g", "s", "s^-1"]
    proc = run_cli("springer", "--m", "2", "--show", "matrix", "--generator", "T_sm")
    payload = json.loads(proc.stdout)
    assert payload == {
        "m": 2,
        "basis": "theorem",
        "generator": "T_sm",
        "matrix": [["-1", "0"], ["g*s + s", "s^2"]],
    }


def test_cli_springer_bases():
    proc = run_cli("springer", "--m", "2", "--show", "bases")
    payload = json.loads(proc.stdout)
    assert payload["lusztig_basis"][1] == ["g", "1"]


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_cli_springer_bases_golden(m, tmp_path):
    # the goldens are `glhecke springer --m M --show bases --json` output; from
    # m = 3 on they hold Lusztig entries that are not Laurent polynomials
    out = tmp_path / "bases.json"
    assert main(["springer", "--m", str(m), "--show", "bases", "--json", str(out)]) == 0
    with open(os.path.join(GOLDEN, f"springer_bases_m{m}.json")) as fh:
        assert out.read_text() == fh.read()


def test_cli_theta_matrices():
    proc = run_cli("theta", "--m", "2", "--matrices")
    payload = json.loads(proc.stdout)
    assert payload["matrices"]["Tw[1]"] == [["0", "g^-1"], ["1", "0"]]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_cli_theta_matrices_golden(m, tmp_path):
    # the goldens are `glhecke theta --m M --matrices --json` output; they pin
    # the dense rendering of the sparse cached matrices, zeros included
    out = tmp_path / "matrices.json"
    assert main(["theta", "--m", str(m), "--matrices", "--json", str(out)]) == 0
    with open(os.path.join(GOLDEN, f"theta_matrices_m{m}.json")) as fh:
        assert out.read_text() == fh.read()


def test_cli_orbits():
    proc = run_cli("orbits", "--n", "1", "--m", "2", "--bounds", "0,1", "--count-only")
    assert proc.stdout.strip() == "4"
    # argparse would read a separate "-1,2" as an option; after "=" it is the
    # value, N = -1, and the box is 1 <= lambda <= 2: 2 values x 2 injections
    proc = run_cli("orbits", "--n", "1", "--m", "2", "--bounds=-1,2", "--count-only")
    assert proc.returncode == 0 and proc.stdout.strip() == "4"
    proc = run_cli("orbits", "--n", "1", "--m", "3", "--bounds", "0,2")
    payload = json.loads(proc.stdout)
    assert payload["count"] == 3 * 3  # lam in {0,1,2} x |S_(1,3)| = 3
    proc = run_cli("orbits", "--n", "3", "--m", "2", "--bounds", "0,1")
    assert proc.returncode == 2


def test_cli_error_paths(tmp_path):
    missing = str(tmp_path / "missing" / "x.json")
    for args in (
        ("eval", "--m", "2", "nonsense"),
        ("eval", "--m", "2", "T_1 * 1"),
        ("eval", "--m", "2", "T[1] * x1 $"),
        ("eval", "--m", "2", "T[1,2] * 1"),
        ("eval", "--m", "2", "e[1] * 1"),
        ("eval", "--m", "2", "s^x * 1"),
        ("verify", "hecke", "--m", "0..2"),
        ("verify", "hecke", "--m", "3..2"),
        ("verify", "hecke", "--m", "2.."),
        ("springer", "--m", "-1", "--show", "bases"),
        ("eval", "--m", "0", "1 * 1"),
        ("theta", "--m", "1..2", "--matrices"),
        ("verify", "orbits", "--m", "1..2", "--n", "0"),
        ("verify", "hecke", "--m", "2", "--cases", "-5"),
        ("verify", "hecke", "--m", "2", "--cases", "0"),
        ("verify", "orbits", "--m", "2", "--bounds", "0,0"),
        ("orbits", "--n", "0", "--m", "2", "--bounds", "0,1"),
        ("springer", "--m", "2", "--show", "matrix", "--generator", "bogus"),
        # an unwritable --json target is refused before any work
        ("verify", "springer", "--m", "2..3", "--json", missing),
        ("springer", "--m", "2", "--show", "bases", "--json", missing),
        ("theta", "--m", "2", "--matrices", "--json", missing),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == "", args
    for cap in ("abc", "0", "-5"):
        proc = run_cli("verify", "hecke", "--m", "2", env={"GLHECKE_MAX_TERMS": cap})
        assert proc.returncode == 2, cap
        assert proc.stdout == "", cap
        assert "GLHECKE_MAX_TERMS" in proc.stderr, cap


def test_cli_input_errors_come_before_any_work(monkeypatch, tmp_path, capsys):
    def work(*args, **kwargs):
        pytest.fail("work started before the input was checked")

    monkeypatch.setattr(theta, "theta_action_matrices", work)
    monkeypatch.setattr(verify, "run_suite", work)
    missing = str(tmp_path / "missing" / "x.json")
    for argv in (
        ["springer", "--m", "2", "--show", "matrix", "--generator", "bogus"],
        ["verify", "springer", "--m", "2..3", "--json", missing],
        ["theta", "--m", "2", "--matrices", "--json", missing],
    ):
        assert main(argv) == 2, argv
    assert capsys.readouterr().out == ""


def test_cli_term_cap_hit_is_an_error_not_a_counterexample(tmp_path):
    # a resource limit decides nothing, so the check is `error` and the run exits 3
    out = tmp_path / "report.json"
    proc = run_cli("verify", "hecke", "--m", "2", "--cases", "3", "--json", str(out),
                   env={"GLHECKE_MAX_TERMS": "3"})
    assert proc.returncode == 3, proc.stderr
    assert "result: ERROR" in proc.stdout
    checks = {c["id"]: c for c in json.loads(out.read_text())["checks"]}
    hit = checks["associativity-m2"]
    assert hit["status"] == "error"
    assert "TermBudgetError" in hit["error"] and "counterexample" not in hit
    assert "fail" not in {c["status"] for c in checks.values()}


def test_cli_progress_writes_only_to_stderr(monkeypatch, tmp_path, capsys):
    # elapsed times are frozen at 0 ms, so the two stdouts compare exactly
    # and helpers change neither: the lines come in table order
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    runs = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        for flag in ([], ["--progress"]):
            out = tmp_path / f"report{len(runs)}.json"
            assert main(["verify", "hecke", "--m", "1..2", "--cases", "5", "--json", str(out), *flag]) == 0
            runs.append((capsys.readouterr(), out.read_bytes()))
    (quiet, quiet_json), (loud, loud_json) = runs[:2]
    assert quiet.err == ""
    for cap, report in runs:
        assert cap.out == quiet.out and report == quiet_json
    ids = [c["id"] for c in json.loads(quiet_json)["checks"]]
    assert [cap.err for cap, _ in runs] == ["", loud.err] * 2
    assert loud.err.splitlines() == [f"{i}: pass (0 ms)" for i in ids]


def test_cli_stopped_run_leaves_no_json(tmp_path):
    # the report is written beside the target and renamed only when the command returns
    args = ("springer", "--m", "4", "--show", "bases", "--json")
    env = {"GLHECKE_MAX_TERMS": "2"}
    assert run_cli(*args, str(tmp_path / "out.json"), env=env).returncode == 3
    kept = tmp_path / "kept.json"
    kept.write_text("earlier\n")
    assert run_cli(*args, str(kept), env=env).returncode == 3
    assert kept.read_text() == "earlier\n"
    assert sorted(os.listdir(tmp_path)) == ["kept.json"]
    assert main(["springer", "--m", "2", "--show", "bases", "--json", str(tmp_path)]) == 2


def test_cli_failure_takes_precedence_over_error(monkeypatch, capsys):
    # a counterexample is decisive, an error is not: a run with both exits 1
    checks = [
        verify.Check("a-m2", "x", "error", error="TermBudgetError()"),
        verify.Check("b-m2", "x", "fail", counterexample="1 != 2"),
    ]
    report = verify.VerificationReport("hecke", (2, 2), 0, checks)
    monkeypatch.setattr(verify, "run_suite", lambda *args, **kwargs: report)
    assert main(["verify", "hecke", "--m", "2"]) == 1
    assert "result: FAIL" in capsys.readouterr().out
    report.checks = checks[:1]
    assert main(["verify", "hecke", "--m", "2"]) == 3
    assert "result: ERROR" in capsys.readouterr().out


# what the package loads, not what the interpreter's site loaded before it
IMPORT_GUARD = """
import sys
before = set(sys.modules)
from glhecke import verify
from glhecke.cli import main
heavy = {"dataclasses", "inspect", "hashlib", "multiprocessing", "concurrent.futures"}
seen = [sorted(heavy & (set(sys.modules) - before))]
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    # with helpers, then serially, so the parent makes hecke's first draw
    for cpus, argv in ((2, ["main-theorem", "--m", "1..2"]), (1, ["hecke", "--m", "2", "--cases", "5"])):
        verify._cpu_count = lambda: cpus
        assert main(["verify", *argv]) == 0
        seen.append("hashlib" in set(sys.modules) - before)
seen.append(sorted((heavy - {"hashlib"}) & (set(sys.modules) - before)))
print(seen)
"""


def test_cli_import_loads_no_dataclasses_or_hashlib():
    # startup dominates a small-rank run, so the CLI loads neither the
    # dataclasses machinery (with inspect) nor hashlib (with OpenSSL) on
    # import; hashlib comes in with the first seeded draw, which main-theorem
    # never makes and hecke does; the helpers are forked by hand, so neither
    # multiprocessing nor concurrent.futures is loaded, on import or after
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": SRC},
        check=True,
    )
    assert proc.stdout.strip() == "[[], False, True, []]"
