"""Command-line interface: identity verification, expression evaluation, and
table dumps.

Subcommands:
  verify <suite> --m A..B [--seed S] [--cases N] [--json PATH] [--timings] [--progress]
  eval --m M "<hecke-literal> * <poly-literal>"
  springer --m M --show {flags|bases|matrix} [--generator KEY] [--json PATH]
  theta --m M --matrices [--json PATH]
  orbits --n N --m M --bounds N,r [--count-only]

Set GLHECKE_MAX_TERMS to a positive integer to cap the term count of every
polynomial sum and product (CI memory limits).  It is read once, at startup;
any other non-empty value is rejected with exit code 2.

``verify`` exits 0 when every check passes, 1 when a check fails, 2 on bad
input, and 3 when a check hit the term cap, memory or the recursion limit
(status ``error``), so its identity was not decided.  A failure takes
precedence: a run with both a failed and an errored check exits 1.  Every
other subcommand that hits the term cap prints ``error: ...`` on stderr,
nothing on stdout, and exits 3 as well.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext

from . import springer, theta, verify
from .hecke import parse_hecke
from .laurent import TermBudgetError, check_term_cap, parse_poly, x_profile
from .polyrep import act


def _m_range(text: str) -> tuple[int, int]:
    """Validate ``--m``: a rank ``M`` or a range ``A..B`` with 1 <= A <= B."""
    lo, sep, hi = text.partition("..")
    try:
        a, b = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a rank M or a range A..B, got {text!r}") from None
    if not 1 <= a <= b:
        raise argparse.ArgumentTypeError(f"ranks start at 1 and need A <= B, got {text!r}")
    return a, b


def _m_single(text: str) -> int:
    a, b = _m_range(text)
    if a != b:
        raise argparse.ArgumentTypeError(f"expected a single rank, got {text!r}")
    return a


def _count(text: str) -> int:
    """Validate ``--cases`` and ``--n``: an integer >= 1, so no run is vacuous."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


# argparse reads a separate "-1,2" as an option, so a negative N goes after "="
BOUNDS_HELP = "N,r, the box -N <= lambda_i <= r; a negative N is written --bounds=-1,2"


def _bounds(text: str) -> tuple[int, int]:
    """Validate ``--bounds``: ``N,r`` with N + r > 0."""
    lo, _, hi = text.partition(",")
    try:
        bound_n, bound_r = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N,r, got {text!r}") from None
    if bound_n + bound_r <= 0:
        raise argparse.ArgumentTypeError(f"N + r > 0 required, got {text!r}")
    return bound_n, bound_r


def _split_eval_expression(m: int, text: str):
    """Split '<hecke-literal> * <poly-literal>' at a top-level '*'.

    Tried right to left so multi-factor polynomial tails like ``x1*x2``
    stay on the polynomial side; the first split where both halves parse
    wins.
    """
    depth = 0
    stars = []
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "*" and depth == 0:
            stars.append(i)
    errors = []
    for i in reversed(stars):
        try:
            h = parse_hecke(m, text[:i])
            u = parse_poly(x_profile(m), text[i + 1 :])
            return h, u
        except ValueError as exc:
            errors.append(str(exc))
    raise ValueError(
        "expected '<hecke-literal> * <poly-literal>'"
        + (f" ({errors[-1]})" if errors else "")
    )


def _print_progress(check: verify.Check) -> None:
    print(f"{check.id}: {check.status} ({check.elapsed_ms} ms)", file=sys.stderr, flush=True)


def _cmd_verify(args, sink) -> int:
    report = verify.run_suite(
        args.suite,
        args.m,
        seed=args.seed,
        cases=args.cases,
        n=args.n,
        bounds=args.bounds,
        progress=_print_progress if args.progress else None,
    )
    sys.stdout.write(verify.report_text(report))
    if sink:
        sink.write(verify.report_json(report, include_elapsed=args.timings))
    return 1 if report.failed else 3 if report.errored else 0


def _cmd_eval(args, _sink) -> int:
    h, u = _split_eval_expression(args.m, args.expression)
    print(act(h, u))
    return 0


def _emit(payload: dict, sink) -> None:
    """Print the payload as indented JSON; write it compactly to ``sink``."""
    print(json.dumps(payload, indent=2, sort_keys=True))
    if sink:
        sink.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _generator_key(m: int, generator: str) -> str:
    """Resolve ``--generator``: a key of ``theta.generator_keys(m)`` or an
    alias T_si, T_sm, T_w1.  Called before any matrix is built."""
    aliases = {f"T_s{i}": f"T[{i}]" for i in range(1, m + 1)}
    aliases["T_sm"] = f"T[{m}]"
    aliases["T_w1"] = "Tw[1]"
    key = aliases.get(generator, generator)
    keys = theta.generator_keys(m)
    if key not in keys:
        raise ValueError(f"unknown generator {generator!r}; available: {sorted(keys)}")
    return key


def _lusztig_text(num) -> str:
    """A solved Lusztig entry num / (1 - s^2): the Laurent quotient when it
    exists, else the fraction."""
    den = springer.LUSZTIG_DENOMINATOR
    q = num.div_exact(den)
    return f"({num}) / ({den})" if q is None else str(q)


def _cmd_springer(args, sink) -> int:
    m = args.m
    if args.show == "flags":
        table = springer.build_fixed_flags(m)
        payload = {
            "m": m,
            "fixed_points": [
                {
                    "point": f"p{k + 1}",
                    "flag": [
                        "<" + ",".join(f"u{v}" for v in step) + ">"
                        for step in table.flags[k]
                    ],
                    "graded_weights": [str(table.weight_poly(k, j)) for j in range(m)],
                }
                for k in range(m)
            ],
        }
    elif args.show == "bases":
        tables = springer.declared_bases(m)
        payload = {
            "m": m,
            "system_determinant": str(tables.system_det),
            "theorem_basis": [
                [str(e) for e in cls.entries] for cls in tables.theorem
            ],
            "lusztig_basis": [
                [_lusztig_text(num) for num in row] for row in tables.lusztig
            ],
        }
    else:  # matrix
        key = _generator_key(m, args.generator)
        payload = {
            "m": m,
            "basis": "theorem",
            "generator": args.generator,
            "matrix": [[str(entry) for entry in row] for row in theta.theta_action_matrices(m)[key]],
        }
    _emit(payload, sink)
    return 0


def _cmd_theta(args, sink) -> int:
    m = args.m
    mats = theta.theta_action_matrices(m)
    payload = {
        "m": m,
        "basis": "IC",
        "matrices": {
            key: [[str(entry) for entry in row] for row in mat]
            for key, mat in mats.items()
        },
    }
    _emit(payload, sink)
    return 0


def _cmd_orbits(args, _sink) -> int:
    bound_n, bound_r = args.bounds
    labels = theta.enumerate_orbits(args.n, args.m, bound_n, bound_r)
    if args.count_only:
        print(len(labels))
        return 0
    payload = {
        "n": args.n,
        "m": args.m,
        "bounds": {"N": bound_n, "r": bound_r},
        "count": len(labels),
        "labels": [
            {
                "lambda": list(label.lam),
                "subset": list(label.subset),
                "bijection": list(label.bij),
                "matrix": {
                    f"({row},{col})": f"t^{a}" if a != 1 else "t"
                    for (row, col), a in theta.orbit_representative(label, args.m).items()
                },
            }
            for label in labels
        ],
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glhecke", description=__doc__)
    parser.set_defaults(json=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=verify.SUITES)
    p.add_argument("--m", type=_m_range, required=True, help="rank or A..B range")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_count, default=1000, help="randomized case count")
    p.add_argument("--n", type=_count, default=1, help="orbits: max first-factor rank")
    p.add_argument("--bounds", type=_bounds, default="0,1", help=f"orbits: {BOUNDS_HELP}")
    p.add_argument("--json", help="write the canonical JSON report here")
    p.add_argument("--timings", action="store_true", help="keep elapsed_ms in JSON")
    p.add_argument("--progress", action="store_true", help="print each finished check on stderr")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("eval", help="evaluate '<hecke-literal> * <poly-literal>'")
    p.add_argument("--m", type=_m_single, required=True)
    p.add_argument("expression")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("springer", help="fixed points, bases, action matrices")
    p.add_argument("--m", type=_m_single, required=True)
    p.add_argument("--show", choices=("flags", "bases", "matrix"), required=True)
    p.add_argument("--generator", default="T_sm", help="for --show matrix")
    p.add_argument("--json", help="write compact JSON here")
    p.set_defaults(fn=_cmd_springer)

    p = sub.add_parser("theta", help="IC-basis generator matrices")
    p.add_argument("--m", type=_m_single, required=True)
    p.add_argument("--matrices", action="store_true", required=True)
    p.add_argument("--json", help="write compact JSON here")
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("orbits", help="orbit labels for the (GL_n, GL_m) pair")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--m", type=_m_single, required=True)
    p.add_argument("--bounds", type=_bounds, required=True, help=BOUNDS_HELP)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=_cmd_orbits)
    return parser


@contextmanager
def _json_sink(path: str):
    """A file beside ``path``, renamed onto it when the command returns and
    removed on an exception, so a stopped run leaves no partial file."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"--json target is a directory: {path!r}")
    tmp = f"{path}.{os.getpid()}.tmp"
    sink = open(tmp, "w")  # a bad path exits 2 here, before any work
    try:
        with sink:
            yield sink
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_term_cap()
        with _json_sink(args.json) if args.json else nullcontext() as sink:
            return args.fn(args, sink)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TermBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
