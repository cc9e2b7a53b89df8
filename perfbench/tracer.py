"""Per-layer spans for one glhecke process, installed from outside the package.

``install`` replaces every public function of each layer module, every public
method of each public class, and the arithmetic special methods
(``__add__``, ``__mul__``, ...) with a wrapper that records, per entry point,
the number of calls, the total time of the outermost activations, and the
self time (the span minus the wrapped spans nested inside it).  Names are
``<layer>.<fn>``, with special methods stripped of their underscores, so
``LaurentPoly.__mul__`` is ``laurent.mul`` and ``HeckeElt.left_mul_gen`` is
``hecke.left_mul_gen``.

A wrapper only sees calls made through the name it replaced, so ``install``
also rebinds every module attribute that still points at an original
function (``from .linalg import det_laurent`` leaves a second reference in
``springer`` and ``theta``) and re-aliases ``__rmul__`` after ``__mul__``.
A few entry points also count the sizes of their inputs and outputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("laurent", "weyl", "hecke", "polyrep", "springer", "linalg", "theta", "verify", "cli")

ARITHMETIC = {
    "__add__": "add",
    "__sub__": "sub",
    "__mul__": "mul",
    "__neg__": "neg",
    "__pow__": "pow",
    "__truediv__": "truediv",
}


def _laurent_mul(sizes, args, out):
    a, b = args
    sizes["laurent.mul.terms_out"] += len(out.terms)
    if not isinstance(b, int) and len(a.terms) > 1 and len(b.terms) > 1:
        sizes["laurent.mul.multi_pairs"] += len(a.terms) * len(b.terms)
        sizes["laurent.mul.multi_terms_out"] += len(out.terms)


def _div_exact(sizes, args, out):
    if out is None:
        sizes["laurent.div_exact.fails"] += 1


def _det_laurent(sizes, args, out):
    sizes["linalg.det_laurent.dim_sum"] += len(args[0])


def _nullspace(sizes, args, out):
    rows = args[0]
    sizes["linalg.nullspace.rows"] += len(rows)
    sizes["linalg.nullspace.cols"] += len(rows[0]) if rows else 0


def _pushdown_poly(sizes, args, out):
    sizes["springer.pushdown_poly.terms_in"] += len(args[1].terms)


def _act_T(sizes, args, out):
    sizes["polyrep.act_T.terms_in"] += len(args[1].terms)
    sizes["polyrep.act_T.terms_out"] += len(out.terms)


def _hecke_mul(sizes, args, out):
    sizes["hecke.mul.terms_out"] += len(out.terms)


SIZERS = {
    "laurent.mul": _laurent_mul,
    "laurent.div_exact": _div_exact,
    "linalg.det_laurent": _det_laurent,
    "linalg.nullspace": _nullspace,
    "springer.pushdown_poly": _pushdown_poly,
    "polyrep.act_T": _act_T,
    "hecke.mul": _hecke_mul,
}


class Tracer:
    """Call counts, self and total times, and size counters of one process."""

    def __init__(self) -> None:
        # name -> [calls, self_s, total_s, active activations]
        self.stats: dict[str, list] = {}
        self.sizes: defaultdict[str, int] = defaultdict(int)
        # time covered by wrapped children, one slot per open span; the
        # bottom slot belongs to untraced code
        self._children = [0.0]

    def wrap(self, name: str, fn):
        if name in self.stats:
            raise RuntimeError(f"two entry points would both be traced as {name}")
        stat = self.stats[name] = [0, 0.0, 0.0, 0]
        children = self._children
        sizes = self.sizes
        sizer = SIZERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            stat[3] += 1
            children.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stat[1] += span - children.pop()
                children[-1] += span
                stat[3] -= 1
                if not stat[3]:
                    stat[2] += span
            if sizer is not None:
                sizer(sizes, args, out)
            return out

        return traced

    def metrics(self) -> dict[str, float]:
        """Flat ``<layer>.<fn>.{calls,self_s,total_s}``, ``<layer>.self_s``,
        and the size counters with their derived ratios."""
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, (calls, self_s, total_s, _) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
            out[f"{name.split('.')[0]}.self_s"] += self_s
        out.update(self.sizes)
        pairs = self.sizes["laurent.mul.multi_pairs"]
        out["laurent.mul.collapse_ratio"] = (
            self.sizes["laurent.mul.multi_terms_out"] / pairs if pairs else 0.0
        )
        calls = self.stats.get("laurent.div_exact", [0])[0]
        out["laurent.div_exact.fail_ratio"] = (
            self.sizes["laurent.div_exact.fails"] / calls if calls else 0.0
        )
        return out


def _wrap_class(tracer: Tracer, layer: str, cls, replaced: dict) -> None:
    members = vars(cls)
    for attr, member in list(members.items()):
        fname = ARITHMETIC.get(attr, None if attr.startswith("_") else attr)
        if fname is None:
            continue
        if isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(f"{layer}.{fname}", member.__func__)))
        elif inspect.isfunction(member):
            wrapped = tracer.wrap(f"{layer}.{fname}", member)
            replaced[id(member)] = (member, wrapped)
            setattr(cls, attr, wrapped)
    rmul = members.get("__rmul__")
    if rmul is not None and id(rmul) in replaced:
        cls.__rmul__ = replaced[id(rmul)][1]


def install(tracer: Tracer) -> None:
    """Wrap the layer modules of the imported ``glhecke`` package in place."""
    modules = {layer: importlib.import_module(f"glhecke.{layer}") for layer in LAYERS}
    replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped = tracer.wrap(f"{layer}.{attr}", obj)
                replaced[id(obj)] = (obj, wrapped)
                setattr(mod, attr, wrapped)
            elif inspect.isclass(obj):
                _wrap_class(tracer, layer, obj, replaced)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            entry = replaced.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
