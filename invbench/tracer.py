"""Per-layer tracing from outside the program.

Every public function of each invforge module is wrapped, and every
binding of it is replaced: the module attribute and each name another
module imported with `from .x import f`.  A wrapper records calls, total
time and the time spent in wrapped callees (so self time is the
difference), plus a few work counts where the layer's arguments or result
show them.  Spans stay in memory; nothing is written until the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("ring", "gf2", "boolfun", "cipher", "fe", "lab", "lincycle", "cli")


def _mul(counts, args, result):
    p, q = args[0], args[1]
    if p.terms and q.terms:
        counts["ring.mul.pairs"] += len(p.terms) * len(q.terms)
        counts["ring.mul.terms_out"] += len(result.terms)


def _substitute(counts, args, result):
    counts["ring.substitute.terms_out"] += len(result.terms)


def _affine_split(counts, args, result):
    counts["boolfun.affine_split.factors_out"] += len(result[0])


def _solve_affine_ones(counts, args, result):
    counts["gf2.solve_affine_ones.points_in"] += len(args[0])


def _rref(counts, args, result):
    counts["gf2.rref.rows_in"] += len(args[0])


def _build_fe(counts, args, result):
    counts["fe.build_fe.fe_terms"] += len(result.fe)


def _periods(counts, args, result):
    counts["lincycle.empty_witness_entries"] += sum(
        1 for e in result if not e.minimal_functionals)


# Work counts taken from a layer's arguments and result.
COUNTERS = {
    "ring.mul": _mul,
    "ring.substitute": _substitute,
    "boolfun.affine_split": _affine_split,
    "gf2.solve_affine_ones": _solve_affine_ones,
    "gf2.rref": _rref,
    "fe.build_fe": _build_fe,
    "lincycle.linear_invariant_periods": _periods,
}
COUNT_NAMES = ("ring.mul.pairs", "ring.mul.terms_out", "ring.substitute.terms_out",
               "boolfun.affine_split.factors_out", "gf2.solve_affine_ones.points_in",
               "gf2.rref.rows_in", "fe.build_fe.fe_terms", "lab.is_hit.exact_fe",
               "lincycle.empty_witness_entries")


class Tracer:
    """Wraps the layers of an imported invforge package.

    `stats[name]` is [calls, total seconds, seconds in wrapped callees].
    The wrappers record only between install() and uninstall(), so the
    untraced passes and the checks run the original functions.
    """

    def __init__(self, package: str = "invforge"):
        self.package = package
        self.stats = {}
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = []
        self._wrappers = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules["%s.%s" % (package, layer)]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    self._wrappers[id(obj)] = (obj, self._wrap("%s.%s" % (layer, attr), obj))

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        counter = COUNTERS.get(name)
        counts = self.counts
        under_is_hit = name == "fe.build_fe"

        def wrapper(*args, **kwargs):
            if under_is_hit and any(f[0] == "lab.is_hit" for f in stack):
                counts["lab.is_hit.exact_fe"] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += frame[1]
            if counter is not None:
                counter(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(self.package + "."))]

    def _rebind(self, table) -> None:
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                new = table.get(id(obj))
                if new is not None:
                    setattr(mod, attr, new)

    def install(self) -> None:
        self._rebind({k: w for k, (fn, w) in self._wrappers.items()})
        missed = self.unpatched()
        if missed:
            raise RuntimeError("bindings left unwrapped: %s" % ", ".join(missed))

    def uninstall(self) -> None:
        self._rebind({id(w): fn for fn, w in self._wrappers.values()})

    def unpatched(self) -> list:
        """Module-level names that still point at an unwrapped layer function."""
        return ["%s.%s" % (mod.__name__, attr) for mod in self._modules()
                for attr, obj in vars(mod).items()
                if id(obj) in self._wrappers and self._wrappers[id(obj)][0] is obj]

    def module_self(self) -> dict:
        """Self seconds per layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_calls, total, child) in self.stats.items():
            out[name.split(".", 1)[0]] += total - child
        return out
