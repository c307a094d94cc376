"""Layer tracing from outside the package.

`Tracer.install()` wraps the public functions of each layer module of
`ppbij` (`cli`, `checks`, `symfun`, `poly`, `enumeration`, `bijection`,
`core`, `kernels`) plus the value-type constructors, statistics and
polynomial arithmetic methods.  It patches the module attributes and
every name another `ppbij` module imported (for example
`ppbij.checks.gen_pp_box`), and the values of `checks.CHECKS`.
`uninstall()` puts the originals back.

A span covers one call; for a generator, each resumption is its own
span, so the time a consumer spends between resumptions is not charged
to the generator.  A span's self time is its duration minus the
durations of its direct child spans.  Spans are aggregated in memory by
name (calls, items, total and self time) and read out when the run ends.

Calls inside `ppbij.kernels._pure` (one kernel calling another) are not
traced: the kernels layer is measured at its public module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "checks", "symfun", "poly", "enumeration", "bijection",
          "core", "kernels")

CORE_STATS = ("shape", "volume", "trace", "descent_set", "descent_count",
              "descent_level_sets", "up_hook_volume", "corner_volume",
              "column_counts", "row_descent_counts")
POLY_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
              "__mul__", "__rmul__", "__pow__", "mul_truncated", "truncate")
# Kernels that return a list of enumerated objects; the others return one.
LIST_KERNELS = ("pp_box", "pp_shape", "matrices_weighted", "row_candidates")

STRICT_TABLEAUX = "enumeration.gen_strict_tableaux"


def _multipoly_terms(args, kwargs, result) -> int:
    terms = args[2] if len(args) > 2 else kwargs.get("terms", ())
    try:
        return len(terms)
    except TypeError:
        return 0


def _one(args, kwargs, result) -> int:
    return 1


def _length(args, kwargs, result) -> int:
    return len(result)


class Tracer:
    """Span aggregation for one traced pass."""

    def __init__(self):
        self.records: dict[str, list] = {}  # name -> [calls, items, total, self]
        self.stack: list[list[float]] = []
        self._st_active = [0]   # open gen_strict_tableaux resumptions
        self._examined = [0]    # kernel items returned while one is open
        self._undo: list[tuple[object, str, object]] = []

    def _record(self, name: str) -> list:
        return self.records.setdefault(name, [0, 0, 0.0, 0.0])

    # -- wrappers --------------------------------------------------------

    def _wrap_call(self, fn, name, items=None):
        rec = self._record(name)
        stack = self.stack
        clock = time.perf_counter
        st_active, examined = self._st_active, self._examined
        is_kernel = name.startswith("kernels.")

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                rec[0] += 1
                rec[2] += dur
                rec[3] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if items is not None:
                n = items(args, kwargs, result)
                rec[1] += n
                if is_kernel and st_active[0]:
                    examined[0] += n
            return result

        return functools.update_wrapper(wrapper, fn)

    def _wrap_gen(self, fn, name):
        rec = self._record(name)
        stack = self.stack
        clock = time.perf_counter
        st_active = self._st_active
        is_st = name == STRICT_TABLEAUX

        def wrapper(*args, **kwargs):
            rec[0] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                if is_st:
                    st_active[0] += 1
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = clock() - start
                    stack.pop()
                    if is_st:
                        st_active[0] -= 1
                    rec[2] += dur
                    rec[3] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
                rec[1] += 1
                yield item

        return functools.update_wrapper(wrapper, fn)

    def _wrap(self, fn, name, items=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_gen(fn, name)
        return self._wrap_call(fn, name, items)

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _module_functions(self):
        """(original, span name, items counter) for each public function."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"ppbij.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) \
                        or inspect.ismodule(obj) or not callable(obj):
                    continue
                if layer == "kernels":
                    items = _length if attr in LIST_KERNELS else _one
                elif getattr(obj, "__module__", None) == mod.__name__:
                    items = None
                else:
                    continue  # imported from elsewhere; patched as a name
                out.append((obj, f"{layer}.{attr}", items))
        return out

    def install(self) -> "Tracer":
        import ppbij.checks
        import ppbij.cli  # noqa: F401  (imports every layer)
        from ppbij.core import NMatrix, PlanePartition, Word
        from ppbij.poly import MultiPoly

        wrappers = {}
        for fn, name, items in self._module_functions():
            wrappers[id(fn)] = (fn, self._wrap(fn, name, items))
        for modname, mod in list(sys.modules.items()):
            if not (modname == "ppbij" or modname.startswith("ppbij.")) \
                    or modname.startswith("ppbij.kernels._"):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        checks = ppbij.checks.CHECKS
        for key, fn in list(checks.items()):
            hit = wrappers.get(id(fn))
            if hit is not None and hit[0] is fn:
                self._undo.append((checks, key, fn))
                checks[key] = hit[1]

        methods = [(PlanePartition, "__init__", "core.PlanePartition.init", None),
                   (NMatrix, "__init__", "core.NMatrix.init", None),
                   (Word, "__init__", "core.Word.init", None),
                   (MultiPoly, "__init__", "poly.MultiPoly.init",
                    _multipoly_terms)]
        methods += [(PlanePartition, s, f"core.PlanePartition.{s}", None)
                    for s in CORE_STATS]
        methods += [(MultiPoly, a, f"poly.MultiPoly.{a}", None)
                    for a in POLY_ARITH]
        for cls, attr, name, items in methods:
            self._set(cls, attr, self._wrap(vars(cls)[attr], name, items))
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- read-out --------------------------------------------------------

    def _sum(self, names, field: int) -> float:
        return sum(self.records[n][field] for n in names if n in self.records)

    def _layer(self, layer: str) -> list[str]:
        return [n for n in self.records if n.split(".", 1)[0] == layer]

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics this tracer measures (all but the
        checks' busy time, pool efficiency, trace overhead and kernel
        microbenchmarks, which come from elsewhere).
        """
        r = self.records

        def get(name, field):
            return r[name][field] if name in r else 0

        stats = [f"core.PlanePartition.{s}" for s in CORE_STATS]
        arith = [f"poly.MultiPoly.{a}" for a in POLY_ARITH]
        examined = self._examined[0]
        out = {
            "core.PlanePartition.init.count": get("core.PlanePartition.init", 0),
            "core.PlanePartition.init.self_s": get("core.PlanePartition.init", 3),
            "core.NMatrix.init.count": get("core.NMatrix.init", 0),
            "core.NMatrix.init.self_s": get("core.NMatrix.init", 3),
            "core.Word.init.count": get("core.Word.init", 0),
            "core.stats.calls": self._sum(stats, 0),
            "core.stats.self_s": self._sum(stats, 3),
            "enumeration.calls": self._sum(self._layer("enumeration"), 0),
            "enumeration.self_s": self._sum(self._layer("enumeration"), 3),
            "enumeration.strict_tableaux.examined": examined,
            "enumeration.strict_tableaux.yield_ratio":
                get(STRICT_TABLEAUX, 1) / examined if examined else 0.0,
            "poly.MultiPoly.init.count": get("poly.MultiPoly.init", 0),
            "poly.MultiPoly.init.terms": get("poly.MultiPoly.init", 1),
            "poly.MultiPoly.init.self_s": get("poly.MultiPoly.init", 3),
            "poly.arith.self_s": self._sum(arith, 3),
            "poly.product_series.self_s": get("poly.product_series", 3),
            "poly.determinant.self_s": get("poly.determinant", 3),
        }
        for layer in ("symfun", "kernels", "bijection"):
            names = self._layer(layer)
            out[f"{layer}.calls"] = self._sum(names, 0)
            out[f"{layer}.self_s"] = self._sum(names, 3)
        out["kernels.items"] = self._sum(self._layer("kernels"), 1)
        out["checks.self_s"] = self._sum(self._layer("checks"), 3)
        out["checks.run_all.self_s"] = get("checks.run_all", 3)
        out["cli.self_s"] = self._sum(self._layer("cli"), 3)
        return out

    def table(self) -> list[str]:
        """One line per span name, largest self time first."""
        lines = [f"{'span':<44} {'calls':>10} {'items':>10} "
                 f"{'total_s':>9} {'self_s':>9}"]
        for name, (calls, items, total, own) in sorted(
                self.records.items(), key=lambda kv: -kv[1][3]):
            if calls:
                lines.append(f"{name:<44} {calls:>10} {items:>10} "
                             f"{total:>9.3f} {own:>9.3f}")
        return lines
