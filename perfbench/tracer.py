"""Spans and counters recorded from outside rankin, by wrapping its public
functions and methods for the life of one traced pass.

A span is [name, start, end, parent index]; spans live in a list in memory
and the caller writes them out when the pass ends.  Stage functions (series
products, Siegel units, coset enumeration, linear solves, ...) get timed
spans.  Ring element operations (CycloElt, MPoly, QuotElt, RatFunc) run
hundreds of thousands of times per pass, so they only bump a C-level
counter and are never timed per call.

Every binding of a wrapped object is replaced, including the ones that
``from ... import`` made in other rankin modules at import time, and
``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import Counter
from contextlib import contextmanager

_MODULES = ("catalog", "cosets", "cyclo", "eisenstein", "euler", "forms",
            "normrel", "operators", "otsuki", "poly", "qseries", "quotring",
            "siegel")

# (module, function, span name)
_FUNCTION_SPANS = [
    ("siegel", "siegel_scaled", "siegel.unit"),
    ("siegel", "siegel_scaled_c", "siegel.unit_c"),
    ("siegel", "dlog_matches_weight_two", "siegel.check"),
    ("siegel", "distribution_check", "siegel.check"),
    ("eisenstein", "eisenstein_qexp", "eisenstein.qexp"),
    ("cosets", "coset_reps", "cosets.coset_reps"),
    ("cosets", "same_right_coset", "cosets.same_right_coset"),
    ("cosets", "double_coset_multiply", "cosets.double_coset_multiply"),
    ("otsuki", "bareiss_solve", "otsuki.bareiss_solve"),
    ("otsuki", "otsuki_trace_check", "otsuki.trace_check"),
    ("euler", "functional_symmetry_check", "euler.functional_symmetry"),
    ("euler", "weil_check", "euler.weil_check"),
    ("euler", "rankin_euler_factor", "euler.rankin_euler_factor"),
    ("euler", "local_correction", "euler.local_correction"),
    ("forms", "p_stabilize", "forms.p_stabilize"),
    ("forms", "congruence_prime_scan", "forms.congruence_scan"),
    # load_bundled and ingest both parse through parse_eigenform
    ("forms", "parse_eigenform", "forms.ingest"),
]

# (module, class, method, span name)
_METHOD_SPANS = [
    ("qseries", "QSeries", "inverse", "qseries.inverse"),
    ("qseries", "QSeries", "__pow__", "qseries.pow"),
    ("qseries", "QSeries", "mul_one_minus", "qseries.mul_one_minus"),
]

# (module, class, method, counter name); aliases such as __rmul__ = __mul__
# share the function object and so the counter
_METHOD_COUNTS = [
    ("cyclo", "CycloElt", "__mul__", "cyclo.mul.count"),
    ("cyclo", "CycloElt", "__add__", "cyclo.add.count"),
    ("cyclo", "CycloElt", "inverse", "cyclo.inverse.count"),
    ("poly", "MPoly", "__mul__", "poly.mpoly_mul.count"),
    ("poly", "RatFunc", "__init__", "poly.ratfunc_new.count"),
    ("quotring", "QuotElt", "__mul__", "quotring.mul.count"),
    ("quotring", "QuotElt", "inverse", "quotring.inverse.count"),
]

_FUNCTION_COUNTS = [
    ("cosets", "lift_sl2", "cosets.lift_sl2.count"),
]

# every public function defined in these modules gets a span "<module>.<name>"
_WHOLE_MODULES = ("normrel", "operators")


class Tracer:
    """Spans and counters of one process; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.sums = {"qseries.mul.terms": 0, "cosets.enumerated": 0,
                     "cosets.kept": 0, "cosets.to_level.repeats": 0}
        self._stack = []
        self._counters = {}
        self._undo = []
        self._to_level_seen = set()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name, fn, on_call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, name, fn):
        tick = self._counters.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def counters(self):
        """Deterministic work counts of everything recorded so far: the
        count-only counters, "<span name>.count" per span name, and the sums."""
        # repr(count(7)) is "count(7)"; next() would advance the counter
        out = {name: int(repr(c)[6:-1]) for name, c in self._counters.items()}
        out.update(Counter(f"{s[0]}.count" for s in self.spans))
        out.update(self.sums)
        return out

    # -- hooks computing work from operand sizes ---------------------------

    def _on_series_mul(self, args):
        a, b = args
        if type(b) is type(a):  # series times series; a scalar factor adds no terms
            n = min(len(a.coeffs), len(b.coeffs))
            self.sums["qseries.mul.terms"] += n * (n + 1) // 2

    def _on_to_level(self, args):
        group, M = args
        key = (group.level, group.elements, M)
        if key in self._to_level_seen:
            self.sums["cosets.to_level.repeats"] += 1
        self._to_level_seen.add(key)

    # -- installing --------------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace every binding of ``original`` in the rankin modules."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rankin" and not mod_name.startswith("rankin."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _rebind_method(self, cls, method, make):
        original = vars(cls)[method]
        replacement = make(original)
        for attr, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, attr, replacement)
                self._undo.append((cls, attr, original))

    def install(self):
        mods = {m: importlib.import_module(f"rankin.{m}") for m in _MODULES}
        for mod, fn, name in _FUNCTION_SPANS:
            original = getattr(mods[mod], fn)
            self._rebind(original, self._timed(name, original))
        for mod, fn, name in _FUNCTION_COUNTS:
            original = getattr(mods[mod], fn)
            self._rebind(original, self._counted(name, original))
        for mod in _WHOLE_MODULES:
            module = mods[mod]
            for fn_name, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not fn_name.startswith("_")):
                    self._rebind(fn, self._timed(f"{mod}.{fn_name}", fn))
        for mod, cls, method, name in _METHOD_SPANS:
            self._rebind_method(getattr(mods[mod], cls), method,
                                lambda f, name=name: self._timed(name, f))
        for mod, cls, method, name in _METHOD_COUNTS:
            self._rebind_method(getattr(mods[mod], cls), method,
                                lambda f, name=name: self._counted(name, f))
        QSeries = mods["qseries"].QSeries
        self._rebind_method(QSeries, "__mul__", lambda f: self._timed(
            "qseries.mul", f, self._on_series_mul))
        CongSubgroup = mods["cosets"].CongSubgroup
        self._rebind_method(CongSubgroup, "to_level", lambda f: self._timed(
            "cosets.to_level", f, self._on_to_level))
        self._rebind_method(CongSubgroup, "from_condition", lambda cm: classmethod(
            self._timed("cosets.from_condition", self._enumerating(cm.__func__))))

    def _enumerating(self, from_condition):
        sl2_order = importlib.import_module("rankin.cosets").sl2_order

        def wrapper(cls, level, condition):
            group = from_condition(cls, level, condition)
            self.sums["cosets.enumerated"] += sl2_order(level)
            self.sums["cosets.kept"] += len(group)
            return group

        return wrapper

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def rankin_bindings():
    """Every function-like object bound in a rankin module or class, by
    location; used to show that an untraced pass replaces none of them."""
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod_name != "rankin" and not mod_name.startswith("rankin."):
            continue
        for attr, value in vars(mod).items():
            if callable(value):
                out[(mod_name, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("rankin"):
                for cattr, cvalue in vars(value).items():
                    out[(mod_name, attr, cattr)] = cvalue
    return out


# ---------------------------------------------------------------------------
# analysis of a span list
# ---------------------------------------------------------------------------

def busy(spans, match):
    """Seconds covered by spans whose name satisfies ``match``, counting a
    span only when no ancestor also matches (so recursion is not counted
    twice).  Spans are in start order, so a parent precedes its children."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        outer = parent >= 0 and inside[parent]
        hit = match(name)
        inside[i] = outer or hit
        if hit and not outer:
            total += end - start
    return total


def self_times(spans):
    """Per span, its duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_times(spans):
    """Busy seconds per span name and self seconds per layer (the part of a
    span name before its first dot)."""
    out = {}
    for name in {s[0] for s in spans}:
        out[f"{name}.busy_s"] = busy(spans, lambda n, name=name: n == name)
    own = self_times(spans)
    for layer in {s[0].split(".", 1)[0] for s in spans}:
        prefix = layer + "."
        out[f"{layer}.busy_s"] = busy(spans, lambda n: n.startswith(prefix))
        out[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, own) if s[0].startswith(prefix))
    return out
