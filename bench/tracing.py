"""Per-layer spans and counters, recorded from outside the library.

`Tracer.installed()` rebinds the traced functions and methods in every
loaded diffalg module that holds them and restores the originals on exit.
Spans nest; a span's self time is its duration minus its children's and
minus the time the kernel sampler spent inside it.  The counters' own work
after a span is charged to no layer: it counts as a child of the caller.
Self time is gathered per problem and normalized with that problem's kernel
factor, like the end-to-end times.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

from kernel import NOMINAL_KERNEL_S

# (module, attribute path, span name); install() raises if one is missing,
# except "_verify" and "_verify_complete", which are wrapped only while the
# library still defines them.
TARGETS = (
    ("field", "mpoly_gcd", "field.mpoly_gcd"),
    ("field", "MPoly.__mul__", "field.MPoly.__mul__"),
    ("field", "RatFun.__mul__", "field.RatFun.__mul__"),
    ("field", "RatFun.__add__", "field.RatFun.__add__"),
    ("field", "RatFun.derive", "field.RatFun.derive"),
    ("ore", "ore_mul", "ore.ore_mul"),
    ("ore", "ore_divmod", "ore.ore_divmod"),
    ("normalform", "diagonalize", "normalform.diagonalize"),
    ("normalform", "_verify", "normalform._verify"),
    ("normalform", "OreMatrix.__mul__", "normalform.OreMatrix.__mul__"),
    ("diffmodule", "characteristic_set", "diffmodule.characteristic_set"),
    ("diffmodule", "reduce", "diffmodule.reduce"),
    ("diffmodule", "autoreduce", "diffmodule.autoreduce"),
    ("diffmodule", "_verify_complete", "diffmodule._verify_complete"),
    ("numpoly", "count_cofilter", "numpoly.count_cofilter"),
    ("dimension", "dimension_report", "dimension.dimension_report"),
    ("dimension", "leader_antichain", "dimension.leader_antichain"),
    ("variety", "linearize_at_point", "variety.linearize_at_point"),
    ("variety", "eval_diffpoly", "variety.eval_diffpoly"),
    ("parsing", "parse_input", "parsing.parse_input"),
    ("parsing", "orepoly_str", "parsing.format"),
    ("parsing", "vector_str", "parsing.format"),
    ("parsing", "modelement_str", "parsing.format"),
    ("cli", "main", "cli.main"),
)

OPTIONAL = {"_verify", "_verify_complete"}


def _span_metrics(span):
    return [(f"{span}.calls", "count", lambda tr: tr.calls.get(span, 0)),
            (f"{span}.self_s", "s", lambda tr: tr.self_s.get(span, 0.0))]


# Per-layer metrics of a traced run: (name, unit, value of a finished
# Tracer).
LAYER_METRICS = (
    [metric for span in sorted({t[2] for t in TARGETS})
     for metric in _span_metrics(span)]
    + [("field.mpoly_gcd.trivial_ratio", "ratio",
        lambda tr: tr.ratio("gcd_trivial", "field.mpoly_gcd")),
       ("field.RatFun.derive.repeat_ratio", "ratio",
        lambda tr: tr.ratio("derive_repeat", "field.RatFun.derive")),
       ("field.coeff_max_bits", "bits", lambda tr: tr.counts["coeff_bits"]),
       ("normalform.transform_max_bits", "bits",
        lambda tr: tr.counts["transform_bits"]),
       ("diffmodule.reduce.zero_ratio", "ratio",
        lambda tr: tr.ratio("reduce_zero", "diffmodule.reduce")),
       ("numpoly.count_cofilter.subsets", "count",
        lambda tr: tr.counts["subsets"]),
       ("trace.overhead", "ratio", lambda tr: tr.overhead)])


def _fraction_bits(q):
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def mpoly_bits(p):
    return max((_fraction_bits(c) for c in p.terms.values()), default=0)


def orepoly_bits(op):
    return max((max(mpoly_bits(c.num), mpoly_bits(c.den))
                for c in op.terms.values()), default=0)


class Tracer:
    """Spans and counters for one traced pass, fed by a CallTimer."""

    def __init__(self, timer):
        self.timer = timer
        self.calls = {}
        self.self_s = {}
        self.counts = {"gcd_trivial": 0, "derive_repeat": 0,
                       "reduce_zero": 0, "subsets": 0, "coeff_bits": 0,
                       "transform_bits": 0}
        self._raw = {}          # span -> raw self seconds, current problem
        self._stack = []        # [start, sampler_s at start, child seconds]
        self._derived = set()
        self._restore = []
        self.overhead = None

    # -- spans ----------------------------------------------------------

    def _wrap(self, fn, span):
        observe = _OBSERVERS.get(span)

        def traced(*args, **kwargs):
            self.calls[span] = self.calls.get(span, 0) + 1
            frame = [perf_counter(), self.timer.sampler_s, 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                dur = (perf_counter() - frame[0]
                       - (self.timer.sampler_s - frame[1]))
                self._raw[span] = self._raw.get(span, 0.0) + dur - frame[2]
                if self._stack:
                    self._stack[-1][2] += dur
            if observe is not None:
                start, sampler = perf_counter(), self.timer.sampler_s
                observe(self, args, result)
                if self._stack:
                    self._stack[-1][2] += (perf_counter() - start
                                           - (self.timer.sampler_s - sampler))
            return result

        traced.__wrapped__ = fn
        return traced

    def end_problem(self, ref_s):
        """Fold the problem's raw self times in, normalized by its kernel."""
        scale = NOMINAL_KERNEL_S / ref_s
        for span, raw in self._raw.items():
            self.self_s[span] = self.self_s.get(span, 0.0) + raw * scale
        self._raw.clear()
        self._derived.clear()
        self._stack.clear()

    # -- install / restore ------------------------------------------------

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.restore()

    def install(self):
        loaded = {name: mod for name, mod in list(sys.modules.items())
                  if name == "diffalg" or name.startswith("diffalg.")}
        for modname, path, span in TARGETS:
            home = loaded.get(f"diffalg.{modname}")
            if "." in path:
                clsname, meth = path.split(".")
                cls = getattr(home, clsname, None)
                if cls is None or meth not in cls.__dict__:
                    raise LookupError(f"no diffalg.{modname}.{path} to trace")
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span))
                continue
            original = getattr(home, path, None)
            if original is None:
                if path in OPTIONAL:
                    continue
                raise LookupError(f"no diffalg.{modname}.{path} to trace")
            wrapper = self._wrap(original, span)
            for mod in loaded.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def ratio(self, counter, span):
        """Share of the span's calls that the counter counted."""
        calls = self.calls.get(span, 0)
        return self.counts[counter] / calls if calls else 0.0

    def summary(self, traced_corpus_s, untraced_corpus_s):
        self.overhead = traced_corpus_s / untraced_corpus_s
        return {name: value(self) for name, _, value in LAYER_METRICS}


# -- counters observed at span boundaries ---------------------------------

def _gcd(tracer, args, result):
    if result.is_const():
        tracer.counts["gcd_trivial"] += 1


def _derive(tracer, args, result):
    key = (args[0], args[1])
    if key in tracer._derived:
        tracer.counts["derive_repeat"] += 1
    else:
        tracer._derived.add(key)


def _reduce(tracer, args, result):
    nf = result[0] if isinstance(result, tuple) else result
    if nf.is_zero():
        tracer.counts["reduce_zero"] += 1


def _count(tracer, args, result):
    tracer.counts["subsets"] += sum(2 ** len(E) for E in args[0].components)


def _mul(tracer, args, result):
    if result is NotImplemented:
        return
    bits = mpoly_bits(result)
    if bits > tracer.counts["coeff_bits"]:
        tracer.counts["coeff_bits"] = bits


def _diagonalize(tracer, args, result):
    bits = max(orepoly_bits(e) for mat in (result.U, result.V)
               for row in mat.entries for e in row)
    if bits > tracer.counts["transform_bits"]:
        tracer.counts["transform_bits"] = bits


_OBSERVERS = {
    "field.mpoly_gcd": _gcd,
    "field.RatFun.derive": _derive,
    "diffmodule.reduce": _reduce,
    "numpoly.count_cofilter": _count,
    "field.MPoly.__mul__": _mul,
    "normalform.diagonalize": _diagonalize,
}
