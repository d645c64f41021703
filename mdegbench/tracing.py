"""Per-layer spans for the benchmark, recorded from outside the program.

`Tracer.install` wraps the public functions of each layer module of
``mdeg`` (plus the methods in `METHODS`) at every place a module binds
them: ``genin``, ``hilbert``, ``standardize``, ``cli`` and the package
itself bind names with ``from .x import y``, so patching only the
defining module would leave those callers untraced.  Each call records a
span (name, start, end, parent span, job id) in flat arrays kept in
memory; `layer_metrics` turns them into calls, busy time (outermost
spans of a name only, so recursion is not counted twice) and self time
(duration minus the time its child spans cover).
"""

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = (
    "inputlang",
    "cli",
    "ring",
    "groebner",
    "monomial",
    "hilbert",
    "intpoly",
    "genin",
    "standardize",
    "determinantal",
    "polymatroid",
)

# Methods traced beside the module-level functions: (module, class, method).
METHODS = (
    ("groebner", "Ideal", "groebner_basis"),
    ("groebner", "Ideal", "initial_ideal"),
    ("monomial", "MonomialIdeal", "intersect"),
    ("monomial", "MonomialIdeal", "standard_monomials"),
    ("intpoly", "IntegerPolynomial", "substitute_one_minus_t"),
)

# Called once per term product during substitution; a span per call would
# cost more than the work it measures, so these are only counted.
COUNTED = (("ring", "Polynomial", "__mul__"),)

_MARK = "__mdegbench_original__"


def _memo_hit(args, kwargs):
    memo = kwargs.get("_memo", args[1] if len(args) > 1 else None)
    return memo is not None and args[0].gens in memo


# Counts read off a call's arguments (before) or result (after).
BEFORE = {"hilbert.k_polynomial_monomial": ("memo_hits", _memo_hit)}
AFTER = {
    "groebner.buchberger": ("basis_out", len),
    "groebner.substituted_ideal": (
        "terms_out",
        lambda I: sum(len(g.terms) for g in I.gens),
    ),
    "monomial.irreducible_decomposition": ("components_out", len),
}


def layer_modules():
    """Import and return the traced modules, keyed by layer name."""
    return {name: importlib.import_module(f"mdeg.{name}") for name in LAYERS}


def _binding_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "mdeg" or name.startswith("mdeg."))
    ]


def traced_targets():
    """(owner, attribute, span name, counted only) for every traced callable."""
    out = []
    for layer, mod in layer_modules().items():
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out.append((mod, attr, f"{layer}.{attr}", False))
    for counted, table in ((False, METHODS), (True, COUNTED)):
        for layer, cls_name, meth in table:
            cls = getattr(layer_modules()[layer], cls_name)
            out.append((cls, meth, f"{layer}.{cls_name}.{meth}", counted))
    return out


def installed_wrappers():
    """Every module or class attribute of mdeg that holds a benchmark wrapper."""
    found = []
    for mod in _binding_modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(obj) and obj.__module__.startswith("mdeg"):
                for meth, fn in vars(obj).items():
                    if hasattr(fn, _MARK):
                        found.append(f"{obj.__module__}.{attr}.{meth}")
    return sorted(set(found))


class Tracer:
    """Span recorder; `install` and `uninstall` patch mdeg in place."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.job = -1
        self._current = -1
        self._wrappers = {}
        self._patched = []

    def _span_wrapper(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, job_of = self.name_of, self.parent, self.job_of
        outer, start, end = self.outer, self.start, self.end
        counts = self.counts
        before = BEFORE.get(name)
        after = AFTER.get(name)
        if before:
            counts.setdefault(f"{name}.{before[0]}", 0)
        if after:
            counts.setdefault(f"{name}.{after[0]}", 0)
        clock = time.perf_counter
        depth = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal depth
            idx = len(start)
            name_of.append(nid)
            parent.append(self._current)
            job_of.append(self.job)
            outer.append(depth == 0)
            end.append(0.0)
            if before:
                counts[f"{name}.{before[0]}"] += before[1](args, kwargs)
            prev, self._current = self._current, idx
            depth += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth -= 1
                self._current = prev
            if after:
                counts[f"{name}.{after[0]}"] += after[1](result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        key = f"{name}.calls"
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced callable at every binding site."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counted in traced_targets():
            fn = vars(owner)[attr]
            if fn not in self._wrappers:
                make = self._count_wrapper if counted else self._span_wrapper
                wrapper = make(name, fn)
                setattr(wrapper, _MARK, fn)
                self._wrappers[fn] = wrapper
            if inspect.isclass(owner):
                self._patch(owner, attr, fn)
        for mod in _binding_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patch(mod, attr, obj)

    def _patch(self, owner, attr, fn):
        setattr(owner, attr, self._wrappers[fn])
        self._patched.append((owner, attr, fn))

    def uninstall(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def stale_bindings(self):
        """Attributes of mdeg modules that still hold a traced original."""
        stale = []
        for mod in _binding_modules():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in self._wrappers:
                    stale.append(f"{mod.__name__}.{attr}")
        for owner, attr, _, _ in traced_targets():
            if inspect.isclass(owner) and not hasattr(vars(owner)[attr], _MARK):
                stale.append(f"{owner.__module__}.{owner.__name__}.{attr}")
        return stale

    def layer_metrics(self, passes=1):
        """Per-pass calls, busy_s and self_s for each name, plus the counts."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        k = len(self.names)
        calls, busy, own = [0] * k, [0.0] * k, [0.0] * k
        for i in range(n):
            nid = self.name_of[i]
            d = self.end[i] - self.start[i]
            calls[nid] += 1
            own[nid] += d - covered[i]
            if self.outer[i]:
                busy[nid] += d
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid] / passes
            out[f"{name}.busy_s"] = busy[nid] / passes
            out[f"{name}.self_s"] = own[nid] / passes
        for key, v in self.counts.items():
            out[key] = v / passes
        return out

    def write_spans(self, path):
        """Write the spans as tab-separated id, parent, job, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tjob\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.job_of[i]}\t"
                    f"{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
