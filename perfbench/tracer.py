"""Spans around calls into herglotz's public functions, recorded from outside.

A traced function is replaced at every module-level name it is bound to in
the herglotz package (``bessel_j_mp`` lives in ``specfun`` and is imported into
``field`` and ``extract``; ``cli`` imports names from ``extract``, ``field`` and
``retrieve``), or on its class for a method. Each call records its wall time and
the part of it spent in traced callees; an observer may also record its
arguments (distinct Bessel arguments, bytes written). ``restore`` puts
every original back.
"""

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

from mpmath import mp


def _unmix_method(args, kwargs):
    """radial_unmix(profile, M, d, method="lstsq"): the method names the span."""
    return kwargs.get("method", args[3] if len(args) > 3 else "lstsq")


def _bessel_args(tracer, args, kwargs):
    nu, r = args[0], args[1]  # r is an mpf or a float; equal values hash alike
    tracer.keys["specfun.bessel_j_mp"].add((float(nu), r, mp.prec))


def _bytes_written(tracer, args, kwargs):
    tracer.bytes_written += len(args[1].encode("utf-8"))  # atomic_write(path, text)


class Target(NamedTuple):
    label: str
    module: str  # the herglotz module that defines it
    path: str  # attribute path in that module ("BasisSpec.values" for a method)
    observe: Callable | None = None  # observer of the arguments
    suffix: Callable | None = None  # names a sub-span from the arguments
    # per-field figures the benchmark reports, as "<kind>" or
    # "<sub-span>.<kind>", kind "calls" or "self_s"
    figures: tuple = ("self_s",)


TARGETS = [
    Target("specfun.bessel_j", "specfun", "bessel_j"),
    Target("specfun.bessel_j_mp", "specfun", "bessel_j_mp", _bessel_args,
           figures=("calls", "self_s")),
    Target("harmonics.default_poles", "harmonics", "default_poles", figures=("calls", "self_s")),
    Target("harmonics.sphere_grid", "harmonics", "sphere_grid"),
    Target("harmonics.BasisSpec.values", "harmonics", "BasisSpec.values"),
    Target("harmonics.BasisSpec.gram", "harmonics", "BasisSpec.gram"),
    # p_alpha is defined in harmonics, but its cost is the exact rational
    # polynomial algebra of the poly layer
    Target("poly.p_alpha", "harmonics", "p_alpha"),
    Target("field.sample_magnitude", "field", "sample_magnitude"),
    Target("field.eval_field_grid", "field", "eval_field_grid"),
    Target("field.magnitude_coeffs", "field", "magnitude_coeffs", figures=("calls", "self_s")),
    Target("field.equal_magnitude", "field", "equal_magnitude"),
    Target("field.trivially_equivalent", "field", "trivially_equivalent"),
    Target("extract.angular_decompose", "extract", "angular_decompose",
           figures=("calls", "self_s")),
    Target("extract.radial_unmix", "extract", "radial_unmix", suffix=_unmix_method,
           figures=("calls", "lstsq.self_s", "taylor.self_s")),
    Target("extract.estimate_max_degree", "extract", "estimate_max_degree"),
    Target("extract.extract_magnitude_data", "extract", "extract_magnitude_data"),
    Target("retrieve.retrieve_2d", "retrieve", "retrieve_2d"),
    Target("retrieve.retrieve_3d_mean", "retrieve", "retrieve_3d_mean"),
    Target("retrieve.retrieve_3d_sparse", "retrieve", "retrieve_3d_sparse"),
    Target("retrieve.retrieve_real_data", "retrieve", "retrieve_real_data"),
    Target("retrieve.solve_real_from_data", "retrieve", "solve_real_from_data"),
    Target("retrieve.canonicalize", "retrieve", "canonicalize"),
    Target("fileio.parse_grid", "fileio", "parse_grid"),
    Target("fileio.grid_to_text", "fileio", "grid_to_text"),
    Target("fileio.parse_data", "fileio", "parse_data"),
    Target("fileio.data_to_text", "fileio", "data_to_text"),
    # reported as fileio.bytes_written only
    Target("fileio.atomic_write", "fileio", "atomic_write", _bytes_written, figures=()),
]

# Entry points of the retrieval branches: each call is one branch attempt,
# accepted when it returns.
BRANCHES = (
    "retrieve.retrieve_2d",
    "retrieve.retrieve_3d_mean",
    "retrieve.retrieve_3d_sparse",
    "retrieve.retrieve_real_data",
)


class Tracer:
    """Per-label call counts, self time, returns, and distinct argument keys
    (reset per field with ``new_field``)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.returned = defaultdict(int)
        self.self_s = defaultdict(float)
        self.distinct = defaultdict(int)  # summed over fields
        self.bytes_written = 0
        self.keys = defaultdict(set)  # distinct argument keys of the current field
        self._stack = []
        self._saved = []

    def new_field(self):
        for label, keys in self.keys.items():
            self.distinct[label] += len(keys)
        self.keys.clear()

    def _wrap(self, fn, label, observe, suffix_fn):
        tracer = self

        def traced(*args, **kwargs):
            name = label if suffix_fn is None else f"{label}.{suffix_fn(args, kwargs)}"
            if observe is not None:
                observe(tracer, args, kwargs)
            tracer._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                tracer.returned[label] += 1
                return out
            finally:
                elapsed = time.perf_counter() - t0
                inner = tracer._stack.pop()
                tracer.calls[label] += 1
                if suffix_fn is not None:
                    tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - inner
                if tracer._stack:
                    tracer._stack[-1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def install(self):
        owners = {t.module: importlib.import_module(f"herglotz.{t.module}") for t in TARGETS}
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "herglotz" or name.startswith("herglotz."))
        ]
        for label, module, path, observe, suffix_fn, _ in TARGETS:
            owner = owners[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, label, observe, suffix_fn))
                continue
            original = getattr(owner, path)
            traced = self._wrap(original, label, observe, suffix_fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, traced)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
