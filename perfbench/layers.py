"""Per-layer numbers for the traced run, measured from outside the program.

The program's source is not touched.  A pass of the op list runs under the
standard-library profiler; a layer's self time is the profiler's self time
summed over the functions of its module file, with time spent in C
builtins charged to the Python function that called them.  Methods that
dataclasses generate have no module file of their own and get the
``generated`` bucket.  Call counts and inclusive times are the profiler's
figures for the layers' public functions.  A few figures need the
arguments or the returned objects (bytes parsed, matrix sizes, resolution
ranks, Smith transform bit lengths, syzygies kept), and for those the
tracer wraps the public function in every gradedtrace namespace that
binds it.
"""

from __future__ import annotations

import cProfile
import functools
import sys

LAYERS = ("rings", "freemod", "solvers", "modules", "trace", "monoidal", "textio", "cli", "lefschetz", "oracles")

# Metric name -> (module, qualified name, "calls" | "seconds") read off the profiler.
PROFILED = {
    "rings.elements_built": ("rings", "RingElement.__init__", "calls"),
    "rings.mul_calls": ("rings", "RingElement.__mul__", "calls"),
    "rings.add_calls": ("rings", "RingElement.__add__", "calls"),
    "rings.spec_eq_calls": ("rings", "RingSpec.__eq__", "calls"),
    "freemod.matrices_built": ("freemod", "GradedMatrixHom.__init__", "calls"),
    "freemod.compose_calls": ("freemod", "compose", "calls"),
    "freemod.compose_s": ("freemod", "compose", "seconds"),
    "solvers.spans_built": ("solvers", "ColumnSpan.__init__", "calls"),
    "solvers.span_build_s": ("solvers", "ColumnSpan.__init__", "seconds"),
    "solvers.normal_form_calls": ("solvers", "ColumnSpan.normal_form", "calls"),
    "solvers.normal_form_s": ("solvers", "ColumnSpan.normal_form", "seconds"),
    "solvers.snf_calls": ("solvers", "smith_normal_form", "calls"),
    "solvers.snf_s": ("solvers", "smith_normal_form", "seconds"),
    "solvers.gb_pairs": ("solvers", "_ModuleGB._build_pair", "calls"),
    "solvers.prune_s": ("solvers", "prune_columns", "seconds"),
    "modules.resolve_s": ("modules", "resolve", "seconds"),
    "modules.verify_s": ("modules", "verify_resolution", "seconds"),
    "modules.lift_s": ("modules", "lift_endomorphism", "seconds"),
    "trace.hs_trace_s": ("trace", "hs_trace", "seconds"),
    "monoidal.tensor_s": ("monoidal", "tensor_homs", "seconds"),
    "monoidal.ctrace_s": ("monoidal", "categorical_trace", "seconds"),
    "monoidal.zigzag_s": ("monoidal", "zigzag_defects", "seconds"),
    "textio.parse_s": ("textio", "parse_source", "seconds"),
    "cli.main_s": ("cli", "main", "seconds"),
}

# Figures taken from arguments and returned objects.
WRAPPED = (
    "freemod.entries_validated",
    "solvers.snf_bits_max",
    "solvers.syzygies_raw",
    "solvers.syzygies_kept",
    "solvers.prune_spans_built",
    "modules.rank_sum",
    "modules.length_sum",
    "textio.bytes_parsed",
)

SELF_TIMES = tuple(f"{layer}.self_s" for layer in LAYERS) + ("generated.self_s",)

DERIVED = ("solvers.syzygy_keep_ratio",)

METRICS = SELF_TIMES + tuple(PROFILED) + WRAPPED + DERIVED

UNITS = {name: "s" if name.endswith("_s") else "ratio" if name in DERIVED else "bits" if name.endswith("bits_max") else "count" for name in METRICS}

# Every figure that is not a time must repeat exactly between passes.
EXACT = tuple(name for name in METRICS if UNITS[name] != "s")


def _resolve_attr(module, qualname: str):
    obj = module
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Installs the wrappers once; each ``measure`` call profiles one pass."""

    def __init__(self, gt):
        mods = {layer: sys.modules[f"gradedtrace.{layer}"] for layer in LAYERS}
        self._namespaces = [m for name, m in sys.modules.items() if name == "gradedtrace" or name.startswith("gradedtrace.")]
        self._files = {m.__file__: layer for layer, m in mods.items()}
        self._codes = {
            name: _resolve_attr(mods[mod], qual).__code__ for name, (mod, qual, _) in PROFILED.items()
        }
        self._generated = set()
        for m in mods.values():
            for cls in vars(m).values():
                if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__") and cls.__module__ == m.__name__:
                    for fn in vars(cls).values():
                        code = getattr(fn, "__code__", None)
                        if code is not None and code.co_filename not in self._files:
                            self._generated.add(code)
        self.counts = dict.fromkeys(WRAPPED, 0)
        self._in_syzygies = 0
        self._in_prune = 0
        self._install(mods)

    # -- wrappers ---------------------------------------------------------------

    def _patch(self, original, wrapper) -> None:
        functools.update_wrapper(wrapper, original)
        for ns in self._namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)

    def _install(self, mods) -> None:
        counts = self.counts
        freemod, solvers, modules, textio = mods["freemod"], mods["solvers"], mods["modules"], mods["textio"]

        matrix_init = freemod.GradedMatrixHom.__init__

        def init(hom, source, target, degree, entries):
            matrix_init(hom, source, target, degree, entries)
            counts["freemod.entries_validated"] += source.rank * target.rank

        freemod.GradedMatrixHom.__init__ = functools.update_wrapper(init, matrix_init)

        span_init = solvers.ColumnSpan.__init__

        def span(obj, ambient, columns):
            if self._in_prune:
                counts["solvers.prune_spans_built"] += 1
            span_init(obj, ambient, columns)

        solvers.ColumnSpan.__init__ = functools.update_wrapper(span, span_init)

        snf = solvers.smith_normal_form

        def smith_normal_form(rows):
            out = snf(rows)
            bits = max((abs(v).bit_length() for m in (out.U, out.D, out.V, out.Uinv, out.Vinv) for r in m for v in r), default=0)
            counts["solvers.snf_bits_max"] = max(counts["solvers.snf_bits_max"], bits)
            return out

        self._patch(snf, smith_normal_form)

        syz = solvers.syzygies

        def syzygies(f, prune=True):
            if not prune:
                return syz(f, prune)
            self._in_syzygies += 1
            try:
                out = syz(f, prune)
            finally:
                self._in_syzygies -= 1
            counts["solvers.syzygies_kept"] += out.source.rank
            return out

        self._patch(syz, syzygies)

        kernel = solvers.kernel_columns

        def kernel_columns(ambient, columns):
            out = kernel(ambient, columns)
            if self._in_syzygies:
                counts["solvers.syzygies_raw"] += sum(1 for vec in out if any(vec))
            return out

        self._patch(kernel, kernel_columns)

        prune = solvers.prune_columns

        def prune_columns(ambient, columns):
            self._in_prune += 1
            try:
                return prune(ambient, columns)
            finally:
                self._in_prune -= 1

        self._patch(prune, prune_columns)

        res = modules.resolve

        def resolve(module, max_length=32):
            out = res(module, max_length)
            counts["modules.rank_sum"] += sum(m.rank for m in out.modules)
            counts["modules.length_sum"] += out.length
            return out

        self._patch(res, resolve)

        parse = textio.parse_source

        def parse_source(source, filename="<input>"):
            counts["textio.bytes_parsed"] += len(source.encode("utf-8"))
            return parse(source, filename)

        self._patch(parse, parse_source)

    # -- one pass ---------------------------------------------------------------

    def measure(self, body):
        """Run body() under the profiler; return every per-layer metric of that pass and body's result."""
        for name in self.counts:
            self.counts[name] = 0
        profiler = cProfile.Profile(builtins=False)
        profiler.enable()
        try:
            out = body()
        finally:
            profiler.disable()
        values = dict.fromkeys(METRICS, 0)
        by_code = {}
        for entry in profiler.getstats():
            code = entry.code
            if isinstance(code, str):
                continue
            by_code[code] = entry
            layer = self._files.get(code.co_filename)
            if layer is not None:
                values[f"{layer}.self_s"] += entry.inlinetime
            elif code in self._generated:
                values["generated.self_s"] += entry.inlinetime
        for name, (_, _, kind) in PROFILED.items():
            entry = by_code.get(self._codes[name])
            if entry is not None:
                values[name] = entry.callcount if kind == "calls" else entry.totaltime
        values.update(self.counts)
        raw = values["solvers.syzygies_raw"]
        values["solvers.syzygy_keep_ratio"] = values["solvers.syzygies_kept"] / raw if raw else 0.0
        return values, out
