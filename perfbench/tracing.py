"""Per-layer spans and counters, put around `semistab` from outside.

`Tracer.install()` replaces the public functions named in `SPANS` with
wrappers that time them, in every `semistab` module that holds a
reference, and wraps a few hot methods and generators with counters;
`Tracer.uninstall()` puts the originals back.  Nothing in `semistab`
changes on disk.

A span's self time is its duration minus the durations of the spans it
called.  Every span nests inside the root span around `cli.run`, so the
self times of all buckets add up to the time spent in `cli.run`.
Functions that are not wrapped count towards their caller's bucket.
A module or function that no longer exists is skipped and its bucket
reads 0.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

_DECODE = ("decode_filtration", "decode_flag", "decode_form_bundle", "decode_point",
           "decode_poly", "decode_profile", "decode_rational", "decode_rep", "decode_subgroup")
_ENCODE = ("encode_filtration", "encode_flag", "encode_form_bundle", "encode_point",
           "encode_poly", "encode_profile", "encode_rational", "encode_rep",
           "encode_subgroup", "encode_weighted_flag")

# module -> function -> bucket (reported as <bucket>_ms).
SPANS = {
    "cli": {"run": "cli.self"},
    "jsonio": {**{f: "jsonio.decode" for f in _DECODE}, **{f: "jsonio.encode" for f in _ENCODE}},
    "classical": {
        "semistable_form": "classical.walk",
        "ramanathan_semistable": "classical.walk",
        "dualize_filtration": "classical.walk",
        "filtration_data_of": "classical.filtration_data",
        "form_profile": "classical.form_profile",
        "kernel_destabilizer": "classical.kernel",
    },
    "_polyalg": {
        "generic_rank": "polyalg.rank",
        "maximal_minors": "polyalg.minors",
        "determinant": "polyalg.minors",
        "poly_content": "polyalg.minors",
        "generic_kernel": "polyalg.kernel",
    },
    "feasibility": {"feasible_point": "feasibility.lp"},
    "hilbert_mumford": {
        "torus_destabilize": "hilbert_mumford.grid",
        "mu": "hilbert_mumford.mu",
    },
    "dispo": {
        "admissible_deformation": "dispo.deformation",
        "delta_semistable": "dispo.verdict",
        "slope_semistable": "dispo.verdict",
        "asymptotic_semistable": "dispo.verdict",
        "mu_profile": "dispo.verdict",
        "functional_M": "dispo.verdict",
        "functional_L": "dispo.verdict",
        "block_weights": "dispo.verdict",
    },
}

BUCKETS = sorted({b for table in SPANS.values() for b in table.values()} | {"dispo.profile_build"})

COUNTS = (
    "classical.flags_scored", "polyalg.rank_calls", "exactmath.mul_calls",
    "exactmath.add_calls", "feasibility.lp_calls", "feasibility.lp_cells",
    "hilbert_mumford.destabilize_calls", "hilbert_mumford.grid_points",
    "hilbert_mumford.lp_fallbacks", "dispo.profiles_built", "dispo.profile_tuples",
    "dispo.dominating_tuples",
)

# (cached function in semistab.classical, metric prefix)
CACHES = (("_flag_ranks", "classical.rank_cache"), ("saturation_degree", "classical.saturation_cache"))

PACKAGE = "semistab"


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _module(name):
    return sys.modules.get(f"{PACKAGE}.{name}")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, bucket, fn, on_call=None, on_return=None):
        stack, totals = self._stack, self.self_s

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                totals[bucket] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if on_return is not None:
                    on_return()

        return traced

    def exclude(self, seconds):
        """Leave ``seconds`` spent outside the program out of the open span."""
        if self._stack:
            self._stack[-1][0] += seconds

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _counted_generator(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts[name] += n

        return counted

    # -- install / uninstall ----------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _hooks(self, module, name):
        """Counters taken at the boundary of a few spans."""
        counts = self.counts
        if (module, name) == ("classical", "form_profile"):
            return lambda args: counts.update(("classical.flags_scored",)), None
        if (module, name) == ("_polyalg", "generic_rank"):
            return lambda args: counts.update(("polyalg.rank_calls",)), None
        if (module, name) == ("feasibility", "feasible_point"):
            def lp(args):
                rows = len(args[0])
                cols = len(args[0][0]) if rows else 0
                counts["feasibility.lp_calls"] += 1
                counts["feasibility.lp_cells"] += rows * (cols + rows + 1)
            return lp, None
        if (module, name) == ("hilbert_mumford", "torus_destabilize"):
            before = []

            def enter(args):
                counts["hilbert_mumford.destabilize_calls"] += 1
                before.append(counts["feasibility.lp_calls"])

            def leave():
                if counts["feasibility.lp_calls"] - before.pop() > 1:
                    counts["hilbert_mumford.lp_fallbacks"] += 1

            return enter, leave
        return None, None

    def install(self):
        replacements = {}
        for module_name, table in SPANS.items():
            module = _module(module_name)
            if module is None:
                continue
            for name, bucket in table.items():
                fn = module.__dict__.get(name)
                if callable(fn):
                    replacements[id(fn)] = self._span(bucket, fn, *self._hooks(module_name, name))
        hilbert = _module("hilbert_mumford")
        if hilbert is not None and callable(hilbert.__dict__.get("sum_zero_grid")):
            fn = hilbert.sum_zero_grid
            replacements[id(fn)] = self._counted_generator("hilbert_mumford.grid_points", fn)
        dispo = _module("dispo")
        if dispo is not None and callable(dispo.__dict__.get("_dominating_tuples")):
            fn = dispo._dominating_tuples
            replacements[id(fn)] = self._counted_generator("dispo.dominating_tuples", fn)
        # Rebind every reference, including names imported into other modules.
        for module in _package_modules():
            for name, value in list(module.__dict__.items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._set(module, name, wrapper)
        exactmath = _module("exactmath")
        if exactmath is not None and hasattr(exactmath, "UniPoly"):
            poly = exactmath.UniPoly
            self._set(poly, "__mul__", self._counted("exactmath.mul_calls", poly.__mul__))
            self._set(poly, "__add__", self._counted("exactmath.add_calls", poly.__add__))
        if dispo is not None and hasattr(dispo, "NonvanishingProfile"):
            profile = dispo.NonvanishingProfile
            counts = self.counts

            def built(args):
                counts["dispo.profiles_built"] += 1
                counts["dispo.profile_tuples"] += len(args[0].tuples)

            self._set(profile, "__post_init__", self._span("dispo.profile_build", profile.__post_init__, built))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results --------------------------------------------------------------

    def cache_stats(self):
        classical = _module("classical")
        out = {}
        for name, prefix in CACHES:
            fn = getattr(classical, name, None)
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            out[prefix + "_hits"] = info.hits if info else 0
            out[prefix + "_misses"] = info.misses if info else 0
        return out

    def summary(self):
        """Self seconds per bucket and counts, in plain JSON types."""
        return {
            "self_s": {b: self.self_s.get(b, 0.0) for b in BUCKETS},
            "counts": {**{c: self.counts.get(c, 0) for c in COUNTS}, **self.cache_stats()},
        }


def clear_caches():
    """Empty every functools cache in the package, as in a fresh process."""
    for module in _package_modules():
        for value in list(module.__dict__.values()):
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()
