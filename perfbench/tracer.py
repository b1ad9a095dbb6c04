"""Timing wrappers installed from outside the program.

`patch` replaces a function at every place it can be looked up in the
thetalab package: the module that defines it, each module that imported
it by name, and class attributes that alias it (`__rmul__ = __mul__`).
The tracer wraps the public functions listed in TARGETS this way.  A
spanned call records its name, start, end, parent span and op number; a
counted call only bumps a counter, to keep hot field operations cheap.
Self time is a span's duration minus the time its child spans cover.
Spans are kept in memory (the first MAX_SPANS of them) and written as
JSON at exit; the aggregates cover every call.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

MAX_SPANS = 100_000

# (module, qualified name, how): "span" times the call, "count" counts it.
TARGETS = [
    ("cli", "main", "span"),
    ("report", "build_report", "span"),
    ("report", "render_text", "span"),
    ("report", "rows_to_json", "span"),
    ("verlinde", "verlinde_p2", "span"),
    ("verlinde", "s_factor", "span"),
    ("verlinde", "hilbert_values", "span"),
    ("verlinde", "theta_eigendims", "span"),
    ("hilbert", "fit_hilbert", "span"),
    ("hilbert", "canonical_power", "span"),
    ("lefschetz", "split_eigendims", "span"),
    ("lefschetz", "lefschetz_number", "span"),
    ("lefschetz", "sym2_scenario", "span"),
    ("lefschetz", "sym2_rejected_scenario", "span"),
    ("lefschetz", "hom_ee_scenario", "span"),
    ("lefschetz", "hom_ow_scenario", "span"),
    ("bundles", "raynaud_invariants", "span"),
    ("bundles", "chi", "span"),
    ("bundles", "slope", "span"),
    ("bundles", "moduli_dim", "span"),
    ("bundles", "theta_self_intersection", "span"),
    ("bundles", "BundleSymbol.tensor", "span"),
    ("exact", "cyclo_sin", "span"),
    ("exact", "cyclo_to_rational", "span"),
    ("exact", "Cyclo.__mul__", "span"),
    ("exact", "Cyclo.__add__", "span"),
    ("exact", "Cyclo.__sub__", "span"),
    ("exact", "Cyclo.__truediv__", "span"),
    ("exact", "Cyclo.inverse", "span"),
    ("exact", "Cyclo.zeta", "span"),
    ("exact", "Cyclo.promote", "span"),
    ("polys", "Poly.__mul__", "span"),
    ("polys", "Poly.__add__", "span"),
    ("polys", "Poly.__divmod__", "span"),
    ("polys", "xgcd", "span"),
    ("polys", "gcd", "span"),
    ("fields", "PrimeField.mul", "count"),
    ("fields", "RationalField.mul", "count"),
    ("fields", "PrimeField.sqrt", "span"),
    ("hyperelliptic", "cantor_add", "span"),
    ("hyperelliptic", "negate", "span"),
    ("hyperelliptic", "scalar_mul", "span"),
    ("hyperelliptic", "h0", "span"),
    ("hyperelliptic", "reduce_class", "span"),
    ("hyperelliptic", "km2_points", "span"),
    ("hyperelliptic", "theta_translate_intersection", "span"),
    ("hyperelliptic", "weierstrass_points", "span"),
    ("hyperelliptic", "two_torsion", "span"),
    ("hyperelliptic", "curve_points", "span"),
    ("hyperelliptic", "enumerate_pic", "span"),
]

LAYERS = ("cli", "report", "verlinde", "hilbert", "lefschetz", "bundles",
          "exact", "polys", "fields", "hyperelliptic")


def _sites():
    """Every thetalab module namespace and class namespace."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "thetalab" or name.startswith("thetalab.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def lookup(module: str, qualname: str):
    """The function object behind thetalab.<module>.<qualname>, or None."""
    try:
        obj = importlib.import_module(f"thetalab.{module}")
    except ImportError:
        return None
    for part in qualname.split("."):
        raw = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
        obj = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if obj is None:
            return None
    return obj


def patch(original, replacement) -> list:
    """Put `replacement` wherever `original` is bound; return the places."""
    places = []
    for site in _sites():
        for name, value in list(vars(site).items()):
            kind = type(value) if isinstance(value, (classmethod, staticmethod)) else None
            if (value.__func__ if kind else value) is original:
                places.append((site, name, kind))
    bind(places, replacement)
    return places


def bind(places, function) -> None:
    for site, name, kind in places:
        setattr(site, name, kind(function) if kind else function)


class Tracer:
    """Aggregates and spans of the wrapped calls made while resumed.

    While paused the program runs unwrapped, except enumerate_pic, which
    still notes each curve so that a later traced call on it counts as warm.
    """

    OBSERVED = "hyperelliptic.enumerate_pic"

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.spans: list[list] = []
        self.op = 0
        self.missing: list[str] = []
        self.paused = False
        self._patched = []  # (name, places, original, wrapper)
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 0
        self._enumerated: set[str] = set()

    def install(self) -> None:
        for module, qualname, how in TARGETS:
            original = lookup(module, qualname)
            name = f"{module}.{qualname.split('.')[-1]}"
            if original is None:
                self.missing.append(name)
                continue
            wrap = self._counter if how == "count" else self._spanner
            wrapper = wrap(original, module, name)
            self._patched.append((name, patch(original, wrapper), original, wrapper))

    def pause(self) -> None:
        self.paused = True
        for name, places, original, _ in self._patched:
            if name != self.OBSERVED:
                bind(places, original)

    def resume(self) -> None:
        self.paused = False
        for _, places, _, wrapper in self._patched:
            bind(places, wrapper)

    def _counter(self, original, layer, name):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    def _key(self, name, args):
        """Split calls whose cost differs for reasons a user can see."""
        if name == "exact.promote":
            same = len(args) > 1 and args[1] == getattr(args[0], "modulus", None)
            return "exact.promote_same" if same else name
        if name == "hyperelliptic.enumerate_pic":
            curve = str(args[0])
            if curve in self._enumerated:
                return "hyperelliptic.enumerate_warm"
            self._enumerated.add(curve)
            return "hyperelliptic.enumerate_cold"
        return name

    def _spanner(self, original, layer, name):
        stack, spans, now = self._stack, self.spans, time.perf_counter_ns

        def spanned(*args, **kwargs):
            key = self._key(name, args)
            if self.paused:
                return original(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            record = None
            if span_id < MAX_SPANS:
                record = [key, 0, 0, parent, self.op]
                spans.append(record)
            frame = [span_id, 0]
            stack.append(frame)
            start = now()
            try:
                return original(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[key] += 1
                self.total_ns[key] += duration
                self.self_ns[layer] += duration - frame[1]
                if record is not None:
                    record[1], record[2] = start, end
        return spanned

    def per_call_ms(self, key: str) -> float:
        n = self.calls.get(key, 0)
        return self.total_ns.get(key, 0) / n / 1e6 if n else 0.0

    def write(self, path) -> None:
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "spans_dropped": max(0, self._next_id - MAX_SPANS),
            "missing_targets": self.missing,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
