"""Span tracing of rayclass from outside the package.

The package modules bind each other's functions with ``from .x import f``,
so wrapping ``rayclass.qseries.siegel`` alone would miss the calls made
through ``rayclass.verify.siegel``.  :class:`Tracer` therefore replaces every
module-level name in ``rayclass.*`` that is bound to a traced function, plus
the traced classmethods and methods of ``ModularPoint``, and puts the
originals back on exit.  Names that a later version of the package no longer
defines are skipped.

Each call records one span ``(op, name, layer, start, end, self_s)``.  Self
time is the span's duration minus the time covered by its child spans; it is
computed while the stack unwinds, so no second pass is needed.  Spans stay in
memory until :meth:`Tracer.write` dumps them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# layer (= defining module) -> public names whose calls become spans
TRACED = {
    "numerics": ("truncation_terms", "safe_div", "principal_root"),
    "qseries": (
        "eta", "eisenstein", "delta", "j_invariant", "siegel", "wp", "wp_prime",
        "u_value", "v_value", "x_value", "y_value", "normalized",
    ),
    "classfield": (
        "make_field", "reduced_forms", "cm_point", "beta_lift",
        "ray_class_degree", "check_hypothesis", "ideal_factorization",
    ),
    "reciprocity": ("w_group", "act_index", "labels", "conjugate_values",
                    "siegel_ramachandra_unit"),
    "verify": (
        "check_surface_point", "check_curve_point", "check_lemma52",
        "check_generation", "check_T_bound", "check_elliptic_points",
        "corollary_identity_residuals", "min_pairwise_distance", "minpoly",
        "hilbert_class_poly",
    ),
    "cli": ("main",),
}
POINT_CLASSMETHODS = ("from_complex", "from_quadratic")

# q-series kernels that each sum one series at one point
KERNELS = ("siegel", "wp", "eisenstein", "eta", "delta")


def _point_key(pt):
    return (pt.tau.real, pt.tau.imag)


class Tracer:
    """Context manager that traces rayclass calls while it is active.

    Between ``__enter__`` and ``__exit__`` every traced call appends a span;
    :meth:`begin_op` sets the op id stamped on the spans that follow.
    Besides spans it keeps the counts that need call arguments or results:
    Siegel keys, truncation terms per point, orbit labels, compared pairs
    and recognized coefficients.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []  # [child_time] per open span
        self._patches = None  # built on first entry, reused after
        self.siegel_keys = defaultdict(set)  # op -> {(reduced index, tau)}
        self.terms = {}  # (op, tau) -> truncation terms
        self.labels = 0
        self.pairs_compared = 0
        self.coeffs = 0
        self.coeffs_recognized = 0

    # ------------------------------------------------------------ spans ---
    def begin_op(self, op_id) -> None:
        self.op = op_id

    def _wrap(self, fn, name, layer, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1] += dur
                tracer.spans.append((tracer.op, name, layer, t0, t1, dur - child))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # --------------------------------------------------------- counters ---
    def _observe(self, name):
        if name == "siegel":
            def seen(args, _):
                r, pt = args[0], args[1]
                key = (r.r1 % 1, r.r2 % 1, _point_key(pt))
                self.siegel_keys[self.op].add(key)
            return seen
        if name == "terms":
            def seen(args, result):
                self.terms[(self.op, _point_key(args[0]))] = result
            return seen
        if name == "conjugate_values":
            def seen(_, result):
                self.labels += len(result)
            return seen
        if name == "min_pairwise_distance":
            def seen(args, _):
                n = len(args[0])
                self.pairs_compared += n * (n - 1) // 2
            return seen
        if name == "minpoly":
            def seen(_, poly):
                self.coeffs += len(poly.recognized)
                self.coeffs_recognized += sum(r is not None for r in poly.recognized)
            return seen
        return None

    # ------------------------------------------------------- patch/undo ---
    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every name to patch."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "rayclass" or n.startswith("rayclass.")}
        plan = []
        for layer, names in TRACED.items():
            home = mods.get(f"rayclass.{layer}")
            for name in names:
                orig = getattr(home, name, None)
                if orig is None:
                    continue
                wrapper = self._wrap(orig, name, layer, self._observe(name))
                plan.extend((mod, attr, orig, wrapper)
                            for mod in mods.values()
                            for attr, val in vars(mod).items() if val is orig)
        point_cls = getattr(mods.get("rayclass.qseries"), "ModularPoint", None)
        for name in POINT_CLASSMETHODS:
            desc = vars(point_cls).get(name) if point_cls else None
            if isinstance(desc, classmethod):
                wrapper = classmethod(self._wrap(desc.__func__, name, "qseries"))
                plan.append((point_cls, name, desc, wrapper))
        desc = vars(point_cls).get("terms") if point_cls else None
        if desc is not None:
            plan.append((point_cls, "terms", desc,
                         self._wrap(desc, "terms", "numerics", self._observe("terms"))))
        return plan

    def __enter__(self):
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        return False

    # -------------------------------------------------------- summaries ---
    def write(self, path) -> None:
        """Dump every span as one JSON line."""
        with open(path, "w") as fh:
            for op, name, layer, t0, t1, self_s in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "layer": layer,
                                     "start": t0, "end": t1, "self_s": self_s}) + "\n")

    def per_layer(self, op_seconds: float, n_ops: int) -> dict:
        """Per-layer metrics as means per op (counts, seconds) or shares."""
        n_ops = max(n_ops, 1)
        layer_self = defaultdict(float)
        name_self = defaultdict(float)
        name_calls = defaultdict(int)
        for _, name, layer, _, _, self_s in self.spans:
            layer_self[layer] += self_s
            name_self[name] += self_s
            name_calls[name] += 1
        siegel_calls = name_calls["siegel"]
        distinct = sum(len(k) for k in self.siegel_keys.values())
        terms = list(self.terms.values())
        kernel_calls = sum(name_calls[k] for k in KERNELS)

        def share(num, den):
            return num / den if den else 0.0

        return {
            "numerics.terms_mean": share(sum(terms), len(terms)),
            "numerics.terms_max": max(terms, default=0),
            "qseries.self_s": layer_self["qseries"] / n_ops,
            "qseries.share": share(layer_self["qseries"], op_seconds),
            "qseries.siegel.calls": siegel_calls / n_ops,
            "qseries.siegel.self_s": name_self["siegel"] / n_ops,
            "qseries.siegel.distinct_share": share(distinct, siegel_calls),
            "qseries.wp.calls": name_calls["wp"] / n_ops,
            "qseries.wp.self_s": name_self["wp"] / n_ops,
            "qseries.eisenstein.calls": name_calls["eisenstein"] / n_ops,
            "qseries.eisenstein.self_s": name_self["eisenstein"] / n_ops,
            "qseries.eta_delta.calls": (name_calls["eta"] + name_calls["delta"]) / n_ops,
            "qseries.eta_delta.self_s": (name_self["eta"] + name_self["delta"]) / n_ops,
            "qseries.calls_per_point": share(kernel_calls, len(terms)),
            "classfield.self_s": layer_self["classfield"] / n_ops,
            "reciprocity.self_s": layer_self["reciprocity"] / n_ops,
            "reciprocity.labels": self.labels / n_ops,
            "verify.self_s": layer_self["verify"] / n_ops,
            "verify.pairs_compared": self.pairs_compared / n_ops,
            "verify.minpoly.self_s": name_self["minpoly"] / n_ops,
            "verify.recognized_share": share(self.coeffs_recognized, self.coeffs),
            "cli.self_s": layer_self["cli"] / n_ops,
        }

