"""Spans for the traced run, recorded around calls into the program's public functions.

Nothing in the program is edited. `install` rebinds each traced function, in
every loaded `padicforms` module that holds it, to a timing wrapper, and
returns a function that puts the originals back. A span records its name,
start, end and parent; self time is the span's duration minus the time its
child spans cover. Functions called hundreds of thousands of times per round
(`LEAF_FUNCTIONS`) are not given a span each: their calls and time are
summed per parent span, and still count as child time of that parent.
"""

from __future__ import annotations

import importlib
import json
import operator
import random
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction

# Per-layer metrics: (name, unit). A name is "<module>.<function>.<stat>" with
# stat one of s (time inside outermost calls), self_s or calls; the padic
# figures come from microbenchmarks.
LAYER_METRICS = (
    ("hurwitz.lp_value.s", "s"),
    ("hurwitz.lp_value.calls", "count"),
    ("volkenborn.integral_mahler.s", "s"),
    ("volkenborn.integral_mahler.calls", "count"),
    ("arith.vp_int.s", "s"),
    ("arith.vp_int.calls", "count"),
    ("padic.add_us", "us"),
    ("padic.mul_us", "us"),
    ("forms.chi_weighted_integral_sum.s", "s"),
    ("verification.check_valuation_formula.self_s", "s"),
    ("forms.evaluate_form_identity.self_s", "s"),
    ("forms.hurwitz_variant_form.self_s", "s"),
    ("forms.build_rn.s", "s"),
    ("forms.partial_fractions.self_s", "s"),
    ("polynomials.series_mul.s", "s"),
    ("polynomials.series_mul.calls", "count"),
    ("polynomials.series_pow.self_s", "s"),
    ("polynomials.series_inv.s", "s"),
    ("forms.lambda_form.s", "s"),
    ("forms.rho_zero.s", "s"),
    ("catalog.check_config_integrality.self_s", "s"),
    ("cli.dispatch.self_s", "s"),
    ("polynomials.parse_rational_function.s", "s"),
    ("arith.bernoulli_number.s", "s"),
    ("arith.bernoulli_poly.s", "s"),
    ("hurwitz.zeta_p_pos.s", "s"),
    ("hurwitz.zeta_p_nonpos.s", "s"),
    ("volkenborn.integral_riemann.s", "s"),
    ("characters.chi_padic_data.s", "s"),
    ("cyclotomic.assert_integral.calls", "count"),
    ("heights.dimension_bound.calls", "count"),
    ("jsonio.dumps.s", "s"),
)

LEAF_FUNCTIONS = ("arith.vp_int", "arith.bernoulli_number")
SPAN_FUNCTIONS = tuple(sorted(
    {name.rsplit(".", 1)[0] for name, _ in LAYER_METRICS
     if not name.startswith("padic.")} - set(LEAF_FUNCTIONS)))


class Recorder:
    """Spans kept in memory while the traced pass runs."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.active = True
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._stack: list[dict] = []
        self._next_id = 0

    def open(self, name: str, **attrs) -> dict:
        self._next_id += 1
        span = {"id": self._next_id,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start": time.perf_counter(), "child": 0.0, "leaves": {}}
        if attrs:
            span["attrs"] = attrs
        self._stack.append(span)
        self._depth[name] += 1
        return span

    def close(self, span: dict) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - span["start"]
        name = span["name"]
        if self._stack:
            self._stack[-1]["child"] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - span["child"]
        if self._depth[name] == 1:   # outermost call of a recursive function
            self.total[name] += duration
        self._depth[name] -= 1
        span["end"] = end
        self.spans.append(span)

    def leaf(self, name: str, duration: float) -> None:
        self.calls[name] += 1
        self.total[name] += duration
        self.self_s[name] += duration
        if self._stack:
            top = self._stack[-1]
            top["child"] += duration
            agg = top["leaves"].setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += duration

    def write_ndjson(self, path, summary: dict) -> None:
        """One line per span, one per (parent, leaf function), then the summary."""
        with open(path, "w") as fh:
            for span in self.spans:
                rec = {"id": span["id"], "parent": span["parent"], "name": span["name"],
                       "start": span["start"] - self.origin,
                       "end": span["end"] - self.origin,
                       "self_s": span["end"] - span["start"] - span["child"]}
                if "attrs" in span:
                    rec["attrs"] = span["attrs"]
                fh.write(json.dumps(rec) + "\n")
                for name, (calls, secs) in span["leaves"].items():
                    fh.write(json.dumps({"name": name, "parent": span["id"],
                                         "calls": calls, "s": secs}) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")


def _span_wrapper(rec: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        span = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(span)
    return traced


def _leaf_wrapper(rec: Recorder, name: str, fn):
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leaf(name, time.perf_counter() - start)
    return traced


def install(rec: Recorder):
    """Rebind every traced function; returns a function that undoes it."""
    modules = [m for key, m in sys.modules.items()
               if key == "padicforms" or key.startswith("padicforms.")]
    undo = []
    for name in SPAN_FUNCTIONS + LEAF_FUNCTIONS:
        module_name, func_name = name.split(".")
        original = getattr(importlib.import_module("padicforms." + module_name), func_name)
        make = _leaf_wrapper if name in LEAF_FUNCTIONS else _span_wrapper
        wrapper = make(rec, name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    def restore():
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)
    return restore


def padic_microbench(seed: int, batches: int = 15, per_batch: int = 2000) -> dict[str, float]:
    """Median microseconds per Padic add and mul at p = 2, precision 500.

    Operands are random 2-adic numbers of valuation 0..3 and absolute
    precision 480..520, the shape of the sums in the certify identities.
    """
    from padicforms.padic import Padic

    rng = random.Random(seed)

    def operand():
        num = rng.getrandbits(600) | 1
        den = rng.getrandbits(600) | 1
        return Padic.from_fraction(Fraction(num << rng.randint(0, 3), den), 2,
                                   rng.randint(480, 520))

    pairs = [(operand(), operand()) for _ in range(64)]
    out = {}
    for label, op in (("padic.add_us", operator.add), ("padic.mul_us", operator.mul)):
        per_op = []
        for _ in range(batches):
            start = time.perf_counter()
            for k in range(per_batch):
                a, b = pairs[k & 63]
                op(a, b)
            per_op.append((time.perf_counter() - start) / per_batch * 1e6)
        out[label] = statistics.median(per_op)
    return out


def layer_metrics(rec: Recorder, micro: dict[str, float]) -> dict[str, float]:
    values = {}
    for name, _ in LAYER_METRICS:
        if name in micro:
            values[name] = micro[name]
            continue
        func, stat = name.rsplit(".", 1)
        table = {"s": rec.total, "self_s": rec.self_s, "calls": rec.calls}[stat]
        values[name] = table[func]
    return values
