"""Tests of the benchmark's references and output checks.

    python3 -m pytest perfbench/tests -q

The references must reproduce the values the README documents and agree
with the program where both compute the same thing; a check must report an
output altered by one p-digit at its stated precision as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import refs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from padicforms import cli, forms, hurwitz, volkenborn  # noqa: E402
from padicforms.characters import character_from_spec  # noqa: E402
from padicforms.polynomials import parse_rational_function  # noqa: E402


@pytest.fixture(scope="module")
def bern():
    return refs.Bernoulli()


@pytest.fixture(scope="module")
def queries(bern):
    return workloads.Queries(7, bern)


# -- the README's documented values ---------------------------------------------


def test_bernoulli_numbers(bern):
    known = [Q(1), Q(-1, 2), Q(1, 6), 0, Q(-1, 30), 0, Q(1, 42), 0, Q(-1, 30), 0,
             Q(5, 66), 0, Q(-691, 2730), 0, Q(7, 6)]
    assert [bern(n) for n in range(len(known))] == known


def test_readme_zeta_nonpositive(bern, queries):
    x = Q(1, 5)
    rational = -bern.poly_value(1, x)
    assert rational * refs.omega_ext(x, 5, 10) ** -1 == Q(3, 2)
    req = workloads.Request("zeta_nonpos", ("zeta", "--p", "5", "--s", "0", "--x", "1/5",
                                            "--prec", "12"), (5, 0, x, 12))
    code, line = queries.run(req)
    assert code == 0 and json.loads(line)["exact"] == "3/2"
    assert queries.output_ok(req, json.loads(line))


def test_readme_lvalue(bern, queries):
    assert refs.lvalue_nonpositive(-1, "trivial", 5, bern) == Q(1, 3)
    req = workloads.Request("lvalue_nonpos", ("lvalue", "--i", "-1", "--p", "5", "--l", "1"),
                            (-1, "trivial", 5, 1, 12))
    assert queries.output_ok(req, json.loads(queries.run(req)[1]))


def test_readme_polynomial_integral(bern, queries):
    assert bern(2) == Q(1, 6)
    req = workloads.Request("integrate_poly", ("integrate", "--expr=t^2", "--p", "5"),
                            (5, ((2, 1),)))
    code, line = queries.run(req)
    assert json.loads(line)["value"] == {"num": "1", "den": "6"}
    assert queries.output_ok(req, json.loads(line))


def test_readme_nesterenko():
    assert refs.dimension_ratio(1, 1, 0) == Q(1, 2)


# -- agreement with the program ----------------------------------------------------


@pytest.mark.parametrize("p,x,k", [(2, Q(1, 4), 3), (2, Q(3, 8), 5), (3, Q(2, 3), 4),
                                   (5, Q(1, 5), 2), (5, Q(7, 25), 3)])
def test_series_matches_mahler(bern, p, x, k):
    value = volkenborn.integral_mahler(parse_rational_function(f"({x}+t)^-{k}"), p, 30)
    assert workloads.agrees(value, refs.pole_integral(k, x, p, 30, bern), p, 30)


@pytest.mark.parametrize("spec,p,l", [("trivial", 2, 2), ("quadratic:4", 2, 2),
                                      ("quadratic:3", 3, 1), ("trivial", 7, 1)])
def test_lvalues_match_program(bern, spec, p, l):
    chi = character_from_spec(spec)
    for i in (-3, -2, -1, 0):
        assert hurwitz.lp_value(i, chi, p, l) == refs.lvalue_nonpositive(i, spec, p, bern)
    for i in (2, 3, 4):
        value = hurwitz.lp_value(i, chi, p, l, precision=20)
        assert workloads.agrees(value, refs.lvalue_positive(i, spec, p, l, 20, bern), p, 20)


@pytest.mark.parametrize("spec,x,p,l,s,n", [("trivial", None, 2, 2, 20, 1),
                                            ("quadratic:4", None, 2, 2, 21, 1),
                                            ("trivial", None, 3, 1, 22, 2),
                                            (None, Q(3, 4), 2, 2, 18, 1)])
def test_rn_product_formula(bern, spec, x, p, l, s, n):
    if x is None:
        params = forms.choose_params(character_from_spec(spec), p, s, l=l)
    else:
        params, _ = forms.hurwitz_params(x, p, s, l=l)
    shape = refs.RnShape(p, s, l, n, spec=spec, x=x, bern=bern)
    assert (shape.Q, shape.D, shape.delta, shape.N) == (params.Q, params.D, params.delta,
                                                        params.N(n))
    table = forms.partial_fractions(forms.build_rn(params, n))
    for t in (Q(1, 3), Q(-5, 7)):
        assert refs.reconstruct(table.rows, t) == shape.value(t) == \
            forms.build_rn(params, n).evaluate(t)


def test_valuation_formula_catalog_values(bern):
    assert refs.RnShape(2, 64, 2, 3, spec="trivial", bern=bern).valuation_formula() == 623
    assert refs.RnShape(3, 82, 1, 2, spec="trivial", bern=bern).valuation_formula() == 263


# -- checks reject an output off by one digit ------------------------------------------


def _bump_last_digit(value: dict) -> dict:
    """The same p-adic number plus p^(prec-1): wrong in its last stated digit."""
    p, number, prec = workloads.padic_value(value)
    changed = number + Q(p) ** (prec - 1)
    v = refs.vp(changed, p)
    unit = changed / Q(p) ** v
    unit = unit.numerator * pow(unit.denominator, -1, p ** (prec - v)) % p ** (prec - v)
    return {"p": p, "val": v, "unit": str(unit), "prec": prec}


@pytest.mark.parametrize("kind,field", [("zeta_pos", "twisted"), ("zeta_pos", "zeta"),
                                        ("zeta_nonpos", "value"), ("lvalue_pos", "value"),
                                        ("integrate_poles", "value"),
                                        ("integrate_riemann", "value")])
def test_altered_digit_is_a_failed_operation(bern, kind, field):
    wl = workloads.Queries(11, bern)
    req = next(r for r in wl.items if r.kind == kind)
    code, line = wl.run(req)
    obj = json.loads(line)
    obj[field] = _bump_last_digit(obj[field])
    tally = run.Tally(workloads.Failure)
    tally.judge(workloads.Queries(11, bern), req, (code, json.dumps(obj)))
    assert tally.failed == 1 and not tally.correct
    clean = run.Tally(workloads.Failure)
    clean.judge(workloads.Queries(11, bern), req, (code, line))
    assert clean.failed == 0 and clean.correct


def test_altered_lp_value_is_rejected(bern):
    chi = character_from_spec("trivial")
    value = hurwitz.lp_value(5, chi, 2, 2, precision=40)
    ref = refs.lvalue_positive(5, "trivial", 2, 2, 40, bern)
    assert workloads.agrees(value, ref, 2, 40)
    assert not workloads.agrees(_bump_last_digit(value.to_json()), ref, 2, 40)


def test_weakened_certify_and_integrality_outputs_fail(bern):
    cert = workloads.Certify(3, bern)
    item = min((i for i in cert.items if i.kind == "L"), key=lambda i: i.s)
    params, table, form, report = cert.run(item)
    short = dataclasses.replace(report, relative_digits=workloads.DIGITS - 1)
    integ = workloads.Integrality(3, bern)
    small = min(integ.items, key=lambda i: i.s)
    verdict = dataclasses.replace(integ.run(small), verdict=False)
    tally = run.Tally(workloads.Failure)
    tally.judge(cert, item, (params, table, form, short))
    tally.judge(integ, small, verdict)
    assert tally.failed == 2 and not tally.correct


def test_json_character_requests_fail_today(queries):
    reqs = [r for r in queries.items if r.kind == "lvalue_json"]
    assert len(reqs) == len(workloads.JSON_CHARACTER_REQUESTS)
    tally = run.Tally(workloads.Failure)
    for req in reqs:
        timed = tally.call(queries, req)
        tally.judge(queries, req, timed[1])
    # exit 3 "unknown character tag": failed, but no output was wrong
    assert tally.failed == len(reqs) and tally.correct


# -- harness -----------------------------------------------------------------------


def test_tail_percentile_leaves_ten_items_beyond():
    for wl in (workloads.Certify, workloads.Integrality, workloads.Queries):
        values = list(range(wl.min_items))
        cut = run.percentile(values, wl.percentile)
        assert sum(v > cut for v in values) >= 10


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_wrappers_are_removed_again():
    original = forms.partial_fractions
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        assert forms.partial_fractions is not original
        assert cli.dispatch(["nesterenko", "--tau", "1", "--tau1", "1", "--tau2", "0"]) == 0
    finally:
        restore()
    assert forms.partial_fractions is original
    assert rec.calls["cli.dispatch"] == 1 and rec.calls["heights.dimension_bound"] == 1
    assert rec.self_s["cli.dispatch"] <= rec.total["cli.dispatch"]
