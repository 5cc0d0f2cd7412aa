import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import padicforms
from padicforms import cli
from padicforms.arith import PRIMALITY_BOUND
from padicforms.cli import dispatch
from padicforms.cyclotomic import CyclotomicElement, euler_phi
from padicforms.hurwitz import zeta_p_pos
from padicforms.jsonio import (cyclotomic_from_json, cyclotomic_to_json, dumps, int_to_str,
                               rational_from_json, rational_to_json)
from padicforms.padic import Padic
from padicforms.volkenborn import integral_pole_powers


def run_cli(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeta_command(capsys):
    code, out, err = run_cli(capsys, ["zeta", "--p", "5", "--s", "2",
                                      "--x", "1/5", "--prec", "4"])
    assert code == 0 and not err
    doc = json.loads(out)
    assert doc["zeta"]["p"] == 5
    # value = 1 mod 5
    assert (int(doc["zeta"]["unit"]) - 1) % 5 == 0 and doc["zeta"]["val"] == 0


def test_zeta_prints_a_unit_of_any_length(capsys):
    # the unit has about 5000 digits, above the 4300 that str() converts
    code, out, err = run_cli(capsys, ["zeta", "--p", "100003", "--s", "2",
                                      "--x", "1/100003", "--prec", "1000"])
    assert code == 0 and not err
    unit = json.loads(out)["zeta"]["unit"]
    want = zeta_p_pos(2, Q(1, 100003), 100003, 1000).zeta.unit
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert len(unit) > 4300 and int(unit) == want
    finally:
        sys.set_int_max_str_digits(limit)


def test_int_to_str_matches_str_at_every_length():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        for n in (0, 7, -7, 10 ** 600 - 1, 10 ** 600, -(10 ** 600), 10 ** 1200 + 5,
                  3 ** 20000, -(7 ** 9000) * 10 ** 600):
            assert int_to_str(n) == str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_zeta_nonpositive(capsys):
    code, out, _ = run_cli(capsys, ["zeta", "--p", "5", "--s", "0", "--x", "1/5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == "3/2"


def test_lvalue_command(capsys):
    code, out, _ = run_cli(capsys, ["lvalue", "--i", "-1", "--p", "5", "--l", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is True and doc["value"] == {"num": "1", "den": "3"}


def test_integrate_engines(capsys):
    code, out, _ = run_cli(capsys, ["integrate", "--expr", "(1/3+t)^-1",
                                    "--p", "3", "--prec", "6"])
    assert code == 0 and json.loads(out)["engine"] == "mahler"
    code, out, _ = run_cli(capsys, ["integrate", "--expr", "(1/3+t)^-1", "--p", "3",
                                    "--engine", "riemann", "--level", "4",
                                    "--prec", "6"])
    assert code == 0
    # polynomial via mahler is exact
    code, out, _ = run_cli(capsys, ["integrate", "--expr", "t^2", "--p", "5"])
    assert json.loads(out)["value"] == {"num": "1", "den": "6"}


@pytest.mark.parametrize("x, k, p, prec", [
    (Q(1, 10 ** 24), 1, 2, 8),
    (Q(1, 10 ** 24), 1, 2, 40),
    (Q(1, 5), 100, 5, 20),
], ids=["huge-denominator-prec8", "huge-denominator-prec40", "order-100"])
def test_integrate_huge_denominator_and_high_order_pole(x, k, p, prec):
    proc = run_cli_subprocess(["integrate", "--expr", f"({x}+t)^-{k}",
                               "--p", str(p), "--prec", str(prec)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == integral_pole_powers(x, p, {k: prec})[k].to_json()


def quartic_over(m):
    """The order-4 character mod 5 as JSON, with i = zeta_m^(m/4) written over
    Q(zeta_m); needs 4 | m and m/4 < phi(m)."""
    def power(sign):
        coords = ["0"] * euler_phi(m)
        coords[m // 4] = sign
        return {"m": m, "coords": coords}
    return json.dumps({"modulus": 5, "values": ["1", power("1"), power("-1"), "-1", "0"]})


def run_cli_subprocess(argv, timeout=60):
    """The CLI in a subprocess with a timeout, so that a slow request fails
    its test instead of hanging the suite."""
    src = str(Path(padicforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "padicforms.cli"] + argv,
                          capture_output=True, text=True, timeout=timeout, env=env)


@pytest.mark.parametrize("prec", [8, 40])
def test_integrate_two_poles_one_with_huge_denominator(prec):
    # the square-free denominator has two roots, so the rational root search
    # runs; 1/((x1+t)(x2+t)) = ((x1+t)^-1 - (x2+t)^-1)/(x2 - x1)
    x1, x2, p = Q(1, 10 ** 24), Q(1, 4), 2
    proc = run_cli_subprocess(["integrate", "--expr", f"({x1}+t)^-1*({x2}+t)^-1",
                               "--p", str(p), "--prec", str(prec)], timeout=30)
    assert proc.returncode == 0, proc.stderr
    a, b = (integral_pole_powers(x, p, {1: prec})[1] for x in (x1, x2))
    want = (a - b).mul_fraction(1 / (x2 - x1)).at_precision(prec)
    assert json.loads(proc.stdout)["value"] == want.to_json()


@pytest.mark.parametrize("argv", [
    ["integrate", "--expr", "t^5000000", "--p", "2"],
    ["integrate", "--expr", "(1/5+t)^-1", "--p", "5", "--engine", "riemann",
     "--level", "14", "--prec", "4"],
    ["integrate", "--expr", "(1/5+t)^-1", "--p", "5", "--engine", "riemann",
     "--level", "-1", "--prec", "4"],
    ["lvalue", "--i", "2", "--p", "2", "--l", "26", "--prec", "4"],
    ["lvalue", "--i", "2", "--p", "2", "--l", str(10 ** 30), "--prec", "4"],
    ["zeta", "--p", "5", "--s", "2", "--x", "1/5", "--prec", "3000000"],
    ["forms", "build", "--hurwitz", "100000000001/4", "--p", "2", "--s", "18",
     "--n", "1", "--l", "2"],
    ["forms", "build", "--p", "2", "--s", "20000", "--n", "1", "--l", "2",
     "--skip-identity"],
    ["forms", "build", "--p", "2", "--s", "64", "--n", "1", "--l", str(10 ** 30)],
    ["verify", "rate-fit", "--p", "3", "--s", "82", "--l", "1", "--ns", "2,5,100000"],
    ["verify", "chi-congruence", "--p", "2", "--s", "1", "--l", "2", "--n", str(10 ** 9)],
    ["verify", "integrality", "--count", "1000000"],
    ["verify", "all", "--catalog", "--digits", "1000000"],
    ["zeta", "--p", "5", "--s", "-3000", "--x", "1/5"],
    ["lvalue", "--i", "-3000", "--p", "5", "--l", "1"],
    ["lvalue", "--i", "-8", "--p", "5", "--l", "1", "--character", "quadratic:10007"],
    ["forms", "build", "--p", "2", "--s", "18", "--n", "1", "--l", "2", "--character",
     '{"modulus": 1000000000000, "values": []}'],
    ["lvalue", "--i", "-1", "--p", "5", "--l", "1", "--character", quartic_over(10012)],
], ids=["exponent", "riemann-level", "negative-level", "lvalue-l", "lvalue-huge-l",
        "prec", "hurwitz-shifts", "forms-s", "forms-huge-l", "rate-fit-ns",
        "chi-congruence-n", "count", "digits", "zeta-bernoulli-index",
        "lvalue-bernoulli-index", "character-modulus", "json-character-modulus",
        "json-character-value-field"])
def test_size_limits_exit2(argv):
    proc = run_cli_subprocess(argv, timeout=30)
    assert proc.returncode == 2 and not proc.stdout, proc.stderr
    assert json.loads(proc.stderr)["error"] == "usage"


def test_chi_congruence_at_the_size_caps_answers_at_once():
    # s^2 (n+1) and p^l at their caps give N(n) near 2^34; the residue of
    # binom(N + D x + j, N) mod p comes digit by digit (Lucas' theorem)
    proc = run_cli_subprocess(["verify", "chi-congruence", "--p", "2", "--s", "1",
                               "--l", "16", "--n", str(2 ** 18 - 1), "--j", "3"],
                              timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "pass"


def test_size_limits_sit_at_their_bounds():
    from padicforms.cli import (MAX_MODULUS, MAX_PREC, MAX_TABLE, MAX_TERMS, _size_error,
                                build_parser)
    from padicforms.polynomials import MAX_POWER_DEGREE

    def error(argv):
        return _size_error(build_parser().parse_args(argv))

    riemann = ["integrate", "--expr", "(1/4+t)^-1", "--p", "2", "--engine", "riemann"]
    assert MAX_TERMS == 2 ** 16
    assert error(riemann + ["--level", "16"]) is None
    assert error(riemann + ["--level", "17"]) is not None
    assert error(["lvalue", "--i", "2", "--p", "2", "--l", "16"]) is None
    assert error(["lvalue", "--i", "2", "--p", "2", "--l", "17"]) is not None
    # the Mahler engine never reads --level
    assert error(["integrate", "--expr", "(1/7919+t)^-1", "--p", "7919"]) is None
    zeta = ["zeta", "--p", "5", "--s", "2", "--x", "1/5", "--prec"]
    assert error(zeta + [str(MAX_PREC)]) is None
    assert error(zeta + [str(MAX_PREC + 1)]) is not None
    # forms and verify: s^2 (n+1) <= MAX_TABLE for --n and every --ns entry
    assert MAX_TABLE == 2 ** 18 == 256 ** 2 * 4
    build = ["forms", "build", "--p", "2", "--s", "256", "--l", "2", "--n"]
    assert error(build + ["3"]) is None
    assert error(build + ["4"]) is not None
    rate = ["verify", "rate-fit", "--p", "3", "--s", "256", "--l", "1", "--ns"]
    assert error(rate + ["1,3"]) is None
    assert error(rate + ["1,4,3"]) is not None
    assert error(["verify", "valuation", "--s", "256", "--n", "4"]) is not None
    # lambert and integrality read neither --s nor --n
    assert error(["verify", "lambert", "--s", str(10 ** 400), "--n", "4"]) is None
    # --digits and --count lie in 1..MAX_PREC; --hurwitz X needs |ceil(X) - 1| shifts
    for flag in ("--digits", "--count"):
        assert error(["verify", "all", "--catalog", flag, str(MAX_PREC)]) is None
        assert error(["verify", "all", "--catalog", flag, str(MAX_PREC + 1)]) is not None
        assert error(["verify", "all", "--catalog", flag, "0"]) is not None
    hurwitz = ["forms", "build", "--p", "2", "--s", "18", "--n", "1", "--l", "2",
               "--hurwitz"]
    for x in ("1001", "-999", "4001/4"):
        assert error(hurwitz + [x]) is None, x
    for x in ("1002", "-1000", "4005/4"):
        assert error(hurwitz + [x]) is not None, x
    # forms and verify cap --l as lvalue does
    assert error(build[:-1] + ["--n", "1", "--l", "16"]) is None
    assert error(build[:-1] + ["--n", "1", "--l", "17"]) is not None
    # the nonpositive branch admits the Bernoulli index 1 - s (1 - i) up to
    # MAX_POWER_DEGREE; the positive branch takes any s (i)
    assert MAX_POWER_DEGREE == 500
    for argv in (["zeta", "--p", "5", "--x", "1/5", "--s"],
                 ["lvalue", "--p", "5", "--l", "1", "--i"]):
        assert error(argv + ["-499"]) is None
        assert error(argv + ["-500"]) is not None
        assert error(argv + [str(10 ** 6)]) is None
    # a --character names its modulus before the character is built
    assert MAX_MODULUS == 1000
    lvalue = ["lvalue", "--i", "-8", "--p", "5", "--l", "1", "--character"]
    assert error(lvalue + ["quadratic:997"]) is None
    assert error(lvalue + ["quadratic:1009"]) is not None
    for modulus in (MAX_MODULUS, MAX_MODULUS + 1):
        spec = json.dumps({"modulus": modulus, "values": ["1"] * modulus})
        assert (error(lvalue + [spec]) is None) == (modulus == MAX_MODULUS)
    # a spec that names no modulus is left to character_from_spec to refuse
    for spec in ("trivial", "{bad", '{"values": []}', "[1]"):
        assert error(lvalue + [spec]) is None
    # and a value over Q(zeta_m) needs m <= MAX_MODULUS (phi(1004) = 500)
    assert error(lvalue + [quartic_over(MAX_MODULUS)]) is None
    assert error(lvalue + [quartic_over(1004)]) is not None


def test_the_character_cap_applies_only_where_a_character_is_built(capsys):
    from padicforms.cli import _size_error, build_parser

    def error(argv):
        return _size_error(build_parser().parse_args(argv + ["--character", "quadratic:1009"]))

    # verify all and verify integrality read no --character
    code, out, err = run_cli(capsys, ["verify", "integrality", "--count", "1",
                                      "--character", "quadratic:1009"])
    assert code == 0 and not err
    assert json.loads(out)["verdict"] == "pass"
    assert error(["verify", "all", "--catalog"]) is None
    assert error(["verify", "integrality"]) is None
    for argv in (["lvalue", "--i", "-1", "--p", "5", "--l", "1"],
                 ["forms", "build", "--p", "2", "--s", "18", "--n", "1", "--l", "2"],
                 ["verify", "lambert"], ["verify", "valuation"], ["verify", "rate-fit"],
                 ["verify", "chi-congruence"], ["verify", "fj-integral"],
                 ["verify", "growth"]):
        assert error(argv) is not None, argv


def test_a_character_value_over_a_large_cyclotomic_field_exits_2(capsys):
    code, out, err = run_cli(capsys, ["lvalue", "--i", "-1", "--p", "5", "--l", "1",
                                      "--character", quartic_over(1004)])
    assert code == 2 and not out
    assert "m = 1004" in json.loads(err)["detail"]


@pytest.mark.parametrize("argv", [
    ["zeta", "--p", "5", "--s", "-499", "--x", "1/5"],
    ["lvalue", "--i", "-499", "--p", "5", "--l", "1"],
], ids=["zeta", "lvalue"])
def test_nonpositive_branch_at_the_bernoulli_cap_answers_in_time(argv):
    proc = run_cli_subprocess(argv, timeout=30)
    assert proc.returncode == 0, proc.stderr


def test_a_large_prime_is_decided_in_time():
    # the least 19-digit prime: check_prime decides it by Miller-Rabin, not by
    # trial division; a p past arith.PRIMALITY_BOUND is refused with exit 3
    p = 10 ** 18 + 3
    proc = run_cli_subprocess(["zeta", "--p", str(p), "--s", "2", "--x", f"1/{p}",
                               "--prec", "2"], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["zeta"]["prec"] == 2
    proc = run_cli_subprocess(["zeta", "--p", str(PRIMALITY_BOUND), "--s", "2", "--x", "1/3"],
                              timeout=30)
    assert proc.returncode == 3
    assert "decided only below" in json.loads(proc.stderr)["detail"]


@pytest.mark.parametrize("s, x, prec", [(3000, "1/5", 8), (8, "1/25", 6), (10 ** 6, "1/5", 8)])
def test_zeta_far_positive_argument_keeps_its_precision(s, x, prec):
    # vp(omega(x)^(s-1)) = (s-1) vp(x), which the integral's precision must cover;
    # the integral is p^((s-1)h - 1) times a unit, and only the unit's digits are summed
    proc = run_cli_subprocess(["zeta", "--p", "5", "--s", str(s), "--x", x,
                               "--prec", str(prec)], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["zeta"]["prec"] == prec


@pytest.mark.parametrize("argv", [
    ["zeta", "--p", "5", "--s", "2", "--x", "1/5", "--prec", "1000"],
    ["lvalue", "--i", "3", "--p", "5", "--l", "1", "--prec", "1000"],
], ids=["zeta", "lvalue"])
def test_positive_branch_at_the_precision_cap_answers_in_time(argv):
    # the series needs B_j up to j = 1000, from the tangent numbers
    proc = run_cli_subprocess(argv, timeout=8)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, detail", [
    (["integrate", "--expr", "t^-2+t", "--p", "5"],
     "integrand has a pole at t = 0 in Z_p; the Mahler engine needs |c|_p >= q_p = 5 "
     "at every pole"),
    (["integrate", "--expr", "(3+t)^-1", "--p", "3"],
     "integrand has a pole at t = -3 in Z_p; the Mahler engine needs |c|_p >= q_p = 3 "
     "at every pole"),
    (["integrate", "--expr", "(1/2+t)^-1", "--p", "2", "--prec", "4"],
     "integrand has a pole at t = -1/2 with |c|_p = 2; the Mahler engine needs "
     "|c|_p >= q_p = 4 at every pole"),
    (["zeta", "--p", "5", "--s", "2", "--x", "0"], "x must be nonzero"),
    (["zeta", "--p", "3", "--s", "-1", "--x", "1"],
     "|x|_p must be at least 3: got vp(1) = 0 at p = 3"),
    (["zeta", "--p", "2", "--s", "-1", "--x", "1/2"],
     "|x|_p must be at least 4: got vp(1/2) = -1 at p = 2"),
], ids=["pole-at-zero", "pole-in-Zp", "pole-near-Z2", "hurwitz-x-zero",
        "nonpositive-zeta-x-in-Zp", "nonpositive-zeta-x-near-Z2"])
def test_domain_refusals_name_the_pole(capsys, argv, detail):
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and not out
    assert json.loads(err) == {"error": "precondition", "detail": detail}


def test_integrate_domain_violation_exit3(capsys):
    code, out, err = run_cli(capsys, ["integrate", "--expr", "(1/2+t)^-1",
                                      "--p", "2", "--prec", "4"])
    assert code == 3 and not out
    assert json.loads(err)["error"] == "precondition"


@pytest.mark.parametrize("argv", [
    ["zeta", "--p", "5", "--s", "2", "--x", "1/5", "--prec", "0"],
    ["zeta", "--p", "5", "--s", "0", "--x", "1/5", "--prec", "-1"],
    ["lvalue", "--i", "2", "--p", "3", "--l", "1", "--prec", "0"],
    ["integrate", "--expr", "(1/5+t)^-1", "--p", "5", "--prec", "-3"],
])
def test_nonpositive_prec_exit2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and not out
    assert json.loads(err)["error"] == "usage"


def test_integrate_parse_error_exit2(capsys):
    for expr in ("(1/5+t", "t^x", "(1/5+t)%2", "1/0", "(" * 101 + "t" + ")" * 101,
                 "(" * 400 + "t" + ")" * 400, "(1+t)^50*t^451"):
        code, out, err = run_cli(capsys, ["integrate", "--expr", expr, "--p", "5"])
        assert code == 2 and not out
        assert json.loads(err)["error"] == "usage"


def test_integrate_expr_with_leading_minus(capsys):
    code, out, err = run_cli(capsys, ["integrate", "--expr", "-t^2", "--p", "5"])
    assert code == 0, err
    code2, out2, _ = run_cli(capsys, ["integrate", "--expr=-t^2", "--p", "5"])
    assert code2 == 0 and out == out2
    assert json.loads(out)["value"] == {"num": "-1", "den": "6"}


@pytest.mark.parametrize("i,p,prec", [(-1, 3, 12), (-2, 5, 12), (2, 3, 8)])
def test_json_object_character(capsys, i, p, prec):
    spec = '{"modulus": 4, "values": ["1","0","-1","0"]}'
    base = ["lvalue", "--i", str(i), "--p", str(p), "--l", "1", "--prec", str(prec)]
    code, out, err = run_cli(capsys, base + ["--character", spec])
    assert code == 0, err
    code2, out2, _ = run_cli(capsys, base + ["--character", "quadratic:4"])
    assert code2 == 0
    doc, doc2 = json.loads(out), json.loads(out2)
    assert doc["character"] == spec and doc2["character"] == "quadratic:4"
    del doc["character"], doc2["character"]
    assert doc == doc2


QUARTIC_JSON = ('{"modulus": 5, "values": ["1", {"m": 4, "coords": ["0", "1"]}, '
                '{"m": 4, "coords": ["0", "-1"]}, "-1", "0"]}')


def test_exact_lvalue_outside_q_p_and_nonpositive_zeta_precision(capsys):
    # Q(i) does not embed in Q_3, yet L_3(-1, chi omega^2) is exact in Q(i):
    # chi omega^2 = chi is odd, so it is B_(2,chi) = 0; i = 2 needs Q_3 and exits 3
    base = ["lvalue", "--p", "3", "--l", "1", "--character", QUARTIC_JSON, "--i"]
    code, out, err = run_cli(capsys, base + ["-1"])
    assert code == 0, err
    assert json.loads(out)["value"] == {"num": "0", "den": "1"}
    code, out, err = run_cli(capsys, base + ["2"])
    assert code == 3 and not out
    assert json.loads(err)["error"] == "precondition"
    code, out, err = run_cli(capsys, ["zeta", "--p", "3", "--s", "-2", "--x", "2/9",
                                      "--prec", "10"])
    assert code == 0, err
    assert json.loads(out)["value"] == {"p": 3, "val": -1, "unit": "35", "prec": 10}


def test_json_object_character_malformed_exit3(capsys):
    for spec in ('{"modulus": 4', '{"modulus": 4}'):
        code, out, err = run_cli(capsys, ["lvalue", "--i", "-1", "--p", "3", "--l", "1",
                                          "--character", spec])
        assert code == 3 and not out
        assert json.loads(err)["error"] == "precondition"


def test_unknown_flag_exit2(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["zeta", "--p", "5", "--s", "2", "--x", "1/5", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "rate-fit", "--ns", "3,,7"],
    ["verify", "rate-fit", "--ns", "abc"],
    ["nesterenko", "--tau", "x", "--tau1", "1", "--tau2", "0"],
    ["nesterenko", "--tau", "1/0", "--tau1", "1", "--tau2", "0"],
    ["verify", "lambert", "--epsilon", "x"],
    ["zeta", "--p", "5", "--s", "2", "--x", "abc"],
    ["forms", "build", "--p", "2", "--s", "18", "--n", "1", "--hurwitz", "abc"],
    ["forms", "build", "--p", "2", "--s", "18", "--n", "1", "--epsilon", "1/0"],
])
def test_malformed_number_exit2(capsys, argv):
    # argparse's type= functions refuse a malformed number before any command runs
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_nesterenko_command(capsys):
    code, out, _ = run_cli(capsys, ["nesterenko", "--tau", "1",
                                    "--tau1", "1", "--tau2", "0"])
    assert code == 0 and json.loads(out)["bound"] == "1/2"
    # each rate is echoed as typed
    code, out, _ = run_cli(capsys, ["nesterenko", "--tau", "0.5",
                                    "--tau1", "2/4", "--tau2", "0"])
    assert code == 0 and json.loads(out) == {"tau": "0.5", "tau1": "2/4", "tau2": "0",
                                             "bound": "1/2"}
    code, _, err = run_cli(capsys, ["nesterenko", "--tau", "1",
                                    "--tau1", "1", "--tau2", "3"])
    assert code == 3


def test_forms_build_hurwitz(capsys):
    code, out, _ = run_cli(capsys, ["forms", "build", "--p", "2", "--s", "18",
                                    "--n", "1", "--l", "2", "--hurwitz", "9/4",
                                    "--digits", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["x_reduced"] == "1/4" and len(doc["corrections"]) == 2
    assert doc["identity"]["agrees"] is True


@pytest.mark.parametrize("extra", [["--skip-identity"], ["--character", "quadratic:4"],
                                   ["--skip-identity", "--character", "quadratic:4"]])
def test_forms_build_hurwitz_rejects_flags_it_cannot_honour(capsys, extra):
    code, out, err = run_cli(capsys, ["forms", "build", "--hurwitz", "1/4", "--p", "2",
                                      "--s", "18", "--n", "1", "--l", "2"] + extra)
    assert code == 2 and not out
    assert json.loads(err)["error"] == "usage"


def test_rate_fit_with_equal_sigmas_exits_3(capsys):
    code, out, err = run_cli(capsys, ["verify", "rate-fit", "--p", "3", "--s", "82",
                                      "--l", "1", "--ns", "2,2"])
    assert code == 3 and not out
    assert json.loads(err) == {"error": "precondition", "detail": "need at least two "
                               "distinct sigma values to fit a rate"}


@pytest.mark.parametrize("argv", [
    ["verify", "fj-integral", "--p", "2", "--s", "64", "--l", "1", "--n", "3", "--j", "1"],
    ["forms", "build", "--p", "2", "--s", "64", "--l", "1", "--n", "3"],
], ids=["fj-integral", "forms-build"])
def test_integrals_at_p2_depth_1_refuse_with_one_text(capsys, argv):
    # |j/D|_2 = 2 puts the arguments outside the Mahler domain
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert json.loads(err) == {"error": "precondition", "detail": "l too small for "
                               "integral evaluation at p = 2"}


def test_verify_single_checks(capsys):
    code, out, _ = run_cli(capsys, ["verify", "growth", "--p", "2", "--s", "16",
                                    "--l", "1", "--n", "1"])
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    code, out, _ = run_cli(capsys, ["verify", "chi-congruence", "--p", "2",
                                    "--s", "64", "--l", "2", "--n", "3", "--j", "5"])
    assert code == 0


def test_verify_failing_check_exit1(capsys):
    # below the threshold the rate inequality is not certified: exit 1
    code, out, _ = run_cli(capsys, ["verify", "lambert", "--p", "2", "--s", "50",
                                    "--epsilon", "1/2"])
    assert code == 1 and json.loads(out)["verdict"] == "fail"


@pytest.mark.parametrize("epsilon", ["1", "2", "5"])
def test_verify_lambert_refuses_epsilon_at_least_one(capsys, epsilon):
    # the paper's epsilon lies in (0, 1): at epsilon >= 1 the threshold
    # (1 - epsilon) log s is at most 0, and any rates would pass
    code, out, err = run_cli(capsys, ["verify", "lambert", "--p", "2", "--s", "1000",
                                      "--epsilon", epsilon])
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "precondition",
                               "detail": f"need epsilon < 1, got {epsilon}"}


def test_verify_lambert_huge_s(capsys):
    # the Lambert floor never goes through a float, so s = 10^400 works
    code, out, err = run_cli(capsys, ["verify", "lambert", "--p", "2",
                                      "--s", str(10 ** 400), "--epsilon", "1/2"])
    assert code == 0 and not err
    doc = json.loads(out)
    assert doc["verdict"] == "pass" and doc["params"]["ell"] == 657


def test_verify_all_requires_catalog(capsys):
    code, _, err = run_cli(capsys, ["verify", "all"])
    assert code == 3


def test_cli_determinism(capsys):
    argv = ["zeta", "--p", "5", "--s", "2", "--x", "1/5", "--prec", "6"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1.encode() == out2.encode()
    argv2 = ["verify", "growth", "--p", "2", "--s", "16", "--l", "1", "--n", "1"]
    _, g1, _ = run_cli(capsys, argv2)
    _, g2, _ = run_cli(capsys, argv2)
    assert g1.encode() == g2.encode()


def test_verify_all_catalog_exit0(capsys):
    # the full fixture catalog through the CLI: one report line per check,
    # every verdict pass, exit code 0
    code, out, err = run_cli(capsys, ["verify", "all", "--catalog",
                                      "--digits", "20"])
    assert code == 0, err
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) >= 12
    assert all(doc["verdict"] == "pass" for doc in lines)
    names = {doc["check"] for doc in lines}
    assert {"valuation-formula", "fj-integral", "chi-congruence", "growth-bound",
            "integrality", "form-identity", "hurwitz-identity"} <= names


def test_json_codecs_roundtrip():
    assert rational_from_json(rational_to_json(Q(-7, 3))) == Q(-7, 3)
    assert rational_from_json("5/4") == Q(5, 4)
    x = CyclotomicElement(4, [Q(1, 2), Q(-3)])
    assert cyclotomic_from_json(cyclotomic_to_json(x)) == x
    p = Padic.from_fraction(Q(9, 5), 5, 4)
    assert p.to_json() == {"p": 5, "val": -1, "unit": str(p.unit), "prec": 4}
    assert dumps({"a": Q and 1}) == '{"a":1}'


def test_parser_is_built_once_per_process(capsys):
    assert cli.build_parser() is cli.build_parser()
    cli.build_parser.cache_clear()
    requests = [["nesterenko", "--tau", "1", "--tau1", "1", "--tau2", "0"],
                ["zeta", "--p", "5", "--s", "0", "--x", "1/5"],
                ["integrate", "--expr", "t^2", "--p", "5"],
                ["verify", "all"]]
    for argv in requests:
        run_cli(capsys, argv)
    info = cli.build_parser.cache_info()
    assert info.misses == 1 and info.hits == len(requests) - 1


# every subcommand, and every flag whose value comes from its default when it
# is left out: --engine, --omega-exp, forms build --l, --skip-identity,
# --catalog and --timings; one argparse rejection and one size-cap rejection
ORACLE_REQUESTS = [
    ["integrate", "--expr", "(1/3+t)^-1*(2/9+t)^-2", "--p", "3", "--prec", "6"],
    ["integrate", "--expr", "-t^3+2*t", "--p", "5"],
    ["integrate", "--expr", "(1/4+t)^-1", "--p", "2", "--engine", "riemann",
     "--level", "5", "--prec", "6"],
    ["integrate", "--expr", "t^-2+t", "--p", "5"],
    ["zeta", "--p", "5", "--s", "2", "--x", "1/5", "--prec", "6"],
    ["zeta", "--p", "3", "--s", "-2", "--x", "1/3"],
    ["lvalue", "--i", "-1", "--p", "5", "--l", "1"],
    ["lvalue", "--i", "2", "--p", "3", "--l", "1", "--omega-exp", "0", "--prec", "6"],
    ["forms", "build", "--p", "2", "--s", "18", "--n", "1", "--epsilon", "1/2",
     "--skip-identity"],
    ["forms", "build", "--p", "2", "--s", "18", "--n", "1", "--l", "2", "--digits", "6"],
    ["forms", "build", "--p", "2", "--s", "18", "--n", "1", "--l", "2", "--hurwitz", "9/4",
     "--digits", "6"],
    ["verify", "growth", "--p", "2", "--s", "16", "--l", "1", "--n", "1", "--timings"],
    ["verify", "growth", "--p", "2", "--s", "16", "--l", "1", "--n", "1"],
    ["verify", "all"],
    ["verify", "integrality", "--count", "2"],
    ["nesterenko", "--tau", "1", "--tau1", "1", "--tau2", "0"],
    ["zeta", "--p", "5", "--s", "2", "--x", "1/5", "--bogus"],
    ["zeta", "--p", "5", "--s", "2", "--x", "1/5", "--prec", "0"],
    ["--help"],
]


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one dispatch, with runtime_s blanked."""
    try:
        code = dispatch(argv)
    except SystemExit as exc:   # argparse rejected the request, or --help
        code = exc.code
    out, err = capsys.readouterr()
    blank = re.compile(r'"runtime_s":[^,}]*')
    return code, blank.sub('"runtime_s":0', out), blank.sub('"runtime_s":0', err)


def test_verify_integrality_reads_no_character_flags(capsys):
    # the sweep draws its own configurations, so flags that choose_params or
    # character_from_spec would refuse must not reach them
    base = ["verify", "integrality", "--count", "1"]
    want = run_cli(capsys, base)
    assert want[0] == 0 and want[1] and not want[2]
    for flags in (["--p", "2", "--l", "1", "--character", "quadratic:4"],
                  ["--character", "bogus"]):
        assert run_cli(capsys, base + flags) == want, flags


def test_shared_parser_answers_as_a_fresh_parser_in_any_order(capsys, monkeypatch):
    # the oracle builds a new parser for every request
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        want = {tuple(argv): _outcome(capsys, argv) for argv in ORACLE_REQUESTS}
    assert {code for code, _, _ in want.values()} == {0, 2, 3}
    for seed in (1, 2):
        order = ORACLE_REQUESTS[:]
        random.Random(seed).shuffle(order)
        for argv in order:
            assert _outcome(capsys, argv) == want[tuple(argv)], argv
