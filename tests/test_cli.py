import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import padicforms
from padicforms.cli import dispatch
from padicforms.cyclotomic import CyclotomicElement
from padicforms.jsonio import (cyclotomic_from_json, cyclotomic_to_json, dumps,
                               rational_from_json, rational_to_json)
from padicforms.padic import Padic
from padicforms.volkenborn import integral_pole_power


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
    # a subprocess with a timeout, so that a slow root search fails the test
    # instead of hanging the suite
    src = str(Path(padicforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "padicforms.cli", "integrate",
            "--expr", f"({x}+t)^-{k}", "--p", str(p), "--prec", str(prec)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == integral_pole_power(x, k, p, prec).to_json()


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
    for expr in ("(1/5+t", "t^x", "(1/5+t)%2"):
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


def test_nesterenko_command(capsys):
    code, out, _ = run_cli(capsys, ["nesterenko", "--tau", "1",
                                    "--tau1", "1", "--tau2", "0"])
    assert code == 0 and json.loads(out)["bound"] == "1/2"
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
