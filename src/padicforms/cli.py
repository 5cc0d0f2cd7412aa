"""Command-line front end: integrate, zeta, lvalue, forms, verify, nesterenko.

Values are emitted as newline-delimited JSON with rationals as strings.
Exit codes: 0 success, 1 a check failed, 2 usage error, 3 precondition or
domain violation.

The argument parser is built once per process, on the first dispatch, and
serves every later request. Sharing it is safe: every default is an int, a
str, None or False, and the choices lists are only read; argparse parses a
subcommand into a fresh namespace and copies it out, so no value carries
over from one request to the next; and usage errors and --help look up
sys.stdout and sys.stderr when they print, so redirected streams still work.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache

from .catalog import (check_config_integrality, random_small_configurations,
                      run_catalog)
from .characters import character_from_spec
from .errors import DomainError, PrecisionError
from .forms import choose_params, form_identity, hurwitz_variant_form, lvalue_family
from .hurwitz import lp_value, zeta_p_nonpos, zeta_p_pos
from .jsonio import dumps, rational_to_str, value_to_json
from .padic import Padic
from .polynomials import MAX_POWER_DEGREE, parse_rational_function
from .verification import (check_chi_congruence, check_fj_integral,
                           check_valuation_formula, form_sequence,
                           growth_bound_check, lambert_inequality_check)
from .heights import dimension_bound, fit_rates
from .volkenborn import integral_mahler, integral_riemann

Q = Fraction

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

MAX_PREC = 1000       # --prec, --digits, --count and the unit shifts of --hurwitz
MAX_TERMS = 2 ** 16   # p^--level (Riemann sum terms) and p^--l
MAX_TABLE = 2 ** 18   # s^2 (n+1) of forms build and of the SIZED_CHECKS
MAX_MODULUS = 1000    # the modulus of --character and the m of its values
SIZED_CHECKS = ("chi-congruence", "fj-integral", "valuation", "growth", "rate-fit")


def _emit(obj) -> None:
    sys.stdout.write(dumps(obj) + "\n")


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(dumps({"error": kind, "detail": message}) + "\n")
    return code


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use (see the module doc)."""
    top = argparse.ArgumentParser(prog="padicforms")
    sub = top.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="Volkenborn integral of a rational function")
    p_int.add_argument("--expr", required=True)
    p_int.add_argument("--p", type=int, required=True)
    p_int.add_argument("--engine", choices=["mahler", "riemann"], default="mahler")
    p_int.add_argument("--prec", type=int, default=12)
    p_int.add_argument("--level", type=int, default=6, help="Riemann level")

    p_zeta = sub.add_parser("zeta", help="p-adic Hurwitz zeta value")
    p_zeta.add_argument("--p", type=int, required=True)
    p_zeta.add_argument("--s", type=int, required=True)
    p_zeta.add_argument("--x", required=True)
    p_zeta.add_argument("--prec", type=int, default=12)

    p_lv = sub.add_parser("lvalue", help="Kubota-Leopoldt style L-value")
    p_lv.add_argument("--i", type=int, required=True)
    p_lv.add_argument("--character", default="trivial")
    p_lv.add_argument("--p", type=int, required=True)
    p_lv.add_argument("--l", type=int, required=True)
    p_lv.add_argument("--omega-exp", type=int, default=None)
    p_lv.add_argument("--prec", type=int, default=12)

    p_forms = sub.add_parser("forms", help="build linear forms")
    forms_sub = p_forms.add_subparsers(dest="forms_command", required=True)
    p_build = forms_sub.add_parser("build")
    p_build.add_argument("--p", type=int, required=True)
    p_build.add_argument("--s", type=int, required=True)
    p_build.add_argument("--l", type=int, default=None)
    p_build.add_argument("--character", default="trivial")
    p_build.add_argument("--n", type=int, required=True)
    p_build.add_argument("--epsilon", default=None)
    p_build.add_argument("--hurwitz", default=None, metavar="X",
                         help="Hurwitz-variant mode at the rational X")
    p_build.add_argument("--digits", type=int, default=20)
    p_build.add_argument("--skip-identity", action="store_true")

    p_ver = sub.add_parser("verify", help="run checks")
    p_ver.add_argument("check", choices=["all", "chi-congruence", "fj-integral",
                                         "valuation", "growth", "integrality",
                                         "lambert", "rate-fit"])
    p_ver.add_argument("--catalog", action="store_true")
    p_ver.add_argument("--p", type=int, default=2)
    p_ver.add_argument("--s", type=int, default=64)
    p_ver.add_argument("--l", type=int, default=2)
    p_ver.add_argument("--n", type=int, default=3)
    p_ver.add_argument("--j", type=int, default=1)
    p_ver.add_argument("--character", default="trivial")
    p_ver.add_argument("--epsilon", default="1/2")
    p_ver.add_argument("--count", type=int, default=50)
    p_ver.add_argument("--ns", default="3,7,11")
    p_ver.add_argument("--digits", type=int, default=20)
    p_ver.add_argument("--timings", action="store_true")

    p_nest = sub.add_parser("nesterenko", help="dimension lower bound from rates")
    p_nest.add_argument("--tau", required=True)
    p_nest.add_argument("--tau1", required=True)
    p_nest.add_argument("--tau2", required=True)
    return top


def _cmd_integrate(args) -> int:
    try:
        f = parse_rational_function(args.expr)
    except ValueError as exc:
        return _fail("usage", str(exc), EXIT_USAGE)
    if args.engine == "mahler":
        value = integral_mahler(f, args.p, args.prec)
        precision = None if isinstance(value, Fraction) else value.prec
    else:
        value = integral_riemann(f, args.p, args.level, args.prec)
        precision = value.prec
    _emit({"engine": args.engine, "value": value_to_json(value),
           "precision": precision})
    return EXIT_OK


def _cmd_zeta(args) -> int:
    x = Q(args.x)
    if args.s >= 2:
        out = zeta_p_pos(args.s, x, args.p, args.prec)
        _emit({"s": args.s, "x": rational_to_str(x), "p": args.p,
               "zeta": value_to_json(out.zeta), "twisted": value_to_json(out.twisted)})
    elif args.s <= 0:
        split = zeta_p_nonpos(args.s, x, args.p)
        exact = split.exact()
        _emit({"s": args.s, "x": rational_to_str(x), "p": args.p,
               "omega_base": rational_to_str(split.base),
               "omega_exponent": split.exponent,
               "rational_part": rational_to_str(split.rational),
               "exact": None if exact is None else rational_to_str(exact),
               "value": value_to_json(split.padic(args.prec))})
    else:
        return _fail("precondition", "s = 1 is the pole", EXIT_PRECONDITION)
    return EXIT_OK


def _cmd_lvalue(args) -> int:
    chi = character_from_spec(args.character)
    value = lp_value(args.i, chi, args.p, args.l, omega_exp=args.omega_exp,
                     precision=args.prec)
    _emit({"i": args.i, "character": args.character, "p": args.p, "l": args.l,
           "omega_exp": args.omega_exp if args.omega_exp is not None else 1 - args.i,
           "exact": not isinstance(value, Padic),
           "value": value_to_json(value)})
    return EXIT_OK


def _cmd_forms_build(args) -> int:
    epsilon = None if args.epsilon is None else Q(args.epsilon)
    if args.hurwitz is not None:
        if args.skip_identity or args.character != "trivial":
            return _fail("usage", "--hurwitz takes neither --skip-identity nor "
                         "a --character", EXIT_USAGE)
        rep = hurwitz_variant_form(args.p, Q(args.hurwitz), args.s,
                                   epsilon=epsilon, n=args.n, l=args.l,
                                   digits=args.digits)
        _emit({
            "mode": "hurwitz",
            "parameters": rep.params.to_json(),
            "x_reduced": rational_to_str(rep.x_reduced),
            "j0": rep.j0,
            "corrections": [[rational_to_str(y), sign] for y, sign in rep.corrections],
            "omega_j0": None if rep.omega_rational is None
            else rational_to_str(rep.omega_rational),
            "lambda": [rational_to_str(c) for c in rep.coeffs_rational],
            "identity": rep.identity.to_json(),
        })
        return EXIT_OK
    chi = character_from_spec(args.character)
    params = choose_params(chi, args.p, args.s, epsilon=epsilon, l=args.l)
    family = lvalue_family(params, chi, args.n)
    out = {
        "mode": "lvalue",
        "parameters": params.to_json(),
        "lambda": [value_to_json(c) if not isinstance(c, Fraction)
                   else rational_to_str(c) for c in family.form.coeffs],
    }
    if not args.skip_identity:
        out["identity"] = form_identity(family, args.digits).to_json()
    _emit(out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = []
    if args.check == "all":
        if not args.catalog:
            return _fail("precondition", "verify all requires --catalog",
                         EXIT_PRECONDITION)
        reports = list(run_catalog(digits=args.digits))
    elif args.check == "integrality":
        # the sweep draws its own configurations, so it reads no character flags
        configs = random_small_configurations(count=args.count)
        reports = [check_config_integrality(cfg) for cfg in configs]
    elif args.check == "lambert":
        chi = character_from_spec(args.character)
        reports = [lambert_inequality_check(chi, args.p, args.s, Q(args.epsilon))]
    else:
        chi = character_from_spec(args.character)
        params = choose_params(chi, args.p, args.s, l=args.l)
        if args.check == "chi-congruence":
            reports = [check_chi_congruence(params, args.n, args.j, range(64))]
        elif args.check == "fj-integral":
            reports = [check_fj_integral(lvalue_family(params, chi, args.n), args.j)]
        elif args.check == "valuation":
            reports = [check_valuation_formula(params, args.n, chi)]
        elif args.check == "growth":
            reports = [growth_bound_check(lvalue_family(params, chi, args.n))]
        elif args.check == "rate-fit":
            ns = [int(v) for v in args.ns.split(",")]
            points = form_sequence(params, chi, ns)
            fit = fit_rates([(pt.sigma, pt.log_height, pt.nu_lambda) for pt in points],
                            args.p)
            _emit({"points": [{"n": pt.n, "sigma": pt.sigma,
                               "log_height": pt.log_height,
                               "nu_lambda": pt.nu_lambda} for pt in points],
                   "tau_hat": fit.tau_hat, "tau_p_hat": fit.tau_p_hat})
            return EXIT_OK
    all_pass = True
    for rep in reports:
        _emit(rep.to_json(include_runtime=args.timings))
        all_pass = all_pass and rep.verdict
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _cmd_nesterenko(args) -> int:
    bound = dimension_bound(Q(args.tau), Q(args.tau1), Q(args.tau2))
    _emit({"tau": args.tau, "tau1": args.tau1, "tau2": args.tau2,
           "bound": rational_to_str(bound)})
    return EXIT_OK


def _size_error(args) -> str | None:
    """Why the request lies outside the CLI's size limits, or None."""
    for flag in ("prec", "digits", "count"):
        value = getattr(args, flag, 1)
        if not 1 <= value <= MAX_PREC:
            return f"--{flag} must lie in 1..{MAX_PREC}, got {value}"
    if args.command in ("zeta", "lvalue"):
        # the nonpositive branch builds the Bernoulli polynomial B_(1-s), B_(1-i)
        flag, k = ("--s", args.s) if args.command == "zeta" else ("--i", args.i)
        if 1 - k > MAX_POWER_DEGREE:
            return (f"need {flag} >= {1 - MAX_POWER_DEGREE}: the Bernoulli index "
                    f"1 - {flag[2:]} is at most {MAX_POWER_DEGREE}, got {k}")
    check = getattr(args, "check", None)
    if args.command in ("lvalue", "forms") or check not in (None, "all", "integrality"):
        # only these requests build the character
        error = _character_error(args.character)
        if error:
            return error
    sized = args.command == "forms" or check in SIZED_CHECKS
    if getattr(args, "hurwitz", None) and abs(math.ceil(Q(args.hurwitz)) - 1) > MAX_PREC:
        return f"--hurwitz {args.hurwitz} needs over {MAX_PREC} unit shifts into (0, 1]"
    ns = args.ns.split(",") if check == "rate-fit" else [getattr(args, "n", 0)]
    if sized and any(args.s ** 2 * (int(n) + 1) > MAX_TABLE for n in ns):
        return f"need s^2 (n+1) <= {MAX_TABLE} at --s {args.s} for every --n (--ns)"
    if args.command == "integrate" and args.engine == "riemann":
        flag, k = "--level", args.level
    elif args.command == "lvalue" or sized and args.l is not None:
        flag, k = "--l", args.l
    else:
        return None
    # for k > 64, p^k > MAX_TERMS at every p >= 2, so p^k is never formed
    if not 0 <= k <= 64 or args.p ** k > MAX_TERMS:
        return f"need 0 <= {flag} with p^{flag} <= {MAX_TERMS}, got {args.p}^{k}"
    return None


def _character_error(spec: str) -> str | None:
    """Why a --character spec is too large to build, read before it is built:
    its modulus and the m of each value over Q(zeta_m) must be at most
    MAX_MODULUS. None also for a spec that names no modulus, which
    character_from_spec refuses."""
    if spec.startswith("quadratic:"):
        modulus, m = int(spec.split(":", 1)[1]), 0
    else:
        try:
            obj = json.loads(spec)
            modulus = int(obj["modulus"])
            m = max((int(v["m"]) for v in obj["values"] if isinstance(v, dict)), default=0)
        except (ValueError, KeyError, TypeError):
            return None
    if modulus > MAX_MODULUS:
        return f"the --character modulus must be at most {MAX_MODULUS}, got {modulus}"
    if m > MAX_MODULUS:
        return f"a --character value lies in Q(zeta_m) with m = {m} > {MAX_MODULUS}"
    return None


def dispatch(argv: list[str]) -> int:
    """Run one request and return its exit code.

    Every request is parsed by the same cached build_parser(), so a small
    request pays for parse_args but not for building the parser again.
    """
    argv = list(argv)
    if "--expr" in argv[:-1]:
        # argparse reads a value such as "-t^2" as an option: glue it on
        at = argv.index("--expr")
        argv[at:at + 2] = [f"--expr={argv[at + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        size_error = _size_error(args)
        if size_error:
            return _fail("usage", size_error, EXIT_USAGE)
        if args.command == "integrate":
            return _cmd_integrate(args)
        if args.command == "zeta":
            return _cmd_zeta(args)
        if args.command == "lvalue":
            return _cmd_lvalue(args)
        if args.command == "forms":
            return _cmd_forms_build(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "nesterenko":
            return _cmd_nesterenko(args)
        return _fail("usage", f"unknown command {args.command}", EXIT_USAGE)
    except (DomainError, PrecisionError, ZeroDivisionError, ValueError) as exc:
        return _fail("precondition", str(exc), EXIT_PRECONDITION)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
