"""The three workloads: seeded inputs, one timed call per item, and output checks.

A workload object is built from a seed. `items` is the fixed set of
operations one round attempts; `run(item)` makes the timed call into the
program and `check(item, output)` judges the output against `refs` (or
against an output of the same item already judged in this run, which the
program must reproduce exactly). Program functions are always looked up
through their modules, so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from padicforms import (catalog, characters, cli, forms, hurwitz, jsonio,
                        verification)

import refs

Q = Fraction
DIGITS = 20          # significant p-digits every identity must reach
SAMPLE_PREC = 100    # precision of the sampled lp_value check


class Failure(Exception):
    """The program returned without error, but its output is wrong."""


def padic_value(obj: dict) -> tuple[int, Fraction, int]:
    """(p, value, prec) of a Padic, from the object or its JSON form."""
    if isinstance(obj, dict):
        p, val, unit, prec = obj["p"], obj["val"], int(obj["unit"]), obj["prec"]
    else:
        p, val, unit, prec = obj.p, obj.val, obj.unit, obj.prec
    return p, (Q(0) if val is None else Q(p) ** val * unit), prec


def agrees(obj, ref: Fraction, p: int, min_prec: int | None = None) -> bool:
    """The p-adic value matches ref modulo p^(its stated precision).

    With min_prec, the stated precision must also reach that many digits.
    """
    q, value, prec = padic_value(obj)
    if q != p or (min_prec is not None and prec < min_prec):
        return False
    return refs.vp(value - ref, p) >= prec


def _integral(c) -> bool:
    return Q(c).denominator == 1


def _balanced(rng: random.Random, choices: tuple, count: int) -> list:
    """count picks that use each choice equally often (to within one), in seeded order.

    Characters and numerators do not cost quite alike, so a class keeps the
    same number of each whatever the seed.
    """
    offset = rng.randrange(len(choices))
    picks = [choices[(k + offset) % len(choices)] for k in range(count)]
    rng.shuffle(picks)
    return picks


# -- certify -----------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyItem:
    kind: str            # "L", "hurwitz" or "catalog"
    p: int
    l: int
    s: int
    n: int
    spec: str = "trivial"
    x: Fraction | None = None
    sample_i: int = 2    # L items: which lp_value to check against the series

    @property
    def key(self) -> str:
        who = self.spec if self.x is None else f"x={self.x}"
        return f"{self.kind}:{who}:p{self.p}:l{self.l}:s{self.s}:n{self.n}"


# (kind, specs or Hurwitz numerators, p, l, n, the s of each item). Sizes are
# fixed, so every seed gives a round the same work and the same spread of item
# times; the seed picks which items get which character or numerator, the
# catalog shape, the sampled lp_value and the order.
CERTIFY_CLASSES = (
    ("L", ("trivial",), 2, 2, 1, (18, 20, 22, 24, 26)),
    ("L", ("quadratic:4",), 2, 2, 1, (19, 21, 23, 25)),
    ("L", ("trivial", "quadratic:4"), 2, 2, 3, (27,)),
    ("L", ("trivial",), 3, 1, 2, (20, 23, 26)),
    ("L", ("trivial",), 3, 1, 1, (31,)),
    ("hurwitz", (1, 3), 2, 2, 1, (17, 19, 22, 25)),
    ("hurwitz", (1, 2), 3, 1, 2, (19, 22, 25)),
    ("hurwitz", (1, 2), 3, 1, 1, (30,)),
)
# catalog-sized shapes where the paper's hypotheses hold: (spec, p, l, s, n)
CATALOG_SHAPES = (("trivial", 2, 2, 64, 3), ("quadratic:4", 2, 2, 64, 3),
                  ("trivial", 3, 1, 82, 2))


class Certify:
    """Whole linear forms, each certified to DIGITS significant digits."""

    name = "certify"
    percentile = 80
    min_items = 50

    def __init__(self, seed: int, bern: refs.Bernoulli):
        rng = random.Random(seed)
        self.bern = bern
        self.verified: dict[str, object] = {}
        items = []
        for kind, choices, p, l, n, sizes in CERTIFY_CLASSES:
            for s, pick in zip(sizes, _balanced(rng, choices, len(sizes))):
                if kind == "L":
                    items.append(CertifyItem("L", p, l, s, n, spec=pick,
                                             sample_i=rng.randint(2, s + 1)))
                else:
                    items.append(CertifyItem("hurwitz", p, l, s, n, x=Q(pick, p ** l)))
        spec, p, l, s, n = rng.choice(CATALOG_SHAPES)
        items.append(CertifyItem("catalog", p, l, s, n, spec=spec))
        self.items = items

    def run(self, item: CertifyItem):
        if item.kind == "hurwitz":
            return forms.hurwitz_variant_form(item.p, item.x, item.s, n=item.n,
                                              l=item.l, digits=DIGITS)
        chi = characters.character_from_spec(item.spec)
        params = forms.choose_params(chi, item.p, item.s, l=item.l)
        rn = forms.build_rn(params, item.n)
        table = forms.partial_fractions(rn)
        form = forms.lambda_form(params, table, chi)
        if item.kind == "catalog":
            report = verification.check_valuation_formula(params, item.n, chi,
                                                          rn=rn, table=table)
        else:
            report = forms.evaluate_form_identity(params, item.n, chi, digits=DIGITS,
                                                  table=table, rn=rn)
        return params, table, form, report

    def check(self, item: CertifyItem, out) -> None:
        if item.kind == "hurwitz":
            ident = out.identity
            fingerprint = (ident.lhs, ident.rhs, out.coeffs_rational)
            if not (ident.agrees and ident.relative_digits >= DIGITS):
                raise Failure(f"identity holds to {ident.relative_digits} digits")
            if not all(_integral(c) for c in out.coeffs_rational):
                raise Failure("a lambda coefficient is not integral")
        else:
            params, table, form, report = out
            if item.kind == "catalog":
                fingerprint = (report.observed, table.rows, form.coeffs)
            else:
                fingerprint = (report.lhs, report.rhs, table.rows, form.coeffs)
                if not (report.agrees and report.relative_digits >= DIGITS):
                    raise Failure(f"identity holds to {report.relative_digits} digits")
            if not all(_integral(c) for c in form.coeffs):
                raise Failure("a lambda coefficient is not integral")
        seen = self.verified.get(item.key)
        if seen is not None:
            if seen != fingerprint:
                raise Failure("output differs from the verified output of the same item")
            return
        self._check_against_refs(item, out)
        self.verified[item.key] = fingerprint

    def _check_against_refs(self, item: CertifyItem, out) -> None:
        shape = refs.RnShape(item.p, item.s, item.l, item.n,
                             spec=None if item.x is not None else item.spec,
                             x=item.x, bern=self.bern)
        params = out.params if item.kind == "hurwitz" else out[0]
        if (params.Q, params.D, params.delta, params.r, params.N(item.n)) != \
                (shape.Q, shape.D, shape.delta, shape.r, shape.N):
            raise Failure("parameters differ from the reference derivation")
        if item.kind == "hurwitz":
            if out.x_reduced != item.x:
                raise Failure("x was moved although it lies in (0, 1]")
            return
        _, table, _, report = out
        for t in (Q(1, 3), Q(7, 5)):
            if refs.reconstruct(table.rows, t) != shape.value(t):
                raise Failure(f"partial fractions do not reconstruct R_n at {t}")
        if item.kind == "catalog":
            if not (report.verdict and int(report.observed) == shape.valuation_formula()):
                raise Failure(f"valuation {report.observed}, closed formula "
                              f"{shape.valuation_formula()}")
            return
        chi = characters.character_from_spec(item.spec)
        value = hurwitz.lp_value(item.sample_i, chi, item.p, item.l,
                                 precision=SAMPLE_PREC)
        ref = refs.lvalue_positive(item.sample_i, item.spec, item.p, item.l,
                                   SAMPLE_PREC, self.bern)
        if not agrees(value, ref, item.p, SAMPLE_PREC):
            raise Failure(f"lp_value({item.sample_i}) differs from the Bernoulli series")


# -- integrality ---------------------------------------------------------------------


@dataclass(frozen=True)
class IntegralityItem:
    mode: str            # "L" or "hurwitz"
    p: int
    l: int
    s: int
    n: int
    spec: str = "trivial"
    x: Fraction | None = None

    @property
    def key(self) -> str:
        who = self.spec if self.x is None else f"x={self.x}"
        return f"{self.mode}:{who}:p{self.p}:l{self.l}:s{self.s}:n{self.n}"


# (mode, specs or Hurwitz numerators, p, l, n, items per round); s is the least
# value with deg R_n <= -2, rounded up to a multiple of p - 1, plus one step for
# every other item. The seed picks which items get which character or numerator.
INTEGRALITY_CLASSES = (
    ("L", ("trivial",), 2, 1, 1, 3),
    ("L", ("trivial",), 2, 1, 2, 3),
    ("L", ("trivial", "quadratic:4"), 2, 2, 1, 6),
    ("L", ("trivial", "quadratic:4"), 2, 2, 2, 6),
    ("L", ("quadratic:3",), 2, 1, 1, 4),
    ("L", ("trivial", "quadratic:3"), 3, 1, 1, 6),
    ("L", ("trivial", "quadratic:3"), 3, 1, 2, 6),
    ("hurwitz", (1, 3), 2, 2, 1, 4),
    ("hurwitz", (1, 3), 2, 2, 2, 4),
    ("hurwitz", (1, 2), 3, 1, 1, 4),
    ("hurwitz", (1, 2), 3, 1, 2, 4),
    ("hurwitz", (1, 2, 3, 4), 5, 1, 1, 1),
)


class Integrality:
    """Random small configurations: R_n, its partial fractions, integrality."""

    name = "integrality"
    percentile = 90
    min_items = 100

    def __init__(self, seed: int, bern: refs.Bernoulli):
        rng = random.Random(seed)
        self.bern = bern
        self.verified: dict[str, bool] = {}
        self.items = []
        self.configs = {}
        for mode, choices, p, l, n, count in INTEGRALITY_CLASSES:
            bumps = (k % 2 for k in range(count))   # every other item a step larger
            for bump, pick in zip(bumps, _balanced(rng, choices, count)):
                spec = pick if mode == "L" else None
                x = None if mode == "L" else Q(pick, p ** l)
                shape = refs.RnShape(p, 1, l, n, spec=spec, x=x, bern=bern)
                lowest = -(-(shape.Q * shape.N + 4 + shape.delta) // (n + 1))
                step = p - 1 if p > 2 else 1
                s = -(-lowest // step) * step + step * bump
                item = IntegralityItem(mode, p, l, s, n, spec=spec or "trivial", x=x)
                self.items.append(item)
                self.configs[item] = self._config(item)

    @staticmethod
    def _config(item: IntegralityItem):
        if item.mode == "L":
            chi = characters.character_from_spec(item.spec)
            params = forms.choose_params(chi, item.p, item.s, l=item.l)
            return catalog.RandomConfig(params=params, n=item.n, mode="L", chi=chi)
        params, _ = forms.hurwitz_params(item.x, item.p, item.s, l=item.l)
        return catalog.RandomConfig(params=params, n=item.n, mode="hurwitz", x0=item.x)

    def run(self, item: IntegralityItem):
        return catalog.check_config_integrality(self.configs[item])

    def check(self, item: IntegralityItem, report) -> None:
        if not report.verdict:
            raise Failure(f"integrality verdict failed: {report.observed}")
        if item.key in self.verified:
            return
        # the table is rebuilt outside the timed call, once per item and run
        params = self.configs[item].params
        shape = refs.RnShape(item.p, item.s, item.l, item.n,
                             spec=item.spec if item.mode == "L" else None,
                             x=item.x, bern=self.bern)
        if (params.Q, params.D, params.N(item.n)) != (shape.Q, shape.D, shape.N):
            raise Failure("parameters differ from the reference derivation")
        table = forms.partial_fractions(forms.build_rn(params, item.n))
        t = Q(2, 7)
        if refs.reconstruct(table.rows, t) != shape.value(t):
            raise Failure(f"partial fractions do not reconstruct R_n at {t}")
        self.verified[item.key] = True


# -- queries ------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    data: tuple = ()

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# A JSON-object character equal to quadratic:4, as the README documents it.
JSON_CHARACTER = '{"modulus": 4, "values": ["1","0","-1","0"]}'
# Requests with that character; their inputs never depend on the seed.
JSON_CHARACTER_REQUESTS = ((-1, 3, 1, 12), (-2, 5, 1, 12), (2, 3, 1, 8))

PRIMES = (2, 3, 5, 7)
# per round: kind -> count; JSON-character requests come on top
QUERY_MIX = (("zeta_pos", 60), ("zeta_nonpos", 40), ("lvalue_nonpos", 40),
             ("lvalue_pos", 40), ("integrate_poles", 40), ("integrate_poly", 25),
             ("integrate_riemann", 25), ("nesterenko", 15))


def _hurwitz_x(rng: random.Random, p: int) -> Fraction:
    """a / p^h with |x|_p >= q_p and a a unit."""
    h = 2 if p == 2 else rng.randint(1, 2 if p < 7 else 1)
    while True:
        a = rng.randint(1, 2 * p ** h)
        if a % p:
            return Q(a, p ** h)


def _pole_terms(rng: random.Random, p: int, count: int):
    """Terms (c, x, k) of sum c (x+t)^-k with small denominators."""
    terms = []
    budget = 12 if p == 2 else (7 if p == 3 else 5)   # keeps p^(sum h k) small
    while len(terms) < count:
        x = _hurwitz_x(rng, p)
        if any(x == y for _, y, _ in terms):
            continue
        h = -refs.vp(x, p)
        k = rng.randint(1, max(1, min(4, budget // h)))
        budget -= h * k
        if budget < 0:
            break
        terms.append((rng.choice((1, 2, 3, -1, -2)), x, k))
    return terms


def _expr(terms, poly) -> str:
    parts = []
    for c, x, k in terms:
        parts.append((c, f"{abs(c)}*({x}+t)^-{k}"))
    for e, c in poly:
        parts.append((c, f"{abs(c)}*t^{e}" if e else str(abs(c))))
    text = ""
    for c, part in parts:
        if not text:
            text = part if c > 0 else "-" + part
        else:
            text += (" + " if c > 0 else " - ") + part
    return text


class Queries:
    """Small independent requests through cli.dispatch in one process."""

    name = "queries"
    percentile = 99
    min_items = 1000

    def __init__(self, seed: int, bern: refs.Bernoulli):
        rng = random.Random(seed)
        self.bern = bern
        self.verified: dict[str, str] = {}
        self.items = []
        for kind, count in QUERY_MIX:
            for k in range(count):
                self.items.append(getattr(self, "_make_" + kind)(rng, k))
        for i, p, l, prec in JSON_CHARACTER_REQUESTS:
            self.items.append(Request(
                "lvalue_json", ("lvalue", "--i", str(i), "--p", str(p), "--l", str(l),
                                "--prec", str(prec), "--character", JSON_CHARACTER),
                (i, "quadratic:4", p, l, prec)))

    # request builders: the k-th request of a kind cycles through the primes
    # (and characters), so every seed gets the same number of each

    def _make_zeta_pos(self, rng, k):
        p = PRIMES[k % 4]
        x, s, prec = _hurwitz_x(rng, p), rng.randint(2, 8), rng.randint(6, 16)
        return Request("zeta_pos", ("zeta", "--p", str(p), "--s", str(s), "--x", str(x),
                                    "--prec", str(prec)), (p, s, x, prec))

    def _make_zeta_nonpos(self, rng, k):
        p = PRIMES[k % 4]
        x, s, prec = _hurwitz_x(rng, p), rng.randint(-8, 0), rng.randint(6, 12)
        return Request("zeta_nonpos", ("zeta", "--p", str(p), "--s", str(s), "--x", str(x),
                                       "--prec", str(prec)), (p, s, x, prec))

    @staticmethod
    def _lvalue_request(kind, i, spec, p, prec):
        f0 = refs.conductor(refs.character_table(spec))
        l0 = refs.vp(f0, p) if f0 > 1 else 0
        l = max(1, l0, 2 if (p == 2 and i >= 2) else 1)
        return Request(kind, ("lvalue", "--i", str(i), "--p", str(p), "--l", str(l),
                              "--prec", str(prec), "--character", spec),
                       (i, spec, p, l, prec))

    def _make_lvalue_nonpos(self, rng, k):
        spec = ("trivial", "quadratic:3", "quadratic:4", "quadratic:5", "quadratic:8")[k % 5]
        return self._lvalue_request("lvalue_nonpos", rng.randint(-6, 0), spec,
                                    PRIMES[k // 5 % 4], 12)

    def _make_lvalue_pos(self, rng, k):
        spec = ("trivial", "trivial", "quadratic:3", "quadratic:4")[k % 4]
        # i is cycled too: the costliest requests of the stream are these
        return self._lvalue_request("lvalue_pos", 2 + k % 5, spec,
                                    PRIMES[k // 4 % 4], rng.randint(6, 12))

    def _make_integrate_poles(self, rng, k):
        p = PRIMES[k % 4]
        terms = _pole_terms(rng, p, 1 + k // 4 % 2)
        prec = rng.randint(6, 12)
        return Request("integrate_poles", ("integrate", "--expr=" + _expr(terms, ()),
                                           "--p", str(p), "--prec", str(prec)),
                       (p, tuple(terms), prec))

    def _make_integrate_poly(self, rng, k):
        p = PRIMES[k % 4]
        degree = rng.randint(1, 8)
        poly = [(e, rng.choice((1, 2, 3, 5, -1, -4))) for e in range(degree, -1, -1)
                if e == degree or rng.random() < 0.5]
        return Request("integrate_poly", ("integrate", "--expr=" + _expr((), poly),
                                          "--p", str(p)), (p, tuple(poly)))

    def _make_integrate_riemann(self, rng, k):
        p = PRIMES[k % 4]
        level = {2: rng.randint(4, 6), 3: rng.randint(3, 4), 5: 2, 7: 2}[p]
        terms = _pole_terms(rng, p, 1)
        prec = rng.randint(6, 10)
        return Request("integrate_riemann",
                       ("integrate", "--expr=" + _expr(terms, ()), "--p", str(p),
                        "--engine", "riemann", "--level", str(level), "--prec", str(prec)),
                       (p, tuple(terms), level, prec))

    def _make_nesterenko(self, rng, k):
        while True:
            tau, tau1, tau2 = (Q(rng.randint(0, 12), rng.randint(1, 5)) for _ in range(3))
            if tau1 and tau + tau1 - tau2 > 0:
                break
        return Request("nesterenko", ("nesterenko", "--tau", str(tau), "--tau1", str(tau1),
                                      "--tau2", str(tau2)), (tau, tau1, tau2))

    # running and checking -----------------------------------------------------

    def run(self, req: Request):
        """(exit code, last stdout line) of one dispatch call."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.dispatch(list(req.argv))
            except SystemExit as exc:   # argparse rejected the request
                code = exc.code
        lines = out.getvalue().splitlines()
        return code, lines[-1] if lines else ""

    def check(self, req: Request, out) -> None:
        code, line = out
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        seen = self.verified.get(req.key)
        if seen is not None:
            if seen != line:
                raise Failure("output differs from the verified output of the same request")
            return
        if not self.output_ok(req, json.loads(line)):
            raise Failure(f"wrong output {line}")
        self.verified[req.key] = line

    def output_ok(self, req: Request, obj: dict) -> bool:
        """Judge one decoded output against the references."""
        b = self.bern
        if req.kind == "zeta_pos":
            p, s, x, prec = req.data
            k = s - 1
            tw = obj["twisted"]
            ref = refs.pole_integral(k, x, p, tw["prec"] + 2 + refs.vp(k, p), b) / k
            if not agrees(tw, ref, p, prec):
                return False
            zeta = obj["zeta"]
            shift = k * refs.vp(x, p)
            omega = refs.omega_ext(x, p, zeta["prec"] - shift + 2) ** k
            return agrees(zeta, omega * ref, p, prec + shift)
        if req.kind == "zeta_nonpos":
            p, s, x, prec = req.data
            n = 1 - s
            rational = -b.poly_value(n, x) / n
            if Q(obj["rational_part"]) != rational or obj["omega_exponent"] != -n:
                return False
            v, u = refs.unit_part(x, p)
            q = 4 if p == 2 else p
            unit = u.numerator * pow(u.denominator, -1, q) % q
            sign = 1 if unit == 1 else (-1 if unit == q - 1 else None)
            exact = None if sign is None else (sign * Q(p) ** v) ** -n * rational
            if (obj["exact"] is None) != (exact is None) or \
                    (exact is not None and Q(obj["exact"]) != exact):
                return False
            value = obj["value"]
            omega = refs.omega_ext(x, p, value["prec"] + 2 * n * abs(v) + n + 4) ** -n
            return agrees(value, omega * rational, p)
        if req.kind in ("lvalue_nonpos", "lvalue_pos", "lvalue_json"):
            i, spec, p, l, prec = req.data
            value = obj["value"]
            if i <= 0:
                ref = refs.lvalue_nonpositive(i, spec, p, b)
                return obj["exact"] and jsonio.rational_from_json(value) == ref
            ref = refs.lvalue_positive(i, spec, p, l, value["prec"] + 2, b)
            return not obj["exact"] and agrees(value, ref, p, prec)
        if req.kind == "integrate_poles":
            p, terms, prec = req.data
            value = obj["value"]
            ref = sum((c * refs.pole_integral(k, x, p, value["prec"] + 2, b)
                       for c, x, k in terms), Q(0))
            return obj["precision"] == prec and agrees(value, ref, p, prec)
        if req.kind == "integrate_poly":
            _, poly = req.data
            ref = sum((c * b(e) for e, c in poly), Q(0))
            return obj["precision"] is None and jsonio.rational_from_json(obj["value"]) == ref
        if req.kind == "integrate_riemann":
            p, terms, level, prec = req.data
            count = p ** level
            total = sum((c / (x + t) ** k for t in range(count) for c, x, k in terms), Q(0))
            return obj["precision"] == prec and agrees(obj["value"], total / count, p, prec)
        if req.kind == "nesterenko":
            tau, tau1, tau2 = req.data
            return Q(obj["bound"]) == refs.dimension_ratio(tau, tau1, tau2)
        raise ValueError(f"unknown request kind {req.kind}")


WORKLOADS = {cls.name: cls for cls in (Certify, Integrality, Queries)}
