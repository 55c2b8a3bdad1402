"""Eigenform data model: line-oriented ingestion with invariant validation,
the level-11 eta-product oracle, stabilization at a good prime with exact
valuations, the root-ratio minimal polynomial, the congruence scan over a
prime window, and the hypothesis checklist for the bundled pair.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt

from .arith import (RATIONALS, FormDataError, VerificationError, factor,
                    primes_upto)
from .poly import QQ, _div, poly_derivative, poly_eval, power_rows
from .quotring import QuotRing, QuotElt, join


# ---------------------------------------------------------------------------
# Dirichlet characters
# ---------------------------------------------------------------------------

class DirichletChar:
    """A character modulo M given by its values on a generating set of units.

    Values live in the coefficient ring of the form (ring elements or plain
    rationals); the full table on (Z/M)^* is built by closure and the
    construction fails if the given values are not a homomorphism.
    """

    def __init__(self, modulus: int, gen_values: dict, ring=RATIONALS):
        self.modulus = modulus
        self.ring = ring
        self.gen_values = dict(gen_values)
        one = ring.one()
        self._one = one
        units = [a for a in range(1, max(modulus, 2)) if gcd(a, modulus) == 1]
        if modulus == 1:
            units = [1]
        if not gen_values:
            # the trivial character
            self._table = {u % modulus if modulus > 1 else 1: one for u in units}
            self._one = one
            return
        table = {1 % modulus if modulus > 1 else 1: one}
        for _ in range(len(units) + 1):
            new = []
            for u in list(table):
                for g, val in self.gen_values.items():
                    w = (u * g) % modulus if modulus > 1 else 1
                    value = table[u] * val
                    if w in table:
                        if not (table[w] == value):
                            raise FormDataError(
                                f"character values are not multiplicative at {w}")
                    else:
                        table[w] = value
                        new.append(w)
            if not new:
                break
        if set(table) != set(u % modulus if modulus > 1 else 1 for u in units):
            raise FormDataError("given units do not generate the unit group")
        self._table = table

    def value(self, n: int):
        """chi(n); 0 on non-units."""
        if self.modulus == 1:
            return self._one
        n = n % self.modulus
        if gcd(n, self.modulus) != 1:
            return QQ(0)
        return self._table[n]

    def __call__(self, n: int):
        return self.value(n)

    def is_trivial(self) -> bool:
        return all(v == self._one for v in self._table.values())

    def order(self) -> int:
        for k in range(1, len(self._table) + 1):
            if all(v ** k == self._one for v in self._table.values()):
                return k
        raise VerificationError("no order found")


# ---------------------------------------------------------------------------
# the Eigenform container
# ---------------------------------------------------------------------------

class Eigenform:
    def __init__(self, level: int, weight: int, character: DirichletChar,
                 ring: QuotRing, coefficients: dict,
                 provenance: list | None = None, field_poly: list | None = None):
        self.level = level
        self.weight = weight
        self.character = character
        self.ring = ring
        self.coefficients = coefficients     # n -> QuotElt
        self.provenance = [] if provenance is None else provenance
        self.field_poly = [] if field_poly is None else field_poly   # dense, monic, in t
        self._powers = {}  # p -> [a(p^0), a(p^1), ...] by the Hecke recursion

    @property
    def bound(self) -> int:
        return max(self.coefficients)

    def a(self, n: int) -> QuotElt:
        if n in self.coefficients:
            return self.coefficients[n]
        return self._extended(n)

    def _extended(self, n: int) -> QuotElt:
        """Multiplicativity plus the prime-power recursion, beyond the table."""
        out = self.ring.one()
        for p, e in factor(n):
            out = out * self.prime_power(p, e)
        return out

    def prime_power(self, p: int, r: int) -> QuotElt:
        """a_(p^r) from a_p by the Hecke recursion (chi(p) = 0 when p | level
        makes this a_p^r automatically)."""
        if r == 0:
            return self.ring.one()
        if p ** r in self.coefficients:
            return self.coefficients[p ** r]
        return self._prime_powers(p, r)[r]

    def _prime_powers(self, p: int, r: int) -> list:
        """The list a(p^0), a(p^1), ... of the Hecke recursion from the
        stored a_p, kept per prime and extended by one running recursion to
        at least a(p^r)."""
        powers = self._powers.get(p)
        if powers is None:
            if p not in self.coefficients:
                raise ValueError(f"a_{p} is beyond the coefficient table "
                                 f"(bound {self.bound})")
            powers = self._powers[p] = [self.ring.one(), self.coefficients[p]]
        if len(powers) <= r:
            ap = powers[1]
            scale = self.char_value(p) * QQ(p) ** (self.weight - 1)
            while len(powers) <= r:
                powers.append(ap * powers[-1] - scale * powers[-2])
        return powers

    def char_value(self, n: int) -> QuotElt:
        return self.ring.coerce(self.character.value(n))

    def validate(self):
        """Check a_1 = 1, the prime-power recursion and multiplicativity on
        coprime pairs, on the stored range.

        Multiplicativity is checked as a_n = a_q a_(n/q) for each n that is
        not a prime power, q the prime-power part of n at its least prime:
        by induction on n, this holds exactly when a_mn = a_m a_n for every
        coprime pair m, n with mn <= bound."""
        B = self.bound
        if 1 not in self.coefficients or not (self.coefficients[1] == 1):
            raise FormDataError("a_1 must be 1")
        c = self.coefficients
        for p in primes_upto(isqrt(B)):
            # the running recursion from the stored a_p, kept for prime_power;
            # a list filled before is run again, not trusted
            self._powers.pop(p, None)
            top = 2
            while p ** (top + 1) <= B:
                top += 1
            powers = self._prime_powers(p, top)
            for r in range(2, top + 1):
                if not (c[p ** r] == powers[r]):
                    raise FormDataError(
                        f"Hecke recursion fails at (p, r) = ({p}, {r})")
        for n in range(2, B + 1):
            p, e = factor(n)[0]
            q = p ** e
            if q < n and not (c[n] == c[q] * c[n // q]):
                self._raise_first_coprime_failure()
        return True

    def _raise_first_coprime_failure(self):
        """Raise the FormDataError naming the first coprime pair (m, n), by m
        and then n, with a_mn != a_m a_n."""
        B = self.bound
        c = self.coefficients
        for m in range(2, B + 1):
            for n in range(2, B // m + 1):
                if gcd(m, n) == 1 and not (c[m * n] == c[m] * c[n]):
                    raise FormDataError(f"multiplicativity fails at ({m}, {n})")
        raise VerificationError(
            "a prime-power product failed but no coprime pair does")


# ---------------------------------------------------------------------------
# the line-oriented file format
# ---------------------------------------------------------------------------

_HEADER_KEYS = ("level", "weight", "charmod", "field")


def _parse_header(line: str, lineno: int) -> dict:
    """The header line: each of _HEADER_KEYS exactly once as key=value and
    nothing else, with level, weight and charmod positive decimal integers
    (returned as ints)."""
    header = {}
    for token in line.split():
        key, _, value = token.partition("=")
        if key not in _HEADER_KEYS or not value:
            raise FormDataError(f"line {lineno}: bad header entry {token!r}")
        if key in header:
            raise FormDataError(f"line {lineno}: repeated header key {key}")
        header[key] = value
    for key in _HEADER_KEYS:
        if key not in header:
            raise FormDataError(f"line {lineno}: missing header key {key}")
        if key != "field":
            value = header[key]
            if not re.fullmatch(r"0*[1-9][0-9]*", value):
                raise FormDataError(f"line {lineno}: {key} must be a positive "
                                    f"integer, got {value!r}")
            header[key] = int(value)
    return header


def parse_eigenform(text: str) -> Eigenform:
    """Parse the documented format:

        # comments carry provenance notes
        level=N weight=k charmod=M field=<monic polynomial in t>
        chargen a:<value>        (zero or more)
        n: <value>               (coefficient lines)

    The header holds each of its four keys once, in any order, and nothing
    else; N, k and M are positive decimal integers.
    A value is a sum of terms c, c*t, ct, t, c*t^k, ct^k or t^k, each with
    an optional sign (one before the first term, one between terms), where c
    is an integer or a fraction a/b; spaces are ignored.  Anything else is a
    FormDataError naming the line.
    """
    header = None
    chargens = []
    coeff_lines = []
    provenance = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            provenance.append(line[1:].strip())
            continue
        if header is None:
            header = _parse_header(line, lineno)
            header_line = lineno
            continue
        if line.startswith("chargen"):
            body = line[len("chargen"):].strip()
            g, _, val = body.partition(":")
            if not g.strip().isdigit():
                raise FormDataError(f"line {lineno}: cannot parse {line!r}")
            chargens.append((lineno, int(g), val.strip()))
            continue
        m = re.match(r"^(\d+)\s*:\s*(.+)$", line)
        if not m:
            raise FormDataError(f"line {lineno}: cannot parse {line!r}")
        coeff_lines.append((lineno, int(m.group(1)), m.group(2).strip()))
    if header is None:
        raise FormDataError("missing header line")
    field_poly = _parse_value(header["field"], header_line)
    if field_poly[-1] != 1:
        raise FormDataError("field polynomial must be monic")
    deg = len(field_poly) - 1
    if deg == 0:
        raise FormDataError("field polynomial must involve t")
    ring = QuotRing([("t", deg, [-c for c in field_poly[:-1]])])
    char_values = {g: ring.from_dense("t", _parse_value(v, lineno))
                   for lineno, g, v in chargens}
    character = DirichletChar(header["charmod"], char_values, ring)
    coeffs = {n: ring.from_dense("t", _parse_value(val, lineno))
              for lineno, n, val in coeff_lines}
    form = Eigenform(header["level"], header["weight"], character,
                     ring, coeffs, provenance, field_poly)
    expected = set(range(1, max(coeffs) + 1))
    if set(coeffs) != expected:
        missing = sorted(expected - set(coeffs))[:5]
        raise FormDataError(f"missing coefficient indices {missing}")
    form.validate()
    return form


# one term of a value: sign, then c, c*t, ct or t, then an optional ^k on t
_TERM_RE = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)(?:\*?(t)(?:\^(\d+))?)?|(t)(?:\^(\d+))?)")


def _parse_value(s: str, lineno: int):
    """A value in t as a dense list, ints for integral coefficients and
    Fractions for the a/b terms; the terms must cover the whole string."""
    s = s.replace(" ", "")
    out, pos = {}, 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or not (m.group(1) or pos == 0):
            raise FormDataError(f"line {lineno}: bad value {s!r}")
        sign, coef, t, k, bare_t, bare_k = m.groups()
        if coef is None:
            c, power = 1, (int(bare_k) if bare_k else 1)
        else:
            power = (int(k) if k else 1) if t else 0
            try:
                c = Fraction(coef) if "/" in coef else int(coef)
            except ZeroDivisionError:
                raise FormDataError(
                    f"line {lineno}: bad value {s!r}: zero denominator") from None
        out[power] = out.get(power, 0) + (-c if sign == "-" else c)
        pos = m.end()
    if not out:
        raise FormDataError(f"line {lineno}: empty value")
    return [out.get(k, 0) for k in range(max(out) + 1)]


def _format_t(terms) -> str:
    """Canonical printing of the polynomial in t with the given (power,
    coefficient) pairs, in ascending powers and zeros skipped."""
    parts = []
    for k, c in terms:
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            tpow = "t" if k == 1 else f"t^{k}"
            if c == 1:
                parts.append(tpow)
            elif c == -1:
                parts.append(f"-{tpow}")
            else:
                parts.append(f"{c}*{tpow}")
    return "+".join(parts).replace("+-", "-") or "0"


def format_value(x: QuotElt) -> str:
    """Canonical printing of a coefficient as a polynomial in t."""
    return _format_t(sorted((e[0], c) for e, c in x.rep.terms.items()))


def serialize_eigenform(form: Eigenform) -> str:
    lines = [f"# {note}" for note in form.provenance]
    lines.append(f"level={form.level} weight={form.weight} "
                 f"charmod={form.character.modulus} "
                 f"field={_format_t(enumerate(form.field_poly))}")
    for g, v in sorted(form.character.gen_values.items()):
        lines.append(f"chargen {g}:{format_value(form.ring.coerce(v))}")
    for n in sorted(form.coefficients):
        lines.append(f"{n}: {format_value(form.coefficients[n])}")
    return "\n".join(lines) + "\n"


def ingest(path) -> Eigenform:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_eigenform(fh.read())


def bundled_path(name: str):
    from importlib.resources import files
    return files("rankin.data").joinpath(name)


def load_bundled(name: str) -> Eigenform:
    return parse_eigenform(bundled_path(name).read_text())


# ---------------------------------------------------------------------------
# the eta-product oracle for the level-11 form
# ---------------------------------------------------------------------------

def eta_oracle_level11(prec: int):
    """Coefficients a_1..a_prec of q prod (1-q^n)^2 (1-q^(11n))^2, by direct
    truncated product expansion over the integers."""
    B = prec
    series = [0] * (B + 1)
    series[0] = 1
    for n in range(1, B + 1):
        for rep in (n, n, 11 * n, 11 * n):
            if rep > B:
                continue
            for i in range(B, rep - 1, -1):
                series[i] -= series[i - rep]
    return [series[n - 1] for n in range(1, B + 1)]


# ---------------------------------------------------------------------------
# p-adic places and stabilization
# ---------------------------------------------------------------------------

class PadicPlace:
    """A prime above p in a quotient ring, fixed by the smallest-root
    convention: for each generator in order, the smallest root mod p of its
    defining polynomial (which must be separable with a root mod p)."""

    def __init__(self, ring: QuotRing, p: int):
        self.ring = ring
        self.p = p
        self.roots = {}
        for name in ring.gen_names:
            h, hp = self._gen_poly_mod(name, p, self.roots)
            sep = [r for r in range(p) if poly_eval(h, r) % p == 0 and poly_eval(hp, r) % p]
            if not sep:
                raise FormDataError(
                    f"no simple root mod {p} for {name}; place not supported")
            self.roots[name] = min(sep)
        self._lifted = dict(self.roots)
        self._lift_prec = 1

    def _reduce_mpoly(self, mp, roots, mod):
        """mp at the generator images ``roots``, modulo ``mod``."""
        total = 0
        for e, c in mp.terms.items():
            if c.denominator % self.p == 0:
                raise FormDataError("denominator not prime to p in reduction")
            t = c.numerator * pow(c.denominator, -1, mod)
            for name, k in zip(self.ring.gen_names, e):
                if k:
                    t *= pow(roots[name], k, mod)
            total += t
        return total % mod

    def _ensure_precision(self, k: int):
        while self._lift_prec < k:
            mod = self.p ** (2 * self._lift_prec)
            # one Newton step per generator doubles the precision
            lifted = {}
            for name in self.ring.gen_names:
                h, hp = self._gen_poly_mod(name, mod, {**self._lifted, **lifted})
                r = self._lifted[name]
                r = (r - poly_eval(h, r) * pow(poly_eval(hp, r), -1, mod)) % mod
                lifted[name] = r
            self._lifted = lifted
            self._lift_prec *= 2

    def _gen_poly_mod(self, name, mod, roots):
        """Defining polynomial of ``name`` with earlier-generator coefficients
        evaluated at ``roots``, reduced mod ``mod``, and its derivative."""
        d = self.ring.degrees[name]
        low = self.ring.rewrites[name]
        h = [0] * (d + 1)
        h[d] = 1
        for k, cf in low.coefficients_in(name).items():
            h[k] = (h[k] - self._reduce_mpoly(cf, roots, mod)) % mod
        return h, poly_derivative(h)

    def reduce(self, x: QuotElt, k: int = 1) -> int:
        """The image of x in Z/p^k (denominators must be prime to p)."""
        self._ensure_precision(k)
        return self._reduce_mpoly(x.rep, self._lifted, self.p ** k)

    def valuation(self, x: QuotElt):
        """v_p of x at this place; None for (the image of) zero."""
        if x.is_zero():
            return None
        den_v = 0
        for _, c in x.rep.terms.items():
            d = c.denominator
            while d % self.p == 0:
                d //= self.p
                den_v += 1
        num = x * (QQ(self.p) ** den_v) if den_v else x
        k = 4
        while k <= 64:
            val = self.reduce(num, k)
            if val % (self.p ** k):
                v = 0
                while val % self.p == 0:
                    val //= self.p
                    v += 1
                return v - den_v
            k *= 2
        raise FormDataError(
            f"valuation of {x} exceeds precision 64 (zero divisor?)")


class Stabilization:
    """The two roots of X^2 - a_p X + p^(k-1) chi(p) in a quadratic extension
    of the coefficient ring, with exact slope data at a chosen place."""

    def __init__(self, p: int, ring: QuotRing, alpha: QuotElt, beta: QuotElt,
                 slopes: tuple, ordinary: bool, root_valuations: tuple | None,
                 place_root: int | None):
        self.p = p
        self.ring = ring
        self.alpha = alpha
        self.beta = beta
        self.slopes = slopes
        self.ordinary = ordinary
        self.root_valuations = root_valuations
        self.place_root = place_root

    def summary(self):
        return {"p": self.p, "slopes": [str(s) for s in self.slopes],
                "ordinary": self.ordinary,
                "root_valuations": (None if self.root_valuations is None
                                    else [str(v) for v in self.root_valuations]),
                "place_root": self.place_root}


def p_stabilize(form: Eigenform, p: int) -> Stabilization:
    if form.level % p == 0:
        raise FormDataError(f"p = {p} divides the level {form.level}")
    ap = form.a(p)
    const = form.char_value(p) * QQ(p) ** (form.weight - 1)
    # extended ring: adjoin s with s^2 = a_p s - const
    ext, lift = form.ring.adjoin("s", [-const, ap])
    alpha = ext.gen("s")
    beta = lift(ap) - alpha
    if form.weight == 2:
        # good-prime weight-2 roots are always distinct
        disc = ap * ap - 4 * const
        if disc.is_zero():
            raise VerificationError(f"repeated Hecke roots at p = {p}")
    # Newton polygon of X^2 - a_p X + const: vertices (0, k-1), (1, v(a_p)), (2, 0)
    place = PadicPlace(form.ring, p)
    vap = place.valuation(ap) if not ap.is_zero() else None
    km1 = QQ(form.weight - 1)
    if vap is not None and vap == 0:
        slopes = (QQ(0), km1)
    elif vap is None or 2 * vap >= km1:
        slopes = (km1 / 2, km1 / 2)
    else:
        slopes = (QQ(vap), km1 - vap)
    ordinary = slopes[0] == 0
    root_vals = None
    place_root = None
    if ordinary:
        ext_place = PadicPlace(ext, p)
        place_root = ext_place.roots["s"]
        root_vals = (ext_place.valuation(alpha), ext_place.valuation(beta))
        if sorted(root_vals) != [0, int(km1)]:
            raise VerificationError(f"ordinary root valuations {root_vals}")
    return Stabilization(p, ext, alpha, beta, slopes, ordinary, root_vals, place_root)


# ---------------------------------------------------------------------------
# the root-ratio minimal polynomial and the root-of-unity verdict
# ---------------------------------------------------------------------------

def ratio_minpoly_and_root_of_unity(st_f: Stabilization, st_g: Stabilization):
    """Minimal polynomial over Q of alpha/gamma in the joint quotient ring of
    the two stabilizations, and whether that ratio is a root of unity."""
    if st_f.p != st_g.p:
        raise ValueError("stabilizations at different primes")
    if st_f is st_g:
        # the same chosen root twice: the ratio is 1 in the one ring
        x = st_f.ring.one()
    else:
        joint, mf, mg = join(st_f.ring, st_g.ring, "f_", "g_")
        gamma = mg(st_g.alpha)
        if gamma.is_zero():
            raise ZeroDivisionError("zero stabilization root")
        x = mf(st_f.alpha) * gamma.inverse()
    mp = x.minpoly()
    return mp, is_root_of_unity_poly(mp)


def is_root_of_unity_poly(mp) -> bool:
    """Whether the nonzero rational polynomial mp divides x^M - 1 over Q for
    some 1 <= M <= 2 d^2 + 2, d its degree (a constant divides x - 1).  Such
    a divisor, made monic, is a product of cyclotomic polynomials and so
    integral; for it, x^M is 1 modulo it exactly when the power row of x^M
    equals that of 1."""
    monic = [_div(c, mp[-1]) for c in mp]
    if not all(isinstance(c, int) for c in monic):
        return False
    d = len(mp) - 1
    rows = power_rows(monic, 2 * d * d + 3)
    return rows[0] in rows[1:]


# ---------------------------------------------------------------------------
# residue fields of degree <= 2 and the congruence scan
# ---------------------------------------------------------------------------

def residue_places(form: Eigenform, p: int):
    """Places above p of the coefficient field (degree <= 2) as
    (label, reduction map).  The map sends a QuotElt to its residue (u, v)
    = u + vT reduced mod p, in F_p (v = 0) or F_p[T]/(T^2 + aT + b)."""
    deg = form.ring.dimension
    if deg == 1:
        def red(x):
            return _rat_mod(x.rep.constant_value(), p), 0
        return [("rational", red)]
    if deg != 2:
        raise FormDataError("congruence scan supports coefficient fields of degree <= 2")
    name = form.ring.gen_names[0]
    low = form.ring.rewrites[name]
    c1 = -_low_coeff(low, name, 1)
    c0 = -_low_coeff(low, name, 0)
    # minimal polynomial T^2 + c1 T + c0
    a1, a0 = _rat_mod(c1, p), _rat_mod(c0, p)
    roots = sorted({r for r in range(p) if (r * r + a1 * r + a0) % p == 0})
    if roots:
        out = []
        tag = "t->" if len(roots) == 2 else "ramified t->"
        for r in roots:
            def red(x, r=r):
                total = 0
                for e, c in x.rep.terms.items():
                    total += _rat_mod(c, p) * pow(r, e[0], p)
                return total % p, 0
            out.append((f"{tag}{r}", red))
        return out

    # inert: residue field F_p^2
    def red(x):
        u = v = 0
        for e, c in x.rep.terms.items():
            cv = _rat_mod(c, p)
            if e[0] == 0:
                u += cv
            elif e[0] == 1:
                v += cv
            else:
                raise VerificationError("unreduced element")
        return u % p, v % p
    return [("inert", red)]


def _low_coeff(low, name, k):
    c = low.coefficients_in(name).get(k)
    if c is None:
        return QQ(0)
    return c.constant_value()


def _rat_mod(c: Fraction, p: int) -> int:
    if c.denominator % p == 0:
        raise FormDataError(f"denominator of {c} not prime to {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


def congruence_prime_scan(f: Eigenform, g: Eigenform, splitting_chars,
                          bound: int, window):
    """For each prime p in ``window`` and each place above p of the joint
    coefficient data, search v <= bound, v prime, chi(v) = 1 for every chi in
    ``splitting_chars``, with a_v(f) not congruent to +-a_v(g); report the
    witness found or flag the place.

    The first form must have rational coefficients.  Returns
    {p: [(place label, witness v or None)]}.
    """
    if f.ring.dimension != 1:
        raise FormDataError("scan expects the first form to have rational coefficients")
    vs = [v for v in primes_upto(bound)
          if all(chi.value(v) == 1 for chi in splitting_chars)]
    report = {}
    for p in window:
        entries = []
        for label, red in residue_places(g, p):
            witness = None
            for v in vs:
                try:
                    x = (_rat_mod(f.a(v).rep.constant_value(), p), 0)
                except FormDataError:
                    continue
                y = red(g.a(v))
                if x != y and x != (-y[0] % p, -y[1] % p):
                    witness = v
                    break
            entries.append((label, witness))
        report[p] = entries
    return report


# ---------------------------------------------------------------------------
# the hypothesis checklist
# ---------------------------------------------------------------------------

def hypothesis_report(f: Eigenform, g: Eigenform, p: int) -> dict:
    """Evaluate the decidable items of the running hypothesis list for a pair
    of weight-2 forms at a prime p; items needing Galois-image input are
    reported as external assertions."""
    out = {}
    out["i_not_cm"] = ("EXTERNAL", "user-asserted: neither form has CM")
    out["ii_not_twist"] = ("EXTERNAL", "user-asserted: f is not a twist of g")
    prod_mod = f.character.modulus * g.character.modulus // gcd(
        f.character.modulus, g.character.modulus)
    # the product character, valued in the tensor of the coefficient rings
    _, mf, mg = join(f.ring, g.ring)
    nontrivial = any(mf(f.char_value(n)) * mg(g.char_value(n)) != 1
                     for n in range(2, prod_mod + 1) if gcd(n, prod_mod) == 1)
    out["iii_char_nontrivial"] = ("PASS" if nontrivial else "FAIL",
                                  f"product character modulo {prod_mod}")
    out["iv_p_at_least_5"] = ("PASS" if p >= 5 else "FAIL", f"p = {p}")
    good = f.level % p != 0 and g.level % p != 0
    out["v_p_good"] = ("PASS" if good else "FAIL",
                       f"levels {f.level}, {g.level}")
    if not good:
        return out
    split_ok, split_note = _splitting_check(f, g, p)
    out["vi_place_split"] = ("PASS" if split_ok else "FAIL", split_note)
    chi_list = [g.character] if not g.character.is_trivial() else []
    scan = congruence_prime_scan(f, g, chi_list, 100, [p])
    witnesses = scan[p]
    ok8 = all(w is not None for _, w in witnesses)
    out["viii_coefficient_separation"] = (
        "PASS" if ok8 else "FAIL",
        {label: w for label, w in witnesses})
    try:
        st_f = p_stabilize(f, p)
        out["ix_f_ordinary"] = ("PASS" if st_f.ordinary else "FAIL",
                                st_f.summary())
        st_g = p_stabilize(g, p)
        if st_f.ordinary and st_g.ordinary:
            mp, is_ru = ratio_minpoly_and_root_of_unity(st_f, st_g)
            out["x_ratio_not_root_of_unity"] = (
                "PASS" if not is_ru else "FAIL",
                {"minpoly": [str(c) for c in mp], "root_of_unity": is_ru})
        else:
            out["x_ratio_not_root_of_unity"] = ("FAIL", "no unit root available")
    except FormDataError as exc:
        out.setdefault("ix_f_ordinary", ("FAIL", str(exc)))
        out.setdefault("x_ratio_not_root_of_unity", ("FAIL", str(exc)))
    return out


def _splitting_check(f: Eigenform, g: Eigenform, p: int):
    """All defining data acquires a simple root mod p: the coefficient fields
    and (in the ordinary case) the Hecke quadratics of both stabilizations."""
    try:
        PadicPlace(f.ring, p)
        PadicPlace(g.ring, p)
        for form in (f, g):
            st = p_stabilize(form, p)
            if st.ordinary:
                PadicPlace(st.ring, p)
            else:
                return False, f"Hecke polynomial at {p} has no unit root"
        return True, "coefficient fields and Hecke quadratics split mod p"
    except FormDataError as exc:
        return False, str(exc)
