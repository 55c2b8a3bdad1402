"""The weighted-trace identity for denominator-corrected cyclotomic elements.

Elements live in Frac(Q[tau_v : v]) tensor Q(zeta_M), stored as vectors over
the rational-function field in the Q-power basis with one common denominator.

For v dividing M the exponentiation map zeta -> zeta^v is not well defined
Q-linearly on the field (it does not kill the cyclotomic relations), so the
twisted endomorphisms sigma_hat_v (zeta -> zeta^v times tau_v) are realized
on the group-algebra cover Q[Z/M] -- basis all M-th roots of unity, where
they are honest commuting linear maps and F(sigma_hat_v) is invertible
whenever F has constant term 1.  Corrected elements are computed in the
cover and projected to the field by e_k -> zeta_M^k, read in the power
basis through the power table of Q(zeta_M).  For l not dividing m both
sides are computed in covers: multiplication by l permutes the basis of
Q[Z/m], so sigma_hat_l and the plain Frobenius e_k -> e_(k t) are
permutations there (times tau_l for the hatted one), the projection to
Q(zeta_m) commutes with both, and solving F(sigma_hat_l) x = v in the cover
projects to the unique solution in the field.  Only the final vectors are
projected.

The one-level trace has a closed form.  For M = m l, u = l^(-1) mod m and
v = m^(-1) mod l, zeta_M^j = zeta_m^(j u) zeta_l^(j v), and the trace from
Q(zeta_M) to Q(zeta_m) fixes the first factor and sends zeta_l^(j v) to
l - 1 when l | j and to -1 otherwise (Washington, Introduction to
Cyclotomic Fields, ch. 2).  So the level-M cover vector folds to a level-m
one, coordinate j adding (l - 1) x_j or -x_j at j u mod m, which is then
projected to Q(zeta_m).

The verified identity, for families F_l, G_l with constant term 1, l not
dividing m:

    trace down one level of x'_(m l)
        = sigma_l^(-1) F_l(sigma_hat_l)^(-1)
          ((l-1) G_l(sigma_hat_l) - l F_l(sigma_hat_l)) x'_m

with sigma_l^(-1) the plain inverse Frobenius of Q(zeta_m), equivalently
tau_l sigma_hat_l^(-1).  Reading that leading inverse as the hatted operator
inserts a stray tau_l^(-1) and fails; the checker can exhibit this.

All linear algebra is fraction-free, so no rational-function normalization
is ever needed: F(sigma_hat_v) is unitriangular off the cycles of k -> v k,
solved there by substitution, and a circulant on each cycle, inverted by one
Bareiss solve per cycle length over the polynomial ring.  The projection
and the trace are integer combinations of the coordinates, with no solve.

The coefficients are integers too.  With s_v the lcm of the denominators of
F_v and G_v, tau_v = s_v tau'_v turns c_j tau_v^j into (c_j s_v^j) tau'_v^j,
so F_v(sigma_hat_v) = F'_v(sigma_hat'_v) for the integer family F'_v.  The
substitution is an automorphism of Q(tau) that commutes with every
Frobenius, so the identity holds in tau' exactly when it holds in tau; both
sides are computed in tau' (s_v = 1 for an integer family) and a witness is
mapped back to tau.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm, prod
from operator import mul

from .arith import euler_phi, prime_factors
from .cyclo import CyclotomicField
from .poly import MPoly, PolyRing, _div, poly_add


def bareiss_solve(mat, rhs):
    """Solve mat * x = rhs over a polynomial ring; returns (nums, det) with
    x = nums/det, where det is the determinant of mat and nums[i] that of mat
    with column i replaced by rhs (Cramer's numerators).

    One fraction-free elimination of [mat | rhs] (Bareiss) leaves an upper
    triangle whose last pivot is +-det; back substitution then yields each
    x_i det = (det b'_i - sum_(j>i) a'_ij x_j det) / a'_ii with every
    division exact.  Zero entries cost no product.
    """
    n = len(rhs)
    ring = mat[0][0].ring
    a = [row[:] + [b] for row, b in zip(mat, rhs)]
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            piv = next((r for r in range(k + 1, n) if not a[r][k].is_zero()), None)
            if piv is None:
                raise ZeroDivisionError("singular operator")
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk, rk = a[k][k], a[k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n + 1):
                num = pk * ri[j] if ri[j] else None
                if aik and rk[j]:
                    t = aik * rk[j]
                    num = -t if num is None else num - t
                ri[j] = num.exact_div(prev) if num else ring.zero()
            ri[k] = ring.zero()
        prev = pk
    det = a[n - 1][n - 1]
    if det.is_zero():
        raise ZeroDivisionError("singular operator")
    xs = [None] * n
    for i in range(n - 1, -1, -1):
        ri = a[i]
        num = det * ri[n] if ri[n] else None
        for j in range(i + 1, n):
            if ri[j] and xs[j]:
                t = ri[j] * xs[j]
                num = -t if num is None else num - t
        xs[i] = num.exact_div(ri[i]) if num else ring.zero()
    if sign < 0:
        return [-x for x in xs], -det
    return xs, det


class CycloCover:
    """The group algebra Q[Z/M] with polynomial tau coefficients; vectors are
    (list of M MPoly, common-denominator MPoly)."""

    def __init__(self, M: int, ring: PolyRing):
        self.M = M
        self.ring = ring

    def basis_vec(self, k: int):
        nums = [self.ring.zero()] * self.M
        nums[k % self.M] = self.ring.one()
        return nums, self.ring.one()

    def frobenius(self, t: int, vec):
        """The plain Frobenius e_k -> e_(k t)."""
        nums, den = vec
        out = [self.ring.zero()] * self.M
        for k, x in enumerate(nums):
            if not x.is_zero():
                j = (k * t) % self.M
                out[j] = out[j] + x
        return out, den

    def sigma_hat(self, v: int, vec):
        nums, den = self.frobenius(v, vec)
        t = self.ring.var(f"tau{v}")
        return [x * t for x in nums], den

    def apply_poly(self, coeffs, v: int, vec):
        """F(sigma_hat_v) vec for F given by its coefficient list (ints or
        Fractions)."""
        nums, den = vec
        out = [x * coeffs[0] for x in nums]
        cur = (nums, den)
        for c in coeffs[1:]:
            cur = self.sigma_hat(v, cur)
            if c:
                out = [a + b * c for a, b in zip(out, cur[0])]
        return out, den

    def solve_poly(self, coeffs, v: int, vec):
        """x with F(sigma_hat_v) x = vec; F(0) must be 1.

        F(sigma_hat_v) = sum_j c_j tau^j P^j with P e_k = e_(v k).  Off the
        cycles of k -> v k, x follows by forward substitution, deepest first.
        On a cycle k, v k, ... of length L the operator is the circulant
        sum_j c_j tau^j S^j, whose inverse is the circulant of r / D for
        C r = D e_0: one solve per cycle length.
        """
        if coeffs[0] != 1:
            raise ValueError("polynomial must have constant term 1")
        M, ring = self.M, self.ring
        nums, den = vec
        t = ring.var(f"tau{v}")
        steps = [(j, pow(v, j, M), t ** j * c)
                 for j, c in enumerate(coeffs) if j and c]
        # the cycle nodes are the image of k -> v^M k; depth is the number of
        # steps a node takes to reach one
        on_cycle = {k * pow(v, M, M) % M for k in range(M)}
        depth = [next(s for s in range(M) if k * pow(v, s, M) % M in on_cycle)
                 for k in range(M)]
        x = list(nums)
        for k in sorted(range(M), key=depth.__getitem__, reverse=True):
            if not depth[k]:
                break
            if x[k]:
                for _, w, tc in steps:
                    x[k * w % M] = x[k * w % M] - tc * x[k]
        kernels, over, seen = {}, {}, set()
        for k0 in sorted(on_cycle):
            if k0 in seen:
                continue
            cyc = [k0]
            while cyc[-1] * v % M != k0:
                cyc.append(cyc[-1] * v % M)
            seen.update(cyc)
            L, b = len(cyc), [x[k] for k in cyc]
            if not any(b):
                continue
            if L not in kernels:
                col = [ring.one()] + [ring.zero()] * (L - 1)
                for j, _, tc in steps:
                    col[j % L] = col[j % L] + tc
                circ = [[col[(i - l) % L] for l in range(L)] for i in range(L)]
                kernels[L] = bareiss_solve(circ, [ring.one()] + [ring.zero()] * (L - 1))
            r, D = kernels[L]
            for i, k in enumerate(cyc):
                x[k] = sum((r[(i - l) % L] * b[l] for l in range(L)
                            if r[(i - l) % L] and b[l]), ring.zero())
                over[k] = D
        # one common denominator: the product of the distinct D used; a
        # kernel's scale is the product of the others
        dens = list(dict.fromkeys(over.values()))
        scale = {D: reduce(mul, dens[:i] + dens[i + 1:], ring.one())
                 for i, D in enumerate(dens)}
        detprod = reduce(mul, dens, ring.one())
        return ([x[k] * scale[over[k]] if k in over else x[k] * detprod
                 for k in range(M)], den * detprod)


def project_to_field(cover: CycloCover, vec):
    """Q(zeta_M) power-basis coordinates of a cover vector, by
    e_k -> zeta_M^k."""
    field = CyclotomicField(cover.M)
    nums, den = vec
    out = [cover.ring.zero()] * field.phi
    for x, (index, value) in zip(nums, field._images):
        if x:
            for i, c in zip(index, value):
                out[i] = out[i] + x * c
    return out, den


def trace_to_field(cover: CycloCover, m: int, vec):
    """The trace from Q(zeta_M) down to Q(zeta_m) of the projection of a
    cover vector, in Q(zeta_m) coordinates, for M = m l with l a prime not
    dividing m: the closed form of the module docstring."""
    ell = cover.M // m
    u = pow(ell, -1, m)
    row = [cover.ring.zero()] * m
    for j, x in enumerate(vec[0]):
        if not x:
            continue
        k = j * u % m
        if j % ell:
            row[k] = row[k] - x
        else:
            row[k] = row[k] + x * (ell - 1)
    return project_to_field(CycloCover(m, cover.ring), (row, vec[1]))


def corrected_element_cover(cover: CycloCover, m: int, families: dict):
    """x'_m upstairs: product over primes v | m of F_v^(-1) G_v applied to the
    class of zeta_m = e_(M/m)."""
    vec = cover.basis_vec(cover.M // m)
    for v in prime_factors(m):
        F, G = families[v]
        vec = cover.apply_poly(G, v, vec)
        vec = cover.solve_poly(F, v, vec)
    return vec


def corrected_element(m: int, families: dict, ring: PolyRing):
    """x'_m as a field vector: cover computation projected to Q(zeta_m), on
    the integral families, mapped back to the tau_v of ``families``.

    Raises ValueError for m < 1 and for a ``ring`` without tau_v for some
    prime v | m; ``families`` is checked as by ``trace_check_args``.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    primes = prime_factors(m)
    missing = [f"tau{v}" for v in primes if f"tau{v}" not in ring.index]
    if missing:
        raise ValueError(f"ring {ring} has no variable {', '.join(missing)}")
    families, scales = _integral_families(families, primes)
    cover = CycloCover(m, ring)
    nums, den = project_to_field(cover, corrected_element_cover(cover, m, families))
    return [_unscaled(x, scales) for x in nums], _unscaled(den, scales)


def _integral_families(families: dict, primes):
    """({v: (F'_v, G'_v)}, {v: s_v}) over the primes v: s_v is the lcm of the
    denominators of the coefficients of F_v and G_v, and c_j becomes
    c_j s_v^j, so that F_v(tau_v P) = F'_v(tau'_v P) with tau_v = s_v tau'_v.

    Raises ValueError for a missing or empty polynomial or a constant term
    other than 1, and TypeError for a coefficient that is not an int or a
    Fraction.
    """
    out, scales = {}, {}
    for v in primes:
        if v not in families:
            raise ValueError(f"no family (F_{v}, G_{v}) for the prime {v}")
        pair = families[v]
        for P in pair:
            if not P:
                raise ValueError("family polynomials must not be empty")
            for c in P:
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"family coefficient {c!r} is not an int or a Fraction")
            if P[0] != 1:
                raise ValueError("family polynomials must have constant term 1")
        s = lcm(*(c.denominator for P in pair for c in P))
        out[v] = tuple([int(c * s ** j) for j, c in enumerate(P)] for P in pair)
        scales[v] = s
    return out, scales


def _unscaled(x, scales: dict):
    """x with each tau'_v replaced by tau_v / s_v."""
    shifts = [(x.ring.index[f"tau{v}"], s) for v, s in scales.items() if s != 1]
    if not shifts:
        return x
    return MPoly(x.ring, {e: _div(c, prod(s ** e[i] for i, s in shifts))
                          for e, c in x.terms.items()})


# the (F_v, G_v) family of the otsuki-check command
_OTSUKI_FAMILY_A = {2: ([Fraction(1), Fraction(-1)],
                        [Fraction(1), Fraction(0), Fraction(-1)]),
                    3: ([Fraction(1), Fraction(-2)], [Fraction(1), Fraction(1)]),
                    5: ([Fraction(1), Fraction(-1), Fraction(2)],
                        [Fraction(1), Fraction(3)])}


def trace_check_args(m: int, ell: int, families: dict):
    """The primes dividing m*ell, after checking that otsuki_trace_check
    supports its arguments; raises ValueError (TypeError for a coefficient
    that is not an int or a Fraction) when it does not."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if m * ell > 512:  # phi(n) >= sqrt(n / 2) > 16
        raise ValueError("phi(m*ell) must be at most 16")
    if prime_factors(ell) != [ell]:
        raise ValueError(f"ell = {ell} is not a prime")
    if m % ell == 0:
        raise ValueError("ell must not divide m")
    if euler_phi(m * ell) > 16:
        raise ValueError("phi(m*ell) must be at most 16")
    primes = prime_factors(m * ell)
    _integral_families(families, primes)
    return primes


def otsuki_trace_check(m: int, ell: int, families: dict,
                       literal_reading: bool = False):
    """Verify the one-level weighted-trace identity for x'_m.

    ``families`` maps each prime v | m*ell to (F_v, G_v) as coefficient
    lists of ints and Fractions with constant term 1; ell must be a prime not
    dividing m and phi(m*ell) must be at most 16.  Returns (bool, witness).
    Both sides are computed on the integral families, in tau'_v = tau_v / s_v;
    a witness gives them in tau_v.  The left side is x'_(m ell) on the level
    m ell cover, traced to Q(zeta_m) in closed form (``trace_to_field``); the
    witness is the first basis index at which the sides differ.
    """
    M = m * ell
    primes = trace_check_args(m, ell, families)
    families, scales = _integral_families(families, primes)
    ring = PolyRing(tuple(f"tau{v}" for v in primes))
    cover = CycloCover(M, ring)
    ln, ld = trace_to_field(cover, m, corrected_element_cover(cover, M, families))
    # right side on the level-m cover: ell is a unit mod m, so sigma_hat_ell
    # and the plain Frobenius permute its basis, and projecting to Q(zeta_m)
    # commutes with both and with solving F_ell(sigma_hat_ell) x = v
    small = CycloCover(m, ring)
    F, G = families[ell]
    diff = poly_add([(ell - 1) * c for c in G], [-ell * c for c in F])
    rhs = small.apply_poly(diff, ell, corrected_element_cover(small, m, families))
    rhs = small.solve_poly(F, ell, rhs)
    # plain inverse Frobenius (= tau_ell * hatted inverse)
    rn, rd = project_to_field(small, small.frobenius(pow(ell, -1, m), rhs))
    if literal_reading:
        # hatted inverse instead: multiply the left side by tau_ell = s tau'
        t = ring.var(f"tau{ell}") * scales[ell]
        ln = [x * t for x in ln]
    for i, (a, b) in enumerate(zip(ln, rn)):
        if a * rd != b * ld:
            lhs_i, rhs_i = (f"({_unscaled(n, scales)}) / ({_unscaled(d, scales)})"
                            for n, d in ((a, ld), (b, rd)))
            return False, {"basis_index": i, "lhs": lhs_i, "rhs": rhs_i}
    return True, None
