"""Double cosets of congruence subgroups and Iwahori double-coset invariants.

Congruence subgroups are materialized as explicit subsets of SL2(Z/L); for a
coset computation with a determinant-n matrix everything happens modulo
M = L*n.  SL2(Z/M) is enumerated as the product of its prime-power parts
(Chinese remainder theorem).  A right coset Gamma beta is named by a key:
the Hermite normal form H = [[a, b], [0, d]] of beta under SL2(Z), and the
class of Gamma u in SL2(Z/L) for the unimodular u with beta = u H.  Equal
keys mean equal right cosets, so grouping is a dict lookup.

coset_reps splits its scan by CRT.  With n = n1 n2, n2 the part of n whose
primes divide L, the level-M preimage of Gamma is X x Y for X the level-L*n2
preimage and Y = SL2(Z/n1).  The lattice of alpha g contains n Z^2, so its
Hermite form depends on alpha x mod n2 and alpha y mod n1 apart.  Y is split
by its n1-local lattice, the form of alpha y mod n1 at level n1, on the raw
y; X by the level-M form at one fixed y; one level-M form is computed per
pair of parts.  The label depends on x and H alone.  The least g of a fiber
is found one coordinate at a time: the least i-th entry of (x + e y) mod M
fixes, by CRT, the i-th entries of x and of y.  The key is not trusted on
its own: the representatives coset_reps returns are certified pairwise
inequivalent by same_right_coset, which tests beta' beta^-1 in Gamma
directly.

The Iwahori subgroup is the lower-triangular-mod-p one (upper-right entry
divisible by p); its double cosets in SL2(Q_p) are detected by the four
lattice-pair invariants of the standard chain, read as minima of the p-adic
valuations of the four entries, shifted by the diagonal basis matrices.  The
index of a cell conjugates by its representative scaled to an integer
matrix.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache, cached_property
from itertools import product
from math import gcd

from .arith import Record, VerificationError, factor, prime_factors
from .poly import QQ, _frac

Mat = tuple  # (a, b, c, d)


def mat_mul(x: Mat, y: Mat) -> Mat:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def mat_det(x: Mat):
    return x[0] * x[3] - x[1] * x[2]


def mat_adj(x: Mat) -> Mat:
    return (x[3], -x[1], -x[2], x[0])


def mat_mod(x: Mat, m: int) -> Mat:
    return tuple(v % m for v in x)


ENUMERATION_BOUND = 10 ** 6  # largest |SL2(Z/M)| we are willing to materialize


def sl2_order(m: int) -> int:
    n = m ** 3
    for p in prime_factors(m):
        n = n // (p * p) * (p * p - 1)
    return n


def _check_enumerable(m: int):
    """Raise ValueError when |SL2(Z/m)| exceeds the enumeration bound."""
    if sl2_order(m) > ENUMERATION_BOUND:
        raise ValueError(f"|SL2(Z/{m})| = {sl2_order(m)} exceeds the "
                         f"enumeration bound {ENUMERATION_BOUND}")


def _sl2_prime_power(q: int):
    """SL2(Z/q) for a prime power q (or q = 1) in q^3 steps: when a is a
    unit, d = (1 + bc) / a; otherwise ad is not a unit, so bc = ad - 1 is
    one, b is a unit and c = (ad - 1) / b."""
    out = []
    for a in range(q):
        if gcd(a, q) == 1:
            ainv = pow(a, -1, q)
            out += [(a, b, c, (1 + b * c) * ainv % q)
                    for b in range(q) for c in range(q)]
            continue
        for b in range(q):
            if gcd(b, q) == 1:
                binv = pow(b, -1, q)
                out += [(a, b, (a * d - 1) * binv % q, d) for d in range(q)]
    return out


def _sl2_parts(m: int):
    """Per prime power q exactly dividing m (just 1 for m = 1): q and all of
    SL2(Z/q), each element multiplied by the CRT idempotent e of q (e = 1
    mod q, e = 0 mod m/q), so that g = sum of its scaled parts mod m."""
    out = []
    for q in [q ** e for q, e in factor(m)] or [1]:
        e = m // q * pow(m // q, -1, q)
        out.append((q, [(e * a, e * b, e * c, e * d)
                        for a, b, c, d in _sl2_prime_power(q)]))
    return out


def _sl2_elements(m: int):
    """All of SL2(Z/m): the prime-power list itself when m is 1 or a prime
    power, else combined from its prime-power parts."""
    if len(factor(m)) <= 1:
        return _sl2_prime_power(m)
    parts = [part for _, part in _sl2_parts(m)]
    return [_combine(combo, m) for combo in product(*parts)]


def _combine(scaled, m: int) -> Mat:
    """The matrix mod m whose parts, already multiplied by their idempotents,
    are ``scaled``: g = sum of e_i g_i mod m."""
    a = b = c = d = 0
    for g in scaled:
        a, b, c, d = a + g[0], b + g[1], c + g[2], d + g[3]
    return a % m, b % m, c % m, d % m


class CongSubgroup:
    """A subgroup of SL2(Z/L) given by its element list.

    Membership of an integral matrix means determinant 1 and reduction mod L
    in the list.  Construction reduces the elements mod L and verifies closure
    under product and inverse.
    """

    def __init__(self, level: int, elements):
        self._setup(level, frozenset(mat_mod(g, level) for g in elements))
        self._closure_certificate()

    @classmethod
    def _from_reduced(cls, level: int, elements) -> "CongSubgroup":
        """The subgroup of ``elements``, tuples already reduced mod ``level``
        that form a group by construction: no reduction, no closure check."""
        self = cls.__new__(cls)
        self._setup(level, frozenset(elements))
        return self

    def _setup(self, level: int, elements: frozenset):
        self.level = level
        self.elements = elements
        self._preimages = {}  # M -> to_level(M)
        self._coset_reps = {}  # alpha.entries -> coset_reps(self, alpha)
        self._cells = {}  # right-coset key -> key set of its double coset

    def _closure_certificate(self):
        L = self.level
        eye = mat_mod((1, 0, 0, 1), L)
        if eye not in self.elements:
            raise ValueError("subgroup must contain the identity")
        for g in self.elements:
            if mat_mod(mat_adj(g), L) not in self.elements:
                raise ValueError(f"not closed under inverse at {g}")
        sample = list(self.elements)
        for g in sample:
            for h in sample:
                if mat_mod(mat_mul(g, h), L) not in self.elements:
                    raise ValueError(f"not closed under product at {g}, {h}")

    def __len__(self):
        return len(self.elements)

    @cached_property
    def class_table(self) -> dict:
        """Each element of SL2(Z/level) mapped to the label of its right
        coset Gamma g, labels counted in sorted order."""
        L, table = self.level, {}
        for g in sorted(_sl2_elements(L)):
            if g not in table:
                label = len(table) // len(self)
                for h in self.elements:
                    table[mat_mod(mat_mul(h, g), L)] = label
        return table

    def __contains__(self, g: Mat) -> bool:
        if mat_det(g) != 1:
            return False
        return mat_mod(g, self.level) in self.elements

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_condition(cls, level: int, condition):
        _check_enumerable(level)
        return cls._from_reduced(
            level, [g for g in _sl2_elements(level) if condition(g)])

    @classmethod
    def gamma1(cls, N: int):
        return cls.from_condition(
            N, lambda g: g[0] % N == 1 % N and g[3] % N == 1 % N and g[2] % N == 0)

    @classmethod
    def gamma0(cls, N: int):
        return cls.from_condition(N, lambda g: g[2] % N == 0)

    @classmethod
    def gamma_upper0(cls, N: int):
        return cls.from_condition(N, lambda g: g[1] % N == 0)

    @classmethod
    def sl2(cls, N: int = 1):
        return cls.from_condition(N, lambda g: True)

    def to_level(self, M: int) -> "CongSubgroup":
        """The preimage in SL2(Z/M) for L | M (strong approximation), built
        once per M: per prime power q^e exactly dividing M, group SL2(Z/q^e)
        by its reduction mod gcd(q^e, L); each element's preimage is the
        product of the fibers over its components, combined by CRT.  At
        M = L the preimage is the subgroup itself."""
        if M == self.level:
            return self
        if M in self._preimages:
            return self._preimages[M]
        if M % self.level != 0:
            raise ValueError("target level must be a multiple of the level")
        _check_enumerable(M)
        fibers = []
        for q, part in _sl2_parts(M):
            # l | q and e = 1 mod q: a scaled part reduces mod l as it is
            l, fiber = gcd(q, self.level), defaultdict(list)
            for g in part:
                fiber[mat_mod(g, l)].append(g)
            fibers.append((l, fiber))
        elements = [_combine(combo, M) for gamma in self.elements
                    for combo in product(*(fiber[mat_mod(gamma, l)]
                                           for l, fiber in fibers))]
        big = self._preimages[M] = CongSubgroup._from_reduced(M, elements)
        return big


def lift_sl2(g: Mat, M: int) -> Mat:
    """An integral SL2(Z) lift of a matrix in SL2(Z/M)."""
    a, b, c, d = mat_mod(g, M)
    if gcd(c, d, M) != 1:
        raise ValueError("bottom row is not primitive mod M; determinant not 1")
    # make the bottom row coprime
    cc, dd = c or M, d
    t = 0
    while gcd(cc, dd + t * M) != 1:
        t += 1
        if t > 4 * M:
            raise VerificationError("no coprime lift found")
    dd = dd + t * M
    # complete to determinant 1: x*dd - y*cc = 1
    x, y = _xgcd_pair(dd, cc)
    # adjust the top row into the right congruence class:
    # (a, b) = (x, y) + s*(cc, dd) mod M for some s
    s = next((s for s in range(M)
              if (x + s * cc - a) % M == 0 and (y + s * dd - b) % M == 0), None)
    if s is None:
        raise VerificationError("no top-row adjustment found (input not in SL2?)")
    lift = (x + s * cc, y + s * dd, cc, dd)
    if mat_det(lift) != 1 or mat_mod(lift, M) != (a, b, c % M, d % M):
        raise VerificationError(f"{lift} is not an SL2(Z) lift of {g} mod {M}")
    return lift


def _xgcd_pair(dd: int, cc: int):
    """x, y with x*dd - y*cc = 1."""
    old_r, r = dd, cc
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r == -1:
        old_s, old_t = -old_s, -old_t
    elif old_r != 1:
        raise ValueError("not coprime")
    return old_s, -old_t


class CosetMatrix(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: Mat):
        if mat_det(entries) <= 0:
            raise ValueError("coset matrices must have positive determinant")
        self.entries = entries

    @property
    def det(self):
        return mat_det(self.entries)

    def __mul__(self, other):
        return CosetMatrix(mat_mul(self.entries, other.entries))

    def __str__(self):
        a, b, c, d = self.entries
        return f"[{a} {b}; {c} {d}]"

    __repr__ = __str__


def same_right_coset(gamma: CongSubgroup, x: Mat, y: Mat) -> bool:
    """Gamma x = Gamma y for integral matrices of equal determinant."""
    n = mat_det(y)
    if mat_det(x) != n:
        return False
    z = mat_mul(x, mat_adj(y))
    if any(v % n for v in z):
        return False
    z = tuple(v // n for v in z)
    return z in gamma


def _hnf(beta: Mat, n: int):
    """(a, b, d) for the Hermite normal form [[a, b], [0, d]] under SL2(Z) of
    an integral beta of determinant n > 0 (ad = n, 0 <= b < d).  It is the
    form of the row lattice of beta, which contains n Z^2, so it depends only
    on beta mod n."""
    p, q, r, s = beta
    g = gcd(p, r)
    a = gcd(g, n)  # the gcd of the first column of the row lattice
    d = n // a
    b = 0
    if g:
        # x p - y r = g and c g = a mod n: the row c (x, -y) beta of the
        # lattice is (a, c (x q - y s)) mod n
        x, y = _xgcd_pair(p // g, r // g)
        b = pow(g // a, -1, d) * (x * q - y * s) % d
    return a, b, d


def _label(gamma: CongSubgroup, w: Mat, hnf, m: int, unit: int):
    """The label in gamma.class_table of u = unit * w adj(H) / m mod L, for
    H = [[a, b], [0, d]] given as hnf = (a, b, d) and m dividing w adj(H)."""
    p, q, r, s = w
    a, b, d = hnf
    u = (p * d // m, (a * q - b * p) // m, r * d // m, (a * s - b * r) // m)
    return gamma.class_table[tuple(unit * v % gamma.level for v in u)]


def right_coset_key(gamma: CongSubgroup, beta: Mat, n: int):
    """A key of the right coset Gamma beta of an integral beta of determinant
    n > 0: keys agree exactly when the right cosets do, whatever the two
    determinants.

    beta = u H with u in SL2(Z) and H = [[a, b], [0, d]] its Hermite normal
    form (ad = n, 0 <= b < d); the key is (a, b, d, the label of u mod L in
    gamma.class_table).  It depends only on beta mod L*n, so beta may be any
    matrix congruent mod L*n to one of determinant n: u = beta adj(H) / n is
    then exact mod L, since beta adj(H) is congruent to n u mod L*n.
    """
    hnf = _hnf(beta, n)
    return (*hnf, _label(gamma, beta, hnf, n, 1))


def _crt_fibers(gamma: CongSubgroup, alpha: CosetMatrix):
    """The level-M preimage of Gamma (M = L n, n = det alpha) grouped by the
    right-coset key of alpha g: M, e and a list of (key, xs, ys) in which g
    runs over the (x + e y) mod M for x in xs and y in ys.

    The preimage is X x Y by CRT, X the level-L*n2 preimage and Y = SL2(Z/n1),
    where n2 is the part of n whose primes divide L and n1 = n / n2; x comes
    scaled by its CRT idempotent, y raw, and e is the idempotent of n1.  Y is
    split by the Hermite form of alpha y mod n1 at level n1: the row lattice
    of alpha y plus n1 Z^2 has index n1, since n2 and det y are units at the
    primes of n1, and it is the n1-local part of the lattice of alpha g.  X is
    split by the level-M form of alpha g at one fixed y; each pair of parts
    has one form H.  Within a pair, x has the label of
    u = n1^-1 (alpha x adj(H) / n2) mod L, since alpha x adj(H) is congruent
    to n u mod L*n2."""
    n, L, a = alpha.det, gamma.level, alpha.entries
    M = L * n
    _check_enumerable(M)
    n1 = n
    while gcd(n1, L) > 1:
        n1 //= gcd(n1, L)
    m, n2 = M // n1, n // n1
    ex, ey = n1 * pow(n1, -1, m), m * pow(m, -1, n1)
    xs = [(mat_mul(a, x), tuple(ex * v for v in x))
          for x in gamma.to_level(m).elements]
    ys, a1 = _sl2_elements(n1), mat_mod(a, n1)

    def hnf(x, y):
        return _hnf(mat_mul(a, tuple((u + ey * v) % M for u, v in zip(x, y))), n)

    x_parts, y_parts = defaultdict(list), defaultdict(list)
    for x in xs:
        x_parts[hnf(x[1], ys[0])].append(x)
    for y in ys:
        y_parts[_hnf(mat_mul(a1, y), n1)].append(y)
    unit, fibers = pow(n1, -1, L), []
    for px in x_parts.values():
        for py in y_parts.values():
            h = hnf(px[0][1], py[0])
            by_label = defaultdict(list)
            for ax, x in px:
                by_label[_label(gamma, ax, h, n2, unit)].append(x)
            fibers += [((*h, label), fx, py) for label, fx in by_label.items()]
    return M, ey, fibers


def _least_combination(xs, ys, e: int, M: int) -> Mat:
    """The least (x + e y) mod M over x in xs and y in ys, found one entry at
    a time: the values mod M of the i-th entries are distinct for distinct
    pairs (x_i, y_i) by CRT, so the least one fixes x_i and y_i, and only the
    x and y that carry them stay in play for the next entry."""
    g = []
    for i in range(4):
        v, u, w = min(((u + e * w) % M, u, w)
                      for u in {x[i] for x in xs} for w in {y[i] for y in ys})
        g.append(v)
        xs = [x for x in xs if x[i] == u]
        ys = [y for y in ys if y[i] == w]
    return tuple(g)


def coset_reps(gamma: CongSubgroup, alpha: CosetMatrix):
    """Right-coset representatives delta_i with Gamma alpha Gamma equal to the
    disjoint union of the Gamma delta_i, as a tuple kept per subgroup.

    Gamma alpha g for g in the level-M preimage of Gamma runs over the right
    cosets; the least g of each key is lifted to SL2(Z), in sorted order.
    The keys come from the CRT split of _crt_fibers: Y = SL2(Z/n1) split by
    its n1-local lattice, one level-M Hermite form per pair of parts and one
    label per level-side element, not one key per g; the least g of a key is
    its fiber's least CRT combination, found one entry at a time."""
    if alpha.entries in gamma._coset_reps:
        return gamma._coset_reps[alpha.entries]
    a = alpha.entries
    M, e, fibers = _crt_fibers(gamma, alpha)
    keys = {key: _least_combination(xs, ys, e, M) for key, xs, ys in fibers}
    reps = tuple(CosetMatrix(mat_mul(a, lift_sl2(g, M)))
                 for g in sorted(keys.values()))
    # certificate independent of the key: pairwise inequivalent
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if same_right_coset(gamma, reps[i].entries, reps[j].entries):
                raise VerificationError(f"{reps[i]} and {reps[j]} share a coset")
    gamma._coset_reps[alpha.entries] = reps
    cell = frozenset(keys)
    gamma._cells.update(dict.fromkeys(cell, cell))
    return reps


def _cell_keys(gamma: CongSubgroup, alpha: CosetMatrix) -> frozenset:
    """The right-coset keys of Gamma alpha Gamma, from the map coset_reps
    fills per subgroup."""
    key = right_coset_key(gamma, alpha.entries, alpha.det)
    if key not in gamma._cells:
        coset_reps(gamma, alpha)
    return gamma._cells[key]


def double_coset_multiply(gamma: CongSubgroup, alpha: CosetMatrix,
                          beta: CosetMatrix):
    """Product of two double cosets in the abstract algebra.

    Returns a list of (representative, multiplicity, degree) triples, one per
    constituent double coset; multiplicity counting is verified to be constant
    across the right cosets of each constituent.
    """
    da = coset_reps(gamma, alpha)
    db = coset_reps(gamma, beta)
    n = alpha.det * beta.det
    # group the products into right cosets: key -> [first product, count]
    groups = {}
    for x in da:
        for y in db:
            prod_mat = mat_mul(x.entries, y.entries)
            groups.setdefault(right_coset_key(gamma, prod_mat, n),
                              [prod_mat, 0])[1] += 1
    # group the right cosets into double cosets
    result = []
    while groups:
        rep = CosetMatrix(next(iter(groups.values()))[0])
        cell = coset_reps(gamma, rep)
        counts = [groups.pop(k)[1] for k in _cell_keys(gamma, rep) if k in groups]
        if len(set(counts)) != 1:
            raise VerificationError("multiplicity not constant on a double coset")
        if len(counts) != len(cell):
            raise VerificationError("product does not cover a full double coset")
        canonical = min(c.entries for c in cell)
        result.append((CosetMatrix(canonical), counts[0], len(cell)))
    result.sort(key=lambda t: t[0].entries)
    return result


def same_double_coset(gamma: CongSubgroup, x: CosetMatrix, y: CosetMatrix) -> bool:
    if x.det != y.det:
        return False
    return right_coset_key(gamma, y.entries, y.det) in _cell_keys(gamma, x)


def diamond_matrix(d: int, N: int) -> CosetMatrix:
    """An SL2(Z) matrix congruent to diag(d^-1, d) mod N."""
    dinv = pow(d, -1, N)
    g = lift_sl2((dinv % N, 0, 0, d % N), N)
    return CosetMatrix(g)


def check_square_identity_args(N: int, p: int):
    """Check that t_prime_square_identity supports (N, p): a positive level,
    a prime p not dividing it, and |SL2(Z/N p^2)| within the enumeration
    bound; raises ValueError when it does not."""
    if N < 1:
        raise ValueError(f"the level must be positive, got {N}")
    if (N * p * p) ** 3 > 2 * ENUMERATION_BOUND:  # |SL2(Z/m)| > m^3 / 2
        raise ValueError(f"|SL2(Z/{N * p * p})| exceeds the enumeration "
                         f"bound {ENUMERATION_BOUND}")
    if prime_factors(p) != [p]:
        raise ValueError(f"p = {p} is not a prime")
    if N % p == 0:
        raise ValueError("p must not divide the level")
    _check_enumerable(N * p * p)


def t_prime_square_identity(N: int, p: int):
    """Decompose (T'_p)^2 = S'_p + (p+1) <p^-1> R_p by multiplicity counting.

    T'_p is the double coset of diag(p, 1), S'_p of diag(p^2, 1) and R_p of
    diag(p, p).  Returns a report dict; report['holds'] is the verdict and
    report['diamond'] records which diamond twist the degree-1 constituent
    realizes (it must be the one congruent to diag(p, p^-1}) mod N).
    """
    check_square_identity_args(N, p)
    gamma = CongSubgroup.gamma1(N)
    tp = CosetMatrix((p, 0, 0, 1))
    prod = double_coset_multiply(gamma, tp, tp)
    report = {"level": N, "prime": p, "constituents": []}
    sp = CosetMatrix((p * p, 0, 0, 1))
    # candidate degree-1 cells: p * (matrix congruent to diag(d, d^-1) mod N)
    sigma_fwd = diamond_matrix(pow(p, -1, N), N)   # congruent to diag(p, p^-1)
    sigma_bwd = diamond_matrix(p % N, N)           # congruent to diag(p^-1, p)
    cand_fwd = CosetMatrix(tuple(p * v for v in sigma_fwd.entries))
    cand_bwd = CosetMatrix(tuple(p * v for v in sigma_bwd.entries))
    found_s = found_diamond = None
    diamond_kind = None
    for rep, mult, degree in prod:
        entry = {"rep": str(rep), "multiplicity": mult, "degree": degree}
        if same_double_coset(gamma, rep, sp):
            entry["cell"] = "S'"
            found_s = mult
        elif same_double_coset(gamma, rep, cand_fwd):
            entry["cell"] = "<p^-1> R_p"
            found_diamond = mult
            diamond_kind = "diag(p, p^-1) mod N"
        elif same_double_coset(gamma, rep, cand_bwd):
            entry["cell"] = "<p> R_p"
            found_diamond = mult
            diamond_kind = "diag(p^-1, p) mod N"
        else:
            entry["cell"] = "unexpected"
        report["constituents"].append(entry)
    report["diamond"] = diamond_kind
    report["holds"] = (found_s == 1 and found_diamond == p + 1
                       and len(prod) == 2
                       and diamond_kind == "diag(p, p^-1) mod N")
    report["holds_any_diamond"] = (found_s == 1 and found_diamond == p + 1
                                   and len(prod) == 2)
    return report


# ---------------------------------------------------------------------------
# Iwahori double cosets in SL2(Q_p)
# ---------------------------------------------------------------------------

class IwahoriCell(Record):
    __slots__ = ("kind", "exponent")

    def __init__(self, kind: str, exponent: int):
        self.kind = kind            # "diagonal" | "antidiagonal"
        self.exponent = exponent

    def integral_representative(self, p: int):
        """p^|j| times the representative: (p^j, 0; 0, p^-j) or
        (0, -p^-j; p^j, 0) scaled to an integer matrix."""
        j = self.exponent
        hi, lo = p ** (abs(j) + j), p ** (abs(j) - j)
        if self.kind == "diagonal":
            return (hi, 0, 0, lo)
        return (0, -lo, hi, 0)

    def representative(self, p: int):
        k = p ** abs(self.exponent)
        return tuple(QQ(x, k) for x in self.integral_representative(p))

    def __str__(self):
        return f"{self.kind}({self.exponent})"


def _val(x, p: int):
    """p-adic valuation of an int or a Fraction (None for 0), read from its
    numerator and denominator."""
    if not x:
        return None
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _pair_invariant(g, p: int):
    """The four lattice-pair invariants of g against the standard chain.

    For basis matrices B_i = diag(p^i, 1), i in {0, 1}, the invariant e(i, j)
    is the minimal valuation of the entries of B_i^-1 g B_j = (a p^(j-i),
    b p^-i; c p^j, d): the valuations of a, b, c, d shifted by j - i, -i, j
    and 0.  The quadruple (e00, e11, e01, e10) separates the Iwahori double
    cosets.
    """
    g = tuple(_frac(v) for v in g)
    a, b, c, d = g
    if a * d - b * c != 1:
        raise ValueError("matrix must lie in SL2(Q)")
    vals = [_val(x, p) for x in g]

    def emin(i, j):
        return min(v + s for v, s in zip(vals, (j - i, -i, j, 0)) if v is not None)

    return emin(0, 0), emin(1, 1), emin(0, 1), emin(1, 0)


def iwahori_invariant(g, p: int) -> IwahoriCell:
    """The Iwahori double-coset invariant of g in SL2(Q_p), found by matching
    the lattice-pair invariants against the cell representatives.

    The first invariant, the minimal entry valuation, is -|j| for both cells
    of exponent j and does not change under SL2(Z_p) on either side, so only
    j = +-e00 can match.  Raises ValueError unless p is a prime."""
    if not isinstance(p, int) or prime_factors(p) != [p]:
        raise ValueError(f"p = {p} is not a prime")
    inv = _pair_invariant(g, p)
    for j in (inv[0], -inv[0]):
        for kind in ("diagonal", "antidiagonal"):
            if _cell_invariant(kind, j, p) == inv:
                return IwahoriCell(kind, j)
    raise VerificationError("no Iwahori cell matched")


@cache
def _cell_invariant(kind: str, j: int, p: int):
    """The lattice-pair invariants of the representative of the Iwahori cell
    (kind, j) at p."""
    return _pair_invariant(IwahoriCell(kind, j).representative(p), p)


def iwahori_index(g, p: int, mutate: bool = False) -> int:
    """[U : U cap g^-1 U g] for the lower-triangular-mod-p Iwahori U.

    Computed on the cell representative rep: conjugating the two unipotent
    one-parameter subgroups locates the thresholds r (upper entry) and s
    (lower entry); the index is p^(r + s - 1).  The conjugation runs on the
    integer matrix R = p^|j| rep, whose adjugate is p^|j| rep^-1, so rep m
    rep^-1 = R m adj(R) / p^(2|j|): valuations drop by 2|j|.
    """
    cell = iwahori_invariant(g, p)
    R = cell.integral_representative(p)
    drop = 2 * abs(cell.exponent)

    def threshold(m, base_threshold):
        # the unipotent m at t = 1, conjugated; its entries are linear in t
        image = mat_mul(mat_mul(R, m), mat_adj(R))
        if image[1] != 0:
            return max(base_threshold, 1 - (_val(image[1], p) - drop))
        return max(base_threshold, 0 - (_val(image[2], p) - drop))

    # upper unipotent (1, t; 0, 1): in U iff v(t) >= 1
    r = threshold((1, 1, 0, 1), 1)
    # lower unipotent (1, 0; t, 1): in U iff v(t) >= 0
    s = threshold((1, 0, 1, 1), 0)
    if mutate:
        return p ** (r + s)
    return p ** (r + s - 1)


def _iwahori_table(p):
    """(rows, misses): rows {j, diagonal, antidiagonal} give the Iwahori
    indices of the two cells of exponent j = 0..3 at p, and misses the
    (kind, j) whose index is not p^(2j), resp. p^(2j+1)."""
    rows, misses = [], []
    for j in range(4):
        row = {"j": j}
        for kind, tag, e in (("diagonal", "diag", 2 * j),
                             ("antidiagonal", "anti", 2 * j + 1)):
            row[kind] = iwahori_index(IwahoriCell(kind, j).representative(p), p)
            if row[kind] != p ** e:
                misses.append((tag, j))
        rows.append(row)
    return rows, misses
