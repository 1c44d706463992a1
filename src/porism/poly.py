"""Univariate polynomials over any supported field.

Coefficients are stored low degree first with a nonzero leading coefficient;
the zero polynomial has an empty coefficient tuple.  On top of the ring
arithmetic this module provides monic gcd, squarefree decomposition (with the
inseparable char-p cases handled by p-th-root extraction), full factorization
over finite fields (distinct-degree plus Cantor-Zassenhaus on a fixed random
stream) and root finding in a bounded extension tower.
"""

import random
from dataclasses import dataclass
from math import gcd as gcd_int, isqrt

from .errors import ExtensionOverflowError, FieldMismatchError, TheoremViolation
from .fields import (ExtensionField, FieldElement, QuadRationalField,
                     _poly_divmod, _poly_dot, lift_to_quadratic_extension)

# Largest constant or leading term (after clearing denominators) whose
# divisors the rational root search tries: at most 10^6 trial divisions.
MAX_RATIONAL_ROOT_TERM = 10**12
# Largest degree of a finite field's extension ``roots_in_closure`` adjoins
MAX_EXTENSION_DEGREE = 4


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = [field(c) for c in coeffs]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def lc(self):
        return self.coeffs[-1]

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else self.field.zero

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.field, [self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.field, [self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return Polynomial(self.field, [c * other for c in self.coeffs])
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return Polynomial(self.field, [])
        return _from_values(self.field, _poly_dot(
            self.field, (self._values(),), (other._values(),)))

    __rmul__ = __mul__

    def _values(self):
        return [c.value for c in self.coeffs]

    def _coerce(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"cannot combine Polynomial with {other!r}")
        if other.field != self.field:
            raise FieldMismatchError("polynomials over different fields")
        return other

    def __divmod__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _poly_divmod(self.field, self._values(), other._values())
        return _from_values(self.field, quot), _from_values(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n, mod=None):
        """self ** n; ``pow(self, n, mod)`` reduces after each product."""
        reduce = (lambda f: f) if mod is None else (lambda f: f % mod)
        result, base = Polynomial(self.field, [1]), reduce(self)
        while n:
            if n & 1:
                result = reduce(result * base)
            base = reduce(base * base)
            n >>= 1
        return result

    def __call__(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self):
        if self.is_zero() or self.lc == self.field.one:
            return self
        return self * self.lc.inv()

    def derivative(self):
        return Polynomial(self.field, [self.coeffs[i] * i
                                       for i in range(1, len(self.coeffs))])

    def map_field(self, new_field):
        """Embed the coefficients into a larger field of the tower."""
        return Polynomial(new_field, [new_field(c) for c in self.coeffs])

    def __repr__(self):
        if self.is_zero():
            return "Poly[0]"
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"Poly[{terms}]"


def _from_values(field, values):
    """The polynomial with the given raw coefficient values, the last one
    nonzero, built without coercing them again."""
    poly = object.__new__(Polynomial)
    poly.field, poly.coeffs = field, tuple([FieldElement(field, v) for v in values])
    return poly


def gcd(f, g):
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def _pth_root(f):
    """For f with f' = 0 over a finite field of char p, the g with g^p = f."""
    p = f.field.char
    q = f.field.size
    coeffs = [f[i * p] ** (q // p) for i in range(f.degree // p + 1)]
    return Polynomial(f.field, coeffs)


def squarefree_decomposition(f):
    """List of (monic squarefree g_i, multiplicity m_i), distinct m_i, with
    f = lc(f) * prod g_i^{m_i}."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    f = f.monic()
    parts = {}
    _sff(f, 1, parts)
    return [(g, m) for m, g in sorted(parts.items())]


def _sff(f, scale, parts):
    if f.degree == 0:
        return
    df = f.derivative()
    if df.is_zero():
        # inseparable: f = g(x^p)^1 with every exponent divisible by p
        _sff(_pth_root(f), scale * f.field.char, parts)
        return
    c = gcd(f, df)
    w = f // c
    i = 1
    while w.degree > 0:
        y = gcd(w, c)
        z = w // y
        if z.degree > 0:
            m = i * scale
            parts[m] = parts.get(m, Polynomial(f.field, [1])) * z
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        _sff(_pth_root(c), scale * f.field.char, parts)


def _ddf(f):
    """Distinct-degree factorization of a monic squarefree f over a finite
    field: list of (product-of-irreducibles-of-degree-d, d)."""
    q = f.field.size
    out = []
    x = Polynomial.x(f.field)
    xq = x
    d = 0
    rest = f
    while rest.degree > 2 * d:
        d += 1
        xq = pow(xq, q, rest)
        g = gcd(rest, xq - x)
        if g.degree > 0:
            out.append((g, d))
            rest = rest // g
            xq = xq % rest
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _random_poly(field, max_degree, rng):
    return Polynomial(field, [field.element(rng.randrange(field.size))
                              for _ in range(rng.randrange(1, max_degree + 1) + 1)])


def _edf(f, d, rng):
    """Cantor-Zassenhaus split of a monic product of irreducibles of degree d."""
    if f.degree == d:
        return [f]
    q = f.field.size
    while True:
        h = _random_poly(f.field, f.degree - 1, rng)
        if h.degree < 1:
            continue
        if f.field.char == 2:
            # trace map over F_2
            k = q.bit_length() - 1
            t = Polynomial(f.field, [])
            term = h % f
            for _ in range(k * d):
                t = t + term
                term = term * term % f
        else:
            t = pow(h, (q ** d - 1) // 2, f) - Polynomial(f.field, [1])
        g = gcd(f, t)
        if 0 < g.degree < f.degree:
            return _edf(g, d, rng) + _edf(f // g, d, rng)


def factor(f):
    """Full factorization over a finite field: list of (monic irreducible,
    multiplicity), sorted canonically.  The equal-degree split draws from
    ``random.Random(0)``; the sorted result does not depend on the draws."""
    if f.field.size is None:
        raise ValueError("factor() requires a finite field")
    if f.degree < 1:
        return []
    if f.degree == 2 and f.field.char != 2:
        roots = quadratic_roots(*f.coeffs)
        if not roots:
            return [(f.monic(), 1)]
        lines = [(Polynomial(f.field, [-r, 1]), m) for r, m in roots]
        lines.sort(key=lambda gm: gm[0][0].sort_key())
        return lines
    rng = random.Random(0)
    out = []
    for part, mult in squarefree_decomposition(f):
        for block, d in _ddf(part):
            for irr in _edf(block, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda gm: (gm[0].degree, [c.sort_key() for c in gm[0].coeffs]))
    if sum(g.degree * m for g, m in out) != f.degree:
        raise TheoremViolation("factor degrees do not add up")
    return out


def _monic_quadratic_roots(field, c0, c1, lift=True):
    """The one quadratic formula on raw values of a field K of characteristic
    other than two: (field, roots) of t^2 + c1 t + c0, (s - c1)/2 then
    (-c1 - s)/2 with s the canonical root of d = c1^2 - 4 c0, one root if
    d = 0.  A non-square d puts them in (big, s) =
    ``lift_to_quadratic_extension(d)``, a K-value v as (v, 0); without
    ``lift`` there are none."""
    add, neg, mul = field._add, field._neg, field._mul
    d = FieldElement(field, add(mul(c1, c1), neg(mul(field(4).value, c0))))
    s, big = d.sqrt(), field
    if s is None:
        if not lift:
            return field, []
        big, s = lift_to_quadratic_extension(d)
        c1 = (c1, field.zero.value)
        add, neg, mul = big._add, big._neg, big._mul
    half, s = big._inv(big(2).value), s.value
    if s == big.zero.value:
        return big, [mul(neg(c1), half)]
    return big, [mul(add(s, neg(c1)), half), mul(neg(add(c1, s)), half)]


def quadratic_roots(c0, c1, c2):
    """The roots of c2 t^2 + c1 t + c0, c2 nonzero, in the coefficients'
    field of characteristic other than two, as (root, multiplicity) pairs:
    (-c1 + s)/(2 c2), then (-c1 - s)/(2 c2), with s the canonical square
    root of the discriminant; one double root when it is zero, and none
    when it is not a square: u/c2 for u^2 + c1 u + c0 c2's roots u."""
    field = c2.field
    _, roots = _monic_quadratic_roots(field, (c0 * c2).value, c1.value, lift=False)
    inv = field._inv(c2.value)
    return [(FieldElement(field, field._mul(u, inv)), 3 - len(roots))
            for u in roots]


@dataclass(frozen=True)
class RootsWithMultiplicity:
    """Roots of a binary form of fixed degree; roots may live in extensions."""
    entries: tuple  # of (FieldElement, multiplicity)
    at_infinity: int

    def total(self):
        return sum(m for _, m in self.entries) + self.at_infinity


def _char0_roots(g):
    """Roots of a squarefree g over Q or Q(sqrt d), staying within one
    quadratic step above Q.  Returns list of FieldElement."""
    roots = []
    while g.degree > 2:
        r = _rational_root(g)
        if r is None:
            raise ExtensionOverflowError(
                f"no rational root found for {g!r} of degree {g.degree}")
        roots.append(r)
        g = g // Polynomial(g.field, [-r, 1])
    if g.degree == 1:
        return roots + [-g[0] / g[1]]
    return roots + adjoin_quadratic_roots(g[0], g[1])


def adjoin_quadratic_roots(c0, c1):
    """The roots of t^2 + c1 t + c0 in its field K or, when they are
    conjugate over K, in ``lift_to_quadratic_extension``'s field: K's one
    quadratic extension over a finite K, Q(sqrt(c1^2 - 4 c0)) over Q, an
    error above Q; (s - c1)/2, then (-c1 - s)/2, ``quadratic_roots``' order."""
    big, roots = _monic_quadratic_roots(c0.field, c0.value, c1.value)
    return [FieldElement(big, r) for r in roots]


def _rational_root(g):
    """One root of g in its own char-0 field, by the rational root theorem
    applied to the Q-coordinates, or None."""
    from fractions import Fraction
    field = g.field
    if isinstance(field, QuadRationalField):
        # search rational candidates only; conjugate-irrational roots of
        # higher-degree factors are out of scope
        comps = [c.value for c in g.coeffs]
        if any(v[1] != 0 for v in comps):
            return None
        fracs = [v[0] for v in comps]
    else:
        fracs = [c.value for c in g.coeffs]
    lcm = 1
    for fr in fracs:
        lcm = lcm * fr.denominator // gcd_int(lcm, fr.denominator)
    ints = [int(fr * lcm) for fr in fracs]
    if ints[0] == 0:
        return field.zero
    if max(abs(ints[0]), abs(ints[-1])) > MAX_RATIONAL_ROOT_TERM:
        raise ExtensionOverflowError(
            f"coefficients of {g!r} are too large for a rational root search")
    tops = _divisors(abs(ints[-1]))
    for a in _divisors(abs(ints[0])):
        for b in tops:
            for sign in (1, -1):
                cand = field(Fraction(sign * a, b))
                if g(cand).is_zero():
                    return cand
    return None


def _divisors(n):
    """The positive divisors of n, ascending."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def roots_in_closure(f):
    """All roots of f with multiplicities, in minimal tower extensions of
    f's field.  Raises ExtensionOverflowError past ``MAX_EXTENSION_DEGREE``
    or, in characteristic 0, past one quadratic step above Q."""
    if f.is_zero():
        raise ValueError("zero polynomial has every root")
    entries = []
    if f.field.size is not None:
        for irr, mult in factor(f):
            if irr.degree == 1:
                entries.append((-irr[0], mult))
                continue
            if irr.degree > MAX_EXTENSION_DEGREE:
                raise ExtensionOverflowError(
                    f"irreducible factor {irr!r} exceeds extension cap "
                    f"{MAX_EXTENSION_DEGREE}")
            if irr.degree == 2:
                roots = adjoin_quadratic_roots(irr[0], irr[1])
            else:
                ext = ExtensionField(f.field, irr.coeffs, check=False)
                roots = [ext.gen]
                for _ in range(irr.degree - 1):
                    roots.append(roots[-1] ** f.field.size)
            entries.extend((r, mult) for r in roots)
    else:
        for part, mult in squarefree_decomposition(f):
            for r in _char0_roots(part):
                entries.append((r, mult))
    # roots from different factors may live in different extensions; group by
    # field first so sort keys stay comparable
    entries.sort(key=lambda rm: (rm[0].field.spec_string(), rm[0].sort_key()))
    return RootsWithMultiplicity(tuple(entries), 0)


def binary_form_roots(field, coeffs, form_degree):
    """Roots of a binary form of degree at most 4 given by its dehomogenized
    coefficients (low-to-high in the affine variable); the degree drop is
    reported as multiplicity at the point at infinity."""
    f = Polynomial(field, coeffs)
    if f.is_zero():
        raise ValueError("zero form")
    at_inf = form_degree - f.degree
    if f.degree == 0:
        return RootsWithMultiplicity((), at_inf)
    inner = roots_in_closure(f)
    return RootsWithMultiplicity(inner.entries, at_inf)
