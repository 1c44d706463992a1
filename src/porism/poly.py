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
        return _from_values(self.field, _prod(self.field, self._values(),
                                              other._values()))

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
        m = None if mod is None else self._coerce(mod)._values()
        if m == []:
            raise ZeroDivisionError("polynomial division by zero")
        return _from_values(self.field, _power(self.field, self._values(), n, m))

    def __call__(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self):
        if self.is_zero() or self.lc == self.field.one:
            return self
        return self * self.lc.inv()

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
    return _from_values(f.field, _gcd(f.field, f._values(), f._coerce(g)._values()))


# Factoring over a finite field runs on raw coefficient lists, low degree
# first and trimmed, through the field's raw arithmetic and ``_poly_dot``/
# ``_poly_divmod``, which work on plain ints over F_p; Polynomials are built
# only for the factors returned.

def _monic(field, f):
    lead = f[-1]
    if lead == field.one.value:
        return f
    inv, mul = field._inv(lead), field._mul
    return [mul(c, inv) for c in f]


def _prod(field, f, g):
    return _poly_dot(field, (f,), (g,)) if f and g else []


def _mod(field, f, g):
    return _poly_divmod(field, f, g)[1]


def _trim(field, f):
    """The list f without its trailing zeros."""
    zero = field.zero.value
    while f and f[-1] == zero:
        f.pop()
    return f


def _add(field, f, g):
    if len(f) < len(g):
        f, g = g, f
    return _trim(field, [*map(field._add, f, g), *f[len(g):]])


def _gcd(field, f, g):
    while g:
        f, g = g, _mod(field, f, g)
    return _monic(field, f) if f else f


def _power(field, f, n, m=None):
    """f^n by square-and-multiply, reduced modulo m after each product when
    m is given."""
    def reduce(g):
        return g if m is None else _mod(field, g, m)
    result, base = [field.one.value], reduce(f)
    while n:
        if n & 1:
            result = reduce(_prod(field, result, base))
        base = reduce(_prod(field, base, base))
        n >>= 1
    return result


def _pth_root(field, f):
    """For f with f' = 0 over a finite field of char p, the g with g^p = f."""
    p, pw, e = field.char, field._pow, field.size // field.char
    return [pw(c, e) for c in f[::p]]


def squarefree_decomposition(f):
    """List of (monic squarefree g_i, multiplicity m_i), distinct m_i, with
    f = lc(f) * prod g_i^{m_i}."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    return [(_from_values(f.field, g), m)
            for g, m in _squarefree(f.field, f._values())]


def _squarefree(field, f):
    """``squarefree_decomposition`` on raw lists: Yun's loop on f and its
    derivative, with a p-th root where the derivative vanishes."""
    parts = {}
    _sff(field, _monic(field, f), 1, parts)
    return [(g, m) for m, g in sorted(parts.items())]


def _sff(field, f, scale, parts):
    if len(f) == 1:
        return
    mul, canon = field._mul, field._canon
    df = _trim(field, [mul(c, canon(i)) for i, c in enumerate(f[1:], 1)])
    if not df:
        # inseparable: f = g(x^p)^1 with every exponent divisible by p
        _sff(field, _pth_root(field, f), scale * field.char, parts)
        return
    c = _gcd(field, f, df)
    w = _poly_divmod(field, f, c)[0]
    i = 1
    while len(w) > 1:
        y = _gcd(field, w, c)
        z = _poly_divmod(field, w, y)[0]
        if len(z) > 1:
            m = i * scale
            parts[m] = _prod(field, parts.get(m, [field.one.value]), z)
        w = y
        c = _poly_divmod(field, c, y)[0]
        i += 1
    if len(c) > 1:
        _sff(field, _pth_root(field, c), scale * field.char, parts)


def _ddf(field, f):
    """Distinct-degree factorization of a monic squarefree f over a finite
    field: list of (product-of-irreducibles-of-degree-d, d)."""
    q, zero, one = field.size, field.zero.value, field.one.value
    out, xq, d, rest = [], [zero, one], 0, f
    while len(rest) - 1 > 2 * d:
        d += 1
        xq = _power(field, xq, q, rest)
        g = _gcd(field, rest, _add(field, xq, [zero, field._neg(one)]))
        if len(g) > 1:
            out.append((g, d))
            rest = _poly_divmod(field, rest, g)[0]
            xq = _mod(field, xq, rest)
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _edf(field, f, d, rng):
    """Cantor-Zassenhaus split of a monic product of irreducibles of degree
    d, drawing random polynomials of degree below f's from ``rng``."""
    if len(f) - 1 == d:
        return [f]
    q, minus_one = field.size, [field._neg(field.one.value)]
    while True:
        h = _trim(field, [field.element(rng.randrange(q)).value
                          for _ in range(rng.randrange(1, len(f) - 1) + 1)])
        if len(h) < 2:
            continue
        if field.char == 2:
            # trace map over F_2
            t, term = [], _mod(field, h, f)
            for _ in range((q.bit_length() - 1) * d):
                t = _add(field, t, term)
                term = _mod(field, _prod(field, term, term), f)
        else:
            t = _add(field, _power(field, h, (q ** d - 1) // 2, f), minus_one)
        g = _gcd(field, f, t)
        if 1 < len(g) < len(f):
            return (_edf(field, g, d, rng)
                    + _edf(field, _poly_divmod(field, f, g)[0], d, rng))


def factor(f):
    """Full factorization over a finite field: list of (monic irreducible,
    multiplicity), sorted canonically.  The equal-degree split draws from
    ``random.Random(0)``; the sorted result does not depend on the draws."""
    field = f.field
    if field.size is None:
        raise ValueError("factor() requires a finite field")
    if f.degree < 1:
        return []
    raw = _monic(field, f._values())
    if f.degree == 2 and field.char != 2:
        _, roots = _monic_quadratic_roots(field, raw[0], raw[1], lift=False)
        if not roots:
            return [(_from_values(field, raw), 1)]
        out = [([field._neg(r), field.one.value], 3 - len(roots)) for r in roots]
    else:
        rng = random.Random(0)
        out = [(irr, mult) for part, mult in _squarefree(field, raw)
               for block, d in _ddf(field, part)
               for irr in _edf(field, block, d, rng)]
        if sum((len(g) - 1) * m for g, m in out) != f.degree:
            raise TheoremViolation("factor degrees do not add up")
    out.sort(key=lambda gm: (len(gm[0]), [field._sort_key(c) for c in gm[0]]))
    return [(_from_values(field, g), m) for g, m in out]


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
    error above Q; (s - c1)/2, then (-c1 - s)/2."""
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
