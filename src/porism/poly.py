"""Univariate polynomials over any supported field.

Coefficients are stored as raw values, low degree first with a nonzero
leading one; the zero polynomial has none.  On top of the ring
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
                     _lift, _poly_divmod, _poly_dot)

# Largest constant or leading term (after clearing denominators) whose
# divisors the rational root search tries: at most 10^6 trial divisions.
MAX_RATIONAL_ROOT_TERM = 10**12
# Largest degree of a finite field's extension ``roots_in_closure`` adjoins
MAX_EXTENSION_DEGREE = 4


class Polynomial:
    """A polynomial over ``field``, stored once as its raw ``values``;
    ``coeffs``, ``lc`` and ``f[i]`` wrap them as elements on each read."""

    __slots__ = ("field", "values")

    def __init__(self, field, coeffs):
        self.field = field
        self.values = _trim(field, [field(c).value for c in coeffs])

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    @property
    def coeffs(self):
        return tuple([FieldElement(self.field, v) for v in self.values])

    @property
    def degree(self):
        return len(self.values) - 1  # -1 for the zero polynomial

    @property
    def lc(self):
        return FieldElement(self.field, self.values[-1])

    def is_zero(self):
        return not self.values

    def __getitem__(self, i):
        if i < len(self.values):
            return FieldElement(self.field, self.values[i])
        return self.field.zero

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.field == other.field
                and self.values == other.values)

    def __hash__(self):
        return hash((self.field, self.values))

    def __add__(self, other):
        other = self._coerce(other)
        return _from_values(self.field, _add(self.field, self.values,
                                             other.values))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return _from_values(self.field, list(map(self.field._neg, self.values)))

    def __mul__(self, other):
        field = self.field
        if isinstance(other, (int, FieldElement)):
            b = field.one._raw(other)
            return _from_values(field, [field._mul(c, b) for c in self.values])
        other = self._coerce(other)
        return _from_values(field, _prod(field, self.values, other.values))

    __rmul__ = __mul__

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
        quot, rem = _poly_divmod(self.field, self.values, other.values)
        return _from_values(self.field, quot), _from_values(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n, mod=None):
        """self ** n, n >= 0; ``pow(self, n, mod)`` reduces each product."""
        if n < 0:
            raise ValueError("a polynomial has no negative powers")
        m = None if mod is None else self._coerce(mod).values
        if m == ():
            raise ZeroDivisionError("polynomial division by zero")
        return _from_values(self.field, _power(self.field, self.values, n, m))

    def __call__(self, x):
        field = self.field
        b, acc = field.one._raw(x), field.zero.value
        for c in reversed(self.values):
            acc = field._add(field._mul(acc, b), c)
        return FieldElement(field, acc)

    def monic(self):
        if self.is_zero():
            return self
        return _from_values(self.field, _monic(self.field, self.values))

    def map_field(self, new_field):
        """Embed the coefficients into a larger field of the tower."""
        return Polynomial(new_field, self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly[0]"
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"Poly[{terms}]"


def _from_values(field, values):
    """The polynomial with the raw coefficient values ``values``, low degree
    first, without their trailing zeros; none is coerced."""
    poly = object.__new__(Polynomial)
    poly.field, poly.values = field, _trim(field, list(values))
    return poly


def gcd(f, g):
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    return _from_values(f.field, _gcd(f.field, f.values, f._coerce(g).values))


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
    """The list f without its trailing zeros, as a tuple."""
    zero = field.zero.value
    while f and f[-1] == zero:
        f.pop()
    return tuple(f)


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
            for g, m in _squarefree(f.field, f.values)]


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
        h = _trim(field, [field._element(rng.randrange(q))
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
    raw = _monic(field, f.values)
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
    (-c1 - s)/2 with s the canonical root ``K._sqrt(d)`` of the raw
    d = c1^2 - 4 c0, one root if d = 0.  A non-square d puts them in
    (big, s) = ``lift_to_quadratic_extension(d)`` on raw values, a K-value v
    as (v, 0); without ``lift`` there are none."""
    add, neg, mul, one = field._add, field._neg, field._mul, field.one.value
    two = add(one, one)
    d = add(mul(c1, c1), neg(mul(add(two, two), c0)))
    s, big = field._sqrt(d), field
    if s is None:
        if not lift:
            return field, []
        big, s = _lift(field, d)
        c1, two = (c1, field.zero.value), (two, field.zero.value)
        add, neg, mul = big._add, big._neg, big._mul
    half = big._inv(two)
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
        if any(v[1] != 0 for v in g.values):
            return None
        fracs = [v[0] for v in g.values]
    else:
        fracs = g.values
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
    f = Polynomial(field, coeffs)  # roots_in_closure refuses the zero form
    return RootsWithMultiplicity(roots_in_closure(f).entries,
                                 form_degree - f.degree)
