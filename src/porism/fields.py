"""Exact field arithmetic.

Supported fields:

* ``PrimeField(p)``        -- F_p for an odd (or 2, for the appendix tools) prime p
* ``ExtensionField(K, m)`` -- K[x]/(m) for a monic irreducible m over a
  finite K, so finite fields F_{p^k} and towers above them; two kernels
  (``_prime_kernel`` over F_p, ``_tower_kernel`` over an extension) do the
  arithmetic, and each modulus is checked with Rabin's test on that kernel
* ``RationalField()``      -- the rationals, with exact Fraction coordinates
* ``QuadRationalField(d)`` -- Q(sqrt d) for a non-square rational d

Every field has ``_add``, ``_neg``, ``_mul``, ``_inv`` and ``_dot`` (the sum
of u_i v_i) on raw values; ``_dot`` reduces once per output coefficient on
F_p and in degrees 2 and 3 over it, and is built from the base's dots in
a degree-2 tower.

Polynomials on any field's raw values have one product (``_poly_dot``), one
division (``_poly_divmod``) and one extended Euclid (``_poly_inverse``),
shared by both kernels (every inverse above degree 3 is the Euclid's) and
``porism.poly``; over F_p the product and the division run on plain ints.

Elements are immutable and stored in canonical form (residues reduced,
fractions in lowest terms, coefficient tuples padded to full length), so
``==`` and ``hash`` work structurally.  A field reads ints (and Fractions
over Q), never floats.  Elements combine only within one field, and with
ints; ``new_field(x)`` is the one coercion, from a field into an extension
of it.  Where a square root has two choices the canonically smaller one (by
``sort_key``) is returned, which keeps every run reproducible.  Every
quadratic step is ``lift_to_quadratic_extension``'s; over an odd finite K
it lands in K's one quadratic extension K[x]/(x^2 - n), built once per K.
"""

import re
import sys
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import isqrt
from operator import mul as _imul

from .errors import (DigitLimitError, ExtensionOverflowError, FieldMismatchError,
                     TheoremViolation)

# Residue cap for prime fields; desk-scale experiments never get close.
MAX_PRIME = 2**31
_DIGIT_LIMIT = "a number has more than {} digits, Python's int-to-text limit"


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _fraction_sqrt(q):
    """Exact square root of a Fraction, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class FieldElement:
    """An immutable element of one of the supported fields."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    def _raw(self, other):
        """The raw value of ``other`` in this element's field: an int is
        coerced, an element of another field raises, and anything else is
        NotImplemented."""
        if isinstance(other, int):
            return self.field(other).value
        if not isinstance(other, FieldElement):
            return NotImplemented
        if self.field is other.field or self.field == other.field:
            return other.value
        raise FieldMismatchError(
            f"elements of {self.field} and {other.field} cannot be combined")

    def __add__(self, other):
        b = self._raw(other)
        if b is NotImplemented:
            return b
        return FieldElement(self.field, self.field._add(self.value, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._raw(other)
        if b is NotImplemented:
            return b
        field = self.field
        return FieldElement(field, field._add(self.value, field._neg(b)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        b = self._raw(other)
        if b is NotImplemented:
            return b
        return FieldElement(self.field, self.field._mul(self.value, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._raw(other)
        if b is NotImplemented:
            return b
        return self * FieldElement(self.field, b).inv()

    def __rtruediv__(self, other):
        return self.inv().__mul__(other)

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.value))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self.inv() if n < 0 else self
        return FieldElement(self.field, self.field._pow(base.value, abs(n)))

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FieldElement(self.field, self.field._inv(self.value))

    def is_zero(self):
        return self.value == self.field.zero.value

    def sqrt(self):
        """Canonical square root in this field, or None if there is none."""
        return self.field.sqrt(self)

    def sort_key(self):
        return self.field._sort_key(self.value)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return ((self.field is other.field or self.field == other.field)
                and self.value == other.value)

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        try:
            return self.field._render(self.value)
        except ValueError:  # only CPython's int-to-text digit limit
            raise DigitLimitError(_DIGIT_LIMIT.format(
                sys.get_int_max_str_digits())) from None

    def __repr__(self):
        return f"{self.field._render(self.value)} in {self.field}"


class Field:
    """Common behaviour of the concrete field classes.  A field is known by
    its spec string ``_spec``, computed once: equality, hashing and the
    printed name all read it."""

    char = None
    size = None  # number of elements, None when infinite

    def __call__(self, v):
        """``v`` as an element of this field: an element of it or of a field
        below it in its tower, or what ``_canon`` reads (an int, say)."""
        if isinstance(v, FieldElement):
            if v.field is self or v.field == self:
                return v
            if self.contains(v.field):
                return FieldElement(self, self._embed(v))
            raise FieldMismatchError(f"cannot coerce {v!r} into {self}")
        return FieldElement(self, self._canon(v))

    @cached_property
    def zero(self):
        return FieldElement(self, self._canon(0))

    @cached_property
    def one(self):
        return FieldElement(self, self._canon(1))

    def contains(self, other):
        return self == other

    def _sort_key(self, a):
        return a

    def _render(self, a):
        return str(a)

    def _pow(self, a, n):
        """a^n on raw values for n >= 0, by square-and-multiply on ``_mul``."""
        result, mul = self.one.value, self._mul
        while n:
            if n & 1:
                result = mul(result, a)
            a = mul(a, a)
            n >>= 1
        return result

    def sqrt(self, elem):
        """The canonical square root of ``elem``, or None: ``_sqrt``'s."""
        r = self._sqrt(elem.value)
        return None if r is None else FieldElement(self, r)

    def _sqrt(self, a):
        """The canonical square root of the raw value ``a`` in a finite
        field, or None: the inverse of the Frobenius, a^(q/2), in
        characteristic two; a^((q+1)/4), checked by one squaring, when
        q = 3 (mod 4); raw Tonelli-Shanks otherwise, with the non-square of
        the field's quadratic extension.  Q and Q(sqrt d) bring their own."""
        q, one, pw, mul = self.size, self.one.value, self._pow, self._mul
        if self.char == 2:
            return pw(a, q // 2)
        if a == self.zero.value:
            return a
        if q % 4 == 3:  # r^2 = a a^((q-1)/2) = +-a
            r = pw(a, (q + 1) // 4)
            return min(r, self._neg(r), key=self._sort_key) if mul(r, r) == a else None
        if pw(a, (q - 1) // 2) != one:
            return None
        s, t = 0, q - 1
        while t % 2 == 0:
            t //= 2
            s += 1
        r, u, m = pw(a, (t + 1) // 2), pw(a, t), s
        if u != one:  # so s > 1; c generates the 2-Sylow subgroup
            c = pw(self._neg(_quadratic_extension(self).modulus[0].value), t)
        while u != one:
            i, u2 = 0, u
            while u2 != one:
                u2 = mul(u2, u2)
                i += 1
            b = pw(c, 1 << (m - i - 1))
            r = mul(r, b)
            c = mul(b, b)
            u = mul(u, c)
            m = i
        if mul(r, r) != a:
            raise TheoremViolation("Tonelli-Shanks root check failed")
        return min(r, self._neg(r), key=self._sort_key)

    def _dot(self, u, v):
        """The sum of u_i v_i on raw values, for non-empty u and v of one
        length: a fold of ``_add`` over ``_mul``, unless the field binds a
        fused kernel."""
        return reduce(self._add, map(self._mul, u, v))

    def element(self, i):
        """The i-th element of ``elements()``, for 0 <= i < size."""
        if self.size is not None and not 0 <= i < self.size:
            raise ValueError(f"element index {i} is not in [0, {self.size})")
        return FieldElement(self, self._element(i))

    def _element(self, i):
        """``element(i)``'s raw value, for 0 <= i < size, unchecked."""
        raise NotImplementedError(f"{self} is not finite")

    def elements(self):
        """All elements in canonical (sort_key) order; finite fields only."""
        if self.size is None:
            raise NotImplementedError(f"{self} is not finite")
        return map(self.element, range(self.size))

    def spec_string(self):
        return self._spec

    def __eq__(self, other):
        return self is other or (isinstance(other, Field)
                                 and other._spec == self._spec)

    def __hash__(self):
        return hash(self._spec)

    def __repr__(self):
        return self._spec


class PrimeField(Field):
    """F_p with int residues in [0, p)."""

    def __init__(self, p):
        if not (2 <= p < MAX_PRIME) or not _is_prime(p):
            raise ValueError(f"modulus {p} is not a prime below 2**31")
        self.p = p
        self.char = p
        self.size = p
        self._spec = f"Fp:{p}"

    def _canon(self, v):
        if not isinstance(v, int):
            raise ValueError(f"{v!r} is not an integer, so not an element of {self}")
        return v % self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _dot(self, u, v):
        return sum(map(_imul, u, v)) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def _pow(self, a, n):
        return pow(a, n, self.p)

    def _element(self, i):
        return i


def _poly_dot(field, us, vs):
    """The sum of u_t v_t for polynomials given as lists of raw values, low
    degree first, untrimmed, up to the degree of the largest product; over
    F_p on plain ints, with one % p per coefficient."""
    add, mul, zero = field._add, field._mul, field.zero.value
    out = [zero] * (max(len(u) + len(v) for u, v in zip(us, vs)) - 1)
    if isinstance(field, PrimeField):
        for u, v in zip(us, vs):
            for i, x in enumerate(u):
                if x:
                    for j, y in enumerate(v, i):
                        out[j] += x * y
        return [c % field.p for c in out]
    for u, v in zip(us, vs):
        for i, x in enumerate(u):
            if x != zero:
                for j, y in enumerate(v, i):
                    out[j] = add(out[j], mul(x, y))
    return out


def _poly_divmod(field, num, den):
    """Quotient and trimmed remainder of raw-value polynomials, for a den
    with a nonzero leading value; over F_p on plain ints, with one % p per
    coefficient."""
    add, mul, neg, zero = field._add, field._mul, field._neg, field.zero.value
    rem = list(num)
    quot = [zero] * max(0, len(rem) - len(den) + 1)
    inv_lead = field._inv(den[-1])
    if isinstance(field, PrimeField):
        p, low = field.p, den[:-1]
        while len(rem) >= len(den):
            c = rem.pop() * inv_lead % p
            shift = len(rem) - len(low)
            quot[shift] = c
            for i, d in enumerate(low, shift):
                rem[i] = (rem[i] - c * d) % p
            while rem and not rem[-1]:
                rem.pop()
        return quot, rem
    while len(rem) >= len(den):
        c = mul(rem.pop(), inv_lead)
        shift = len(rem) - len(den) + 1
        quot[shift] = c
        c = neg(c)
        for i, d in enumerate(den[:-1], start=shift):
            rem[i] = add(rem[i], mul(c, d))
        while rem and rem[-1] == zero:
            rem.pop()
    return quot, rem


def _poly_inverse(field, a, modulus):
    """a^-1 modulo a monic modulus of degree k, as k raw values.  Raises
    ZeroDivisionError for zero and for an a sharing a factor with the
    modulus, which Rabin's test relies on."""
    zero, one = field.zero.value, field.one.value
    r0, r1 = list(modulus), list(a)
    while r1 and r1[-1] == zero:
        r1.pop()
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    s0, s1 = [], [one]
    while len(r1) > 1:
        q, r = _poly_divmod(field, r0, r1)
        if not r:
            raise ZeroDivisionError("element shares a factor with the modulus")
        # s0 - q s1, whose degree is that of q s1
        s = _poly_dot(field, ([one], [field._neg(c) for c in q]), (s0, s1))
        r0, r1, s0, s1 = r1, r, s1, s
    c = field._inv(r1[0])
    return [field._mul(x, c) for x in s1] + [zero] * (len(modulus) - 1 - len(s1))


def _prime_kernel(base, modulus):
    """add, neg, mul, inv and dot of F_p[x]/(modulus), base = F_p, for a monic
    modulus of degree k as int residues, low degree first, on tuples of k
    residues with one % p per output coefficient; dot sums its products
    unreduced and folds them through the reduction rows once.  inv is the
    conj/norm formula in degree 2, the cofactor formula in degree 3 and
    ``_poly_inverse`` above."""
    p = base.p
    k = len(modulus) - 1
    # rows[i] is x^(k+i) reduced modulo the modulus, for i = 0 .. k-2
    rows = [tuple(-c % p for c in modulus[:k])]
    for _ in range(k - 2):
        *low, top = rows[-1]
        rows.append(tuple((x + top * r) % p for x, r in zip([0, *low], rows[0])))
    if k == 2:
        (r0, r1), = rows

        def add(a, b):
            return (a[0] + b[0]) % p, (a[1] + b[1]) % p

        def neg(a):
            return -a[0] % p, -a[1] % p

        def mul(a, b):
            (a0, a1), (b0, b1) = a, b
            hi = a1 * b1
            return (a0 * b0 + r0 * hi) % p, (a0 * b1 + a1 * b0 + r1 * hi) % p

        def dot(u, v):
            lo = mid = hi = 0
            for (a0, a1), (b0, b1) in zip(u, v):
                lo += a0 * b0
                mid += a0 * b1 + a1 * b0
                hi += a1 * b1
            return (lo + r0 * hi) % p, (mid + r1 * hi) % p

        def inv(a):
            # conj(a) / N(a): conj(a0 + a1 x) = (a0 + r1 a1) - a1 x
            a0, a1 = a
            u = a0 + r1 * a1
            n = (a0 * u - r0 * a1 * a1) % p
            if not n:
                raise ZeroDivisionError("inverse of zero")
            n = pow(n, -1, p)
            return u * n % p, -a1 * n % p

        return add, neg, mul, inv, dot
    if k == 3:
        (r0, r1, r2), (s0, s1, s2) = rows

        def add(a, b):
            return (a[0] + b[0]) % p, (a[1] + b[1]) % p, (a[2] + b[2]) % p

        def neg(a):
            return -a[0] % p, -a[1] % p, -a[2] % p

        def mul(a, b):
            (a0, a1, a2), (b0, b1, b2) = a, b
            c3, c4 = a1 * b2 + a2 * b1, a2 * b2
            return ((a0 * b0 + r0 * c3 + s0 * c4) % p,
                    (a0 * b1 + a1 * b0 + r1 * c3 + s1 * c4) % p,
                    (a0 * b2 + a1 * b1 + a2 * b0 + r2 * c3 + s2 * c4) % p)

        def dot(u, v):
            c0 = c1 = c2 = c3 = c4 = 0
            for (a0, a1, a2), (b0, b1, b2) in zip(u, v):
                c0 += a0 * b0
                c1 += a0 * b1 + a1 * b0
                c2 += a0 * b2 + a1 * b1 + a2 * b0
                c3 += a1 * b2 + a2 * b1
                c4 += a2 * b2
            return ((c0 + r0 * c3 + s0 * c4) % p, (c1 + r1 * c3 + s1 * c4) % p,
                    (c2 + r2 * c3 + s2 * c4) % p)

        def inv(a):
            # b -> a b has the matrix M with columns a, a x, a x^2; a^-1 is
            # M^-1 e_0, the cofactors of M's first row over det M
            a0, a1, a2 = a
            b0, b1, b2 = a2 * r0 % p, (a0 + a2 * r1) % p, (a1 + a2 * r2) % p
            c0, c1, c2 = b2 * r0, b0 + b2 * r1, b1 + b2 * r2
            m0, m1, m2 = b1 * c2 - b2 * c1, a2 * c1 - a1 * c2, a1 * b2 - a2 * b1
            det = (a0 * m0 + b0 * m1 + c0 * m2) % p
            if not det:
                raise ZeroDivisionError("element is zero or shares a factor "
                                        "with the modulus")
            det = pow(det, -1, p)
            return m0 * det % p, m1 * det % p, m2 * det % p

        return add, neg, mul, inv, dot

    def add(a, b):
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def neg(a):
        return tuple([-x % p for x in a])

    def dot(u, v):
        # schoolbook products on ints, summed, folded through rows: 1.2x
        # faster than ``_poly_dot``, which reduces before the fold
        prod = [0] * (2 * k - 1)
        for a, b in zip(u, v):
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        prod[j] += x * y
        out = prod[:k]
        for c, row in zip(prod[k:], rows):
            if c:
                for j, r in enumerate(row):
                    out[j] += c * r
        return tuple([v % p for v in out])

    def mul(a, b):
        return dot((a,), (b,))

    def inv(a):
        return tuple(_poly_inverse(base, a, modulus))

    return add, neg, mul, inv, dot


def _tower_kernel(base, modulus):
    """add, neg, mul, inv and dot of K[x]/(modulus) for a finite base K that
    is itself an extension, on tuples of K's raw values, with the modulus
    given as raw values, low degree first, on K's own raw arithmetic:
    Karatsuba, conj/norm and K's dots in degree 2, ``_poly_dot`` folded
    through the reduction rows and ``_poly_inverse`` above."""
    badd, bneg, bmul, binv = base._add, base._neg, base._mul, base._inv
    bdot = base._dot
    zero = base.zero.value
    k = len(modulus) - 1
    # rows[i] is x^(k+i) reduced modulo the modulus, for i = 0 .. k-2
    rows = [tuple(bneg(c) for c in modulus[:k])]
    for _ in range(k - 2):
        *low, top = rows[-1]
        rows.append(tuple(badd(x, bmul(top, r))
                          for x, r in zip([zero, *low], rows[0])))

    def add(a, b):
        return tuple([badd(x, y) for x, y in zip(a, b)])

    def neg(a):
        return tuple([bneg(x) for x in a])

    if k == 2:
        (r0, r1), = rows

        def mul(a, b):
            # Karatsuba: five base products
            (a0, a1), (b0, b1) = a, b
            lo, hi = bmul(a0, b0), bmul(a1, b1)
            mid = badd(bmul(badd(a0, a1), badd(b0, b1)), bneg(badd(lo, hi)))
            return badd(lo, bmul(r0, hi)), badd(mid, bmul(r1, hi))

        def dot(u, v):
            (a0, a1), (b0, b1) = zip(*u), zip(*v)
            lo, hi = bdot(a0, b0), bdot(a1, b1)
            mid = bdot(a0 + a1, b1 + b0)
            return badd(lo, bmul(r0, hi)), badd(mid, bmul(r1, hi))

        def inv(a):
            # conj(a) / N(a): conj(a0 + a1 x) = (a0 + r1 a1) - a1 x
            a0, a1 = a
            u = badd(a0, bmul(r1, a1))
            n = badd(bmul(a0, u), bneg(bmul(r0, bmul(a1, a1))))
            if n == zero:
                raise ZeroDivisionError("inverse of zero")
            n = binv(n)
            return bmul(u, n), bmul(bneg(a1), n)

        return add, neg, mul, inv, dot

    def dot(u, v):
        # folding through rows is 1.5x faster than dividing by the modulus
        prod = _poly_dot(base, u, v)
        out = prod[:k]
        for c, row in zip(prod[k:], rows):
            if c != zero:
                for j, r in enumerate(row):
                    out[j] = badd(out[j], bmul(c, r))
        return tuple(out)

    def mul(a, b):
        return dot((a,), (b,))

    def inv(a):
        return tuple(_poly_inverse(base, a, modulus))

    return add, neg, mul, inv, dot


class ExtensionField(Field):
    """K[x]/(m) for a monic irreducible modulus m over a finite field K.

    Values are tuples of base-field values, low degree first, padded to the
    extension degree.  ``gen`` is the residue class of x.  The arithmetic is
    one of two kernels, bound at construction: ``_prime_kernel``'s, on
    tuples of ints, over a prime field, and ``_tower_kernel``'s, on the
    base's raw values, over an extension.  The modulus is then checked with
    Rabin's test, which needs nothing but that arithmetic.  Q(sqrt d) is
    ``QuadRationalField``; an infinite base is refused.
    """

    def __init__(self, base, modulus, check=True):
        if base.size is None:
            raise ValueError(f"extensions of the infinite field {base} are "
                             "not supported")
        modulus = tuple(base(c) for c in modulus)
        if len(modulus) < 3 or modulus[-1] != base.one:
            raise ValueError("modulus must be monic of degree >= 2")
        self.base = base
        self.degree = len(modulus) - 1
        self.modulus = modulus
        self.char = base.char
        self.size = base.size ** self.degree
        mod = ",".join(base._render(c.value) for c in modulus)
        self._spec = (f"Fq:{base.p}^{self.degree}:{mod}"
                      if isinstance(base, PrimeField) else f"Ext({base})[{mod}]")
        raw = [c.value for c in modulus]
        self._add, self._neg, self._mul, self._inv, self._dot = (
            _prime_kernel(base, raw) if isinstance(base, PrimeField)
            else _tower_kernel(base, raw))
        if check and not self._is_irreducible():
            raise ValueError("modulus is reducible over the base field")

    def _is_irreducible(self):
        # Rabin: a reducible modulus has an irreducible factor of degree
        # d <= degree/2, and then shares it with x^(q^d) - x, q the base's
        # size, which makes that residue a non-unit.
        x = y = self.gen
        for _ in range(self.degree // 2):
            y = y ** self.base.size
            try:
                (y - x).inv()
            except ZeroDivisionError:
                return False
        return True

    @property
    def gen(self):
        """The adjoined root of the modulus."""
        vec = [self.base.zero.value] * self.degree
        vec[1] = self.base.one.value
        return FieldElement(self, tuple(vec))

    def _canon(self, coeffs):
        if not isinstance(coeffs, (tuple, list)):
            coeffs = [coeffs]
        base = self.base
        vec = [base._canon(c) if type(c) is int else base(c).value
               for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than extension degree")
        vec += [self.base.zero.value] * (self.degree - len(vec))
        return tuple(vec)

    def _embed(self, elem):
        return self._canon([elem])

    def contains(self, other):
        return self == other or self.base.contains(other)

    def _sort_key(self, a):
        return tuple(self.base._sort_key(v) for v in a)

    def _render(self, a):
        return ",".join(self.base._render(v) for v in a)

    def _element(self, i):
        # base-q digits of i, most significant first: lexicographic order
        # on the low-to-high coefficients
        digits = []
        for _ in range(self.degree):
            i, d = divmod(i, self.base.size)
            digits.append(self.base._element(d))
        return tuple(reversed(digits))


class RationalField(Field):
    """Q with Fraction values."""

    char = 0
    _spec = "Q"

    def _canon(self, v):
        if not isinstance(v, (int, Fraction)):
            raise ValueError(f"{v!r} is not an exact value of {self}")
        return Fraction(v)

    def _add(self, a, b):
        return a + b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        return 1 / a

    def _sqrt(self, a):
        return _fraction_sqrt(a)


class QuadRationalField(Field):
    """Q(sqrt d) for a non-square rational d; values are (r, s) = r + s*sqrt(d)."""

    char = 0

    def __init__(self, d):
        d = Fraction(d)
        if d == 0 or _fraction_sqrt(d) is not None:
            raise ValueError(f"radicand {d} is a square in Q")
        self.d = d
        self._spec = f"Qsqrt:{d}"

    @property
    def root(self):
        """sqrt(d) itself."""
        return FieldElement(self, (Fraction(0), Fraction(1)))

    def _canon(self, v):
        r, s = v if isinstance(v, (tuple, list)) else (v, 0)
        return (RationalField._canon(self, r), RationalField._canon(self, s))

    def _embed(self, elem):
        return (Fraction(elem.value), Fraction(0))

    def contains(self, other):
        return self == other or isinstance(other, RationalField)

    def _add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def _mul(self, a, b):
        return (a[0] * b[0] + self.d * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def _neg(self, a):
        return (-a[0], -a[1])

    def _inv(self, a):
        n = a[0] * a[0] - self.d * a[1] * a[1]  # norm; nonzero since d is non-square
        return (a[0] / n, -a[1] / n)

    def _render(self, a):
        return f"{a[0]}+{a[1]}*sqrt({self.d})"

    def _sqrt(self, a):
        r, s = a
        roots = []
        if s == 0:
            t = _fraction_sqrt(r)
            if t is not None:
                roots.append((t, Fraction(0)))
            t = _fraction_sqrt(r / self.d)
            if t is not None:
                roots.append((Fraction(0), t))
        else:
            m = _fraction_sqrt(r * r - self.d * s * s)
            if m is not None:
                for sign in (1, -1):
                    x = _fraction_sqrt((r + sign * m) / 2)
                    if x is not None and x != 0:
                        roots.append((x, s / (2 * x)))
        if not roots:
            return None
        best = min(roots + [self._neg(v) for v in roots])
        if self._mul(best, best) != a:
            raise TheoremViolation("Q(sqrt d) square root check failed")
        return best


@lru_cache(maxsize=256)
def _quadratic_extension(field):
    """K[x]/(x^2 - n), n the first non-square of the odd finite field K in
    element order: K's one quadratic extension, built once per K (for the
    last 256) and checked by Rabin's test."""
    n = next(z for z in field.elements() if z and z ** (field.size // 2) != field.one)
    return ExtensionField(field, [-n, field.zero, field.one])


# Trial divisor bound of ``_square_part``, complete below its cube
_SQUARE_PART_BOUND = 10**5


def _square_part(n):
    """(k, d) with n = k^2 d and k > 0, for a nonzero int n: trial division
    while f^3 <= the cofactor and f <= ``_SQUARE_PART_BOUND``, then an
    exact-square test of the cofactor, which has at most two prime factors
    unless the bound stopped the division; so d is squarefree for |n| below
    the bound's cube, and above it may keep a square of a larger prime."""
    k, d, c, f = 1, -1 if n < 0 else 1, abs(n), 2
    while f ** 3 <= c and f <= _SQUARE_PART_BOUND:
        while c % (f * f) == 0:
            c, k = c // (f * f), k * f
        if c % f == 0:
            c, d = c // f, d * f
        f += 1 if f == 2 else 2
    r = isqrt(c)
    return (k * r, d) if r * r == c else (k, d * c)


def lift_to_quadratic_extension(a):
    """(new_field, the canonical sqrt(a) in it): one quadratic step up the
    tower for a non-square ``a``; a square or zero raises.  Over an odd
    finite K the step is ``_quadratic_extension(K)`` for every a, and sqrt(a)
    is +-sqrt(a/n) x, from one square root in K.  Over Q it is Q(sqrt d),
    d the squarefree part of a's numerator times its denominator
    (``_square_part``), and the root is -k sqrt(d) for a rational k > 0; a
    second step above Q raises.  ``new_field(elem)`` lifts K's elements."""
    new, root = _lift(a.field, a.value)
    return new, FieldElement(new, root)


def _lift(field, a):
    """``lift_to_quadratic_extension`` on the raw value ``a`` of ``field``:
    (new_field, the raw canonical sqrt(a) in it)."""
    if field.char == 2:
        raise ValueError("use char2 tools in characteristic two")
    if field.size is None:
        if field._sqrt(a) is not None:
            raise ValueError("element is already a square; no extension needed")
        if isinstance(field, QuadRationalField):
            raise ExtensionOverflowError(
                f"the square root of {FieldElement(field, a)} needs a second "
                "quadratic step above Q; only one is supported")
        k, d = _square_part(a.numerator * a.denominator)
        return QuadRationalField(d), (Fraction(0), Fraction(-k, a.denominator))
    new = _quadratic_extension(field)
    # a/n is a square exactly when a is not
    r = field._sqrt(field._mul(a, field._inv(field._neg(new.modulus[0].value))))
    if a == field.zero.value or r is None:
        raise ValueError("element is already a square; no extension needed")
    return new, (field.zero.value, r)


@lru_cache(maxsize=None)
def binary_field(k):
    """GF(2^k), built once per k, modulo the lexicographically smallest
    irreducible monic binary polynomial of degree k (low coefficients first)."""
    base = PrimeField(2)
    if not 1 <= k <= 20:
        raise ValueError(f"binary field degree {k} is not between 1 and 20")
    if k == 1:
        return base
    for mask in range(1, 2 ** k, 2):  # constant term 1, else x divides
        coeffs = [(mask >> i) & 1 for i in range(k)] + [1]
        try:
            return ExtensionField(base, coeffs)
        except ValueError:
            continue


_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def check_digits(value):
    """``value``; a ``DigitLimitError`` naming Python's int-to-text limit if
    it is a string with a run of digits past it, which ``int`` reports in
    CPython's words."""
    limit = _int_max_str_digits()
    if limit and isinstance(value, str) and len(value) > limit and any(
            len(run) > limit for run in re.findall(r"\d+", value)):
        raise DigitLimitError(_DIGIT_LIMIT.format(limit))
    return value


def parse_field_spec(s):
    """Parse the CLI field-spec strings: Fp:13, Fq:5^2:3,0,1, F2k:3, Q,
    Qsqrt:2; one field object per spec string (the last 256 are kept)."""
    if not isinstance(s, str):
        raise ValueError(f"a field spec is a string, not {s!r}")
    return _parse_field_spec(s)


@lru_cache(maxsize=256)
def _parse_field_spec(s):
    check_digits(s)
    if s == "Q":
        return RationalField()
    if s.startswith("F2k:"):
        return binary_field(int(s[len("F2k:"):]))
    if s.startswith("Qsqrt:"):
        # refuse a square as given, then name the field as a lift would
        d = QuadRationalField(_fraction(s[len("Qsqrt:"):])).d
        return QuadRationalField(_square_part(d.numerator * d.denominator)[1])
    if s.startswith("Fp:"):
        return PrimeField(int(s[len("Fp:"):]))
    if s.startswith("Fq:"):
        try:
            sizepart, modpart = s[len("Fq:"):].split(":")
            p, k = map(int, sizepart.split("^"))
            coeffs = [int(c) for c in modpart.split(",")]
        except ValueError:
            raise ValueError(f"bad field spec {s!r}: expected "
                             "Fq:p^k:c0,...,ck") from None
        if len(coeffs) != k + 1:
            raise ValueError("modulus degree does not match the field size")
        return ExtensionField(PrimeField(p), coeffs)
    raise ValueError(f"unrecognized field spec: {s!r}")


def _fraction(text):
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_element(field, value):
    """Read an element from CLI JSON: an int, or the canonical string
    rendering of the field."""
    return FieldElement(field, parse_value(field, value))


def parse_value(field, value):
    """``parse_element``'s element as a raw value of ``field``."""
    if isinstance(value, bool):
        raise ValueError("booleans are not field elements")
    if isinstance(value, int):
        return field._canon(value)
    if not isinstance(value, str):
        raise ValueError(f"cannot read a field element from {value!r}")
    text = check_digits(value.strip())
    if isinstance(field, PrimeField):
        return int(text) % field.p
    if isinstance(field, ExtensionField):
        if not isinstance(field.base, PrimeField):
            raise ValueError("element parsing supports single-step extensions only")
        return field._canon([int(c) for c in text.split(",")])
    if isinstance(field, RationalField):
        return _fraction(text)
    if isinstance(field, QuadRationalField):
        m = re.fullmatch(r"(-?\d+(?:/\d+)?)\+(-?\d+(?:/\d+)?)\*sqrt\((-?\d+(?:/\d+)?)\)",
                         text)
        if m is None:
            return _fraction(text), Fraction(0)
        # b*sqrt(k^2 d) is k b sqrt(d)
        k = _fraction_sqrt(_fraction(m.group(3)) / field.d)
        if k is None:
            raise ValueError(f"radicand {m.group(3)} does not match the field")
        return _fraction(m.group(1)), _fraction(m.group(2)) * k
    raise ValueError(f"element parsing is not supported for {field}")
