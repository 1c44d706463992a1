"""The benchmark's own exact arithmetic, written apart from porism.

``GF`` is a finite field F_{p^k} with elements encoded as integers
0 <= e < q (the base-p digits of e are the coefficients, low degree
first), the encoding porism prints for extension elements.  All operations
go through tables, which is cheap for the fields the benchmark uses
(q <= 169).  ``QS`` is Q(sqrt d) on pairs of Fractions; with s = 0 it is
plain Q.

Nothing here imports porism: the oracles built on these classes must not
share code with the program they check.
"""

from fractions import Fraction


class GF:
    """F_q for q = p^k, with the given monic modulus (low coefficients first)."""

    def __init__(self, p, modulus=None):
        self.p = p
        self.k = 1 if modulus is None else len(modulus) - 1
        self.q = q = p ** self.k
        self.modulus = modulus
        if self.k == 1:
            self.add_t = [[(a + b) % p for b in range(q)] for a in range(q)]
            self.mul_t = [[a * b % p for b in range(q)] for a in range(q)]
        else:
            digits = [self._digits(e) for e in range(q)]
            self.add_t = [[self._pack([(x + y) % p for x, y in zip(da, db)])
                           for db in digits] for da in digits]
            self.mul_t = [[self._polymul(da, db) for db in digits]
                          for da in digits]
        self._neg = [self.add_t[a].index(0) for a in range(q)]
        self._inv = [None] + [self.mul_t[a].index(1) if 1 in self.mul_t[a]
                              else None for a in range(1, q)]

    def is_field(self):
        """True when every nonzero element is invertible (the modulus is
        irreducible)."""
        return all(x is not None for x in self._inv[1:])

    def spec(self):
        if self.k == 1:
            return f"Fp:{self.p}"
        mod = ",".join(str(c) for c in self.modulus)
        return f"Fq:{self.p}^{self.k}:{mod}"

    def _digits(self, e):
        out = []
        for _ in range(self.k):
            e, r = divmod(e, self.p)
            out.append(r)
        return out

    def _pack(self, digits):
        e = 0
        for d in reversed(digits):
            e = e * self.p + d
        return e

    def _polymul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * self.modulus[j]) % p
        return self._pack(prod[:k])

    # -- arithmetic -----------------------------------------------------
    def add(self, a, b):
        return self.add_t[a][b]

    def sub(self, a, b):
        return self.add_t[a][self._neg[b]]

    def negate(self, a):
        return self._neg[a]

    def invert(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF")
        return self._inv[a]

    def mul(self, a, b):
        return self.mul_t[a][b]

    def div(self, a, b):
        return self.mul_t[a][self.invert(b)]

    def from_int(self, n):
        return n % self.p

    def dot(self, u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = self.add_t[acc][self.mul_t[x][y]]
        return acc

    def is_square(self, a):
        return any(self.mul_t[x][x] == a for x in range(self.q))

    # -- text -----------------------------------------------------------
    def render(self, a):
        if self.k == 1:
            return str(a)
        return ",".join(str(d) for d in self._digits(a))

    def parse(self, text):
        if isinstance(text, int):
            return self.from_int(text)
        parts = [int(t) for t in str(text).split(",")]
        if len(parts) > self.k:
            raise ValueError(f"{text!r} is not an element of {self.spec()}")
        return self._pack([d % self.p for d in parts] + [0] * (self.k - len(parts)))


class QuadExt:
    """F_{q^2} = F[w]/(w^2 - n) for a non-square n of an odd GF F, with the
    same method interface as GF.  An element a + b w is the integer
    a + b*q, so elements of F keep their codes."""

    def __init__(self, F):
        self.F = F
        self.p = F.p
        self.q = F.q * F.q
        self.n = next(x for x in range(1, F.q) if not F.is_square(x))

    def _split(self, e):
        return divmod(e, self.F.q)[::-1]

    def _join(self, a, b):
        return a + b * self.F.q

    def from_int(self, n):
        return self.F.from_int(n)

    def add(self, x, y):
        (a, b), (c, d) = self._split(x), self._split(y)
        return self._join(self.F.add(a, c), self.F.add(b, d))

    def negate(self, x):
        a, b = self._split(x)
        return self._join(self.F.negate(a), self.F.negate(b))

    def sub(self, x, y):
        return self.add(x, self.negate(y))

    def mul(self, x, y):
        F = self.F
        (a, b), (c, d) = self._split(x), self._split(y)
        return self._join(F.add(F.mul(a, c), F.mul(self.n, F.mul(b, d))),
                          F.add(F.mul(a, d), F.mul(b, c)))

    def invert(self, x):
        F = self.F
        a, b = self._split(x)
        norm = F.sub(F.mul(a, a), F.mul(self.n, F.mul(b, b)))
        ninv = F.invert(norm)
        return self._join(F.mul(a, ninv), F.negate(F.mul(b, ninv)))

    def div(self, x, y):
        return self.mul(x, self.invert(y))

    def dot(self, u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = self.add(acc, self.mul(x, y))
        return acc


def gf_from_spec(spec):
    """The GF for a porism field spec of the form Fp:p or Fq:p^k:m0,...,1,
    or None for any other spec (towers, Q, Q(sqrt d))."""
    if spec.startswith("Fp:"):
        return GF(int(spec[3:]))
    if spec.startswith("Fq:"):
        size, mod = spec[3:].split(":")
        p, _ = size.split("^")
        return GF(int(p), [int(c) for c in mod.split(",")])
    return None


def binary_gf(k):
    """GF(2^k) by the smallest irreducible modulus with constant term one,
    ordered by its coefficient bits low degree first -- the rule porism
    documents for its F2k:k fields, found here by testing each candidate."""
    for mask in range(1, 2 ** k, 2):
        field = GF(2, [(mask >> i) & 1 for i in range(k)] + [1])
        if field.is_field():
            return field
    raise ValueError(f"no irreducible binary modulus of degree {k}")


# -- linear algebra over GF ----------------------------------------------

def rank(F, rows):
    """Rank of a matrix over F by Gaussian elimination."""
    m = [list(r) for r in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = F.invert(m[r][col])
        m[r] = [F.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[r])]
        r += 1
    return r


def det3(F, m):
    (a, b, c), (d, e, f), (g, h, i) = m
    mul, sub, add = F.mul, F.sub, F.add
    return add(sub(mul(a, sub(mul(e, i), mul(f, h))),
                   mul(b, sub(mul(d, i), mul(f, g)))),
               mul(c, sub(mul(d, h), mul(e, g))))


# -- Q(sqrt d) -------------------------------------------------------------

class QS:
    """Q(sqrt d) on pairs (r, s) meaning r + s*sqrt(d); d = 0 gives Q."""

    def __init__(self, d=0):
        self.d = Fraction(d)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def sub(self, a, b):
        return (a[0] - b[0], a[1] - b[1])

    def mul(self, a, b):
        return (a[0] * b[0] + self.d * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def parse(self, text):
        """An element as porism prints it: a fraction, or r+s*sqrt(d) with
        this field's radicand."""
        text = str(text)
        if "*sqrt(" in text:
            head, rad = text[:-1].split("*sqrt(")
            if Fraction(rad) != self.d:
                raise ValueError(f"radicand {rad} does not match {self.d}")
            cut = head.index("+", 1)
            return (Fraction(head[:cut]), Fraction(head[cut + 1:]))
        return (Fraction(text), Fraction(0))

    def dot(self, u, v):
        acc = (Fraction(0), Fraction(0))
        for x, y in zip(u, v):
            acc = self.add(acc, self.mul(x, y))
        return acc


def qs_from_spec(spec):
    """The QS for the spec Q or Qsqrt:d, or None."""
    if spec == "Q":
        return QS()
    if spec.startswith("Qsqrt:"):
        return QS(Fraction(spec[len("Qsqrt:"):]))
    return None
