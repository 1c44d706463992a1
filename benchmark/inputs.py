"""Input generators.  Everything is drawn from a caller-supplied
``random.Random`` with the benchmark's own arithmetic; the program only
ever sees the JSON built here."""

from fractions import Fraction
from math import isqrt

import oracles as orc
from gf import GF, binary_gf

F27 = GF(3, [1, 2, 0, 1])       # porism spec Fq:3^3:1,2,0,1
F25 = GF(5, [2, 0, 1])          # porism spec Fq:5^2:2,0,1


def conic_json(F, coeffs):
    return {"field": F.spec(),
            "coeffs": [c if F.k == 1 else F.render(c) for c in coeffs]}


def pair_json(F, outer, inner):
    return {"outer": conic_json(F, outer), "inner": conic_json(F, inner)}


def random_smooth_conic(F, rng):
    """Six coefficients drawn from all field elements until the conic is
    smooth -- the way porism sweep draws them."""
    while True:
        coeffs = tuple(rng.randrange(F.q) for _ in range(6))
        if any(coeffs) and orc.is_smooth(F, coeffs):
            return coeffs


def random_smooth_pair(F, rng):
    outer = random_smooth_conic(F, rng)
    inner = random_smooth_conic(F, rng)
    while orc.same_conic(F, outer, inner):
        inner = random_smooth_conic(F, rng)
    return outer, inner


def random_transform(F, rng):
    while True:
        a = [[rng.randrange(F.q) for _ in range(3)] for _ in range(3)]
        if orc.det3(F, a):
            return a


def tangent_pair(F, rng, target):
    """A pair of the given tangent type: the normal form
    C: x^2 + t xy + a y^2 - b yz, D: x^2 - yz with parameters chosen for the
    type, then moved by a random projective transform."""
    one, four = 1, F.from_int(4)
    while True:
        t, a, b = (rng.randrange(F.q) for _ in range(3))
        if target in ("(2,1,1)", "(2,2)"):
            if b == one:
                continue
            disc = F.sub(F.mul(t, t), F.mul(F.mul(four, a), F.sub(one, b)))
            if target == "(2,2)":
                a = F.div(F.mul(t, t), F.mul(four, F.sub(one, b)))
            elif disc == 0:
                continue
        elif target == "(3,1)":
            b = one
            if t == 0:
                continue
        else:
            b, t = one, 0
            if a == 0:
                continue
        outer = (1, a, 0, t, 0, F.negate(b))
        inner = (1, 0, 0, 0, 0, F.negate(1))
        if not orc.is_smooth(F, outer) or orc.same_conic(F, outer, inner):
            continue
        g = random_transform(F, rng)
        return orc.transform_conic(F, outer, g), orc.transform_conic(F, inner, g)


def random_char2_form(F, n, rng):
    """A nonzero quadratic form in n variables over GF(2^k), as
    {(i, j): element}."""
    while True:
        coeffs = {(i, j): rng.randrange(F.q) for i in range(n)
                  for j in range(i, n)}
        if any(coeffs.values()):
            return coeffs


def char2_json(F, k, n, coeffs):
    return {"field": f"F2k:{k}", "n": n,
            "coeffs": {f"{i},{j}": F.render(v) for (i, j), v in coeffs.items()}}


BINARY = {k: binary_gf(k) for k in (3, 4)}


# -- characteristic zero --------------------------------------------------------

def _is_square(q):
    return q >= 0 and all(isqrt(n) ** 2 == n
                          for n in (q.numerator, q.denominator))


def lifts(inner, c1):
    """Whether the tangents from c1 to the inner conic touch it in
    irrational points, so that porism run lifts the start to Q(sqrt d).
    With M the conic's symmetric matrix, the contact points are rational
    exactly when -det(M) * Q(c1) is a square in Q."""
    a00, a11, a22, a01, a02, a12 = (Fraction(c) for c in inner)
    m = [[a00, a01 / 2, a02 / 2], [a01 / 2, a11, a12 / 2], [a02 / 2, a12 / 2, a22]]
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    value = sum(m[i][j] * c1[i] * c1[j] for i in range(3) for j in range(3))
    return not _is_square(-det * value)


def small_fraction(rng, num, den):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def circle(cx, cy, r2):
    """(x - cx)^2 + (y - cy)^2 - r2 as six coefficients."""
    return (1, 1, cx * cx + cy * cy - r2, 0, -2 * cx, -2 * cy)


def circle_point(cx, cy, radius, m):
    """The rational point of a circle at slope parameter m."""
    den = 1 + m * m
    return (cx + radius * (1 - m * m) / den, cy + radius * 2 * m / den, 1)


def q_json(coeffs):
    return {"field": "Q", "coeffs": [str(Fraction(c)) for c in coeffs]}
