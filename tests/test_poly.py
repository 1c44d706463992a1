import random
from fractions import Fraction
from itertools import product

import pytest

from porism.fields import (PrimeField, RationalField, lift_to_quadratic_extension,
                           parse_field_spec)
from porism.poly import (Polynomial, adjoin_quadratic_roots, binary_form_roots,
                         factor, gcd, roots_in_closure, squarefree_decomposition)

from reference import quadratic_roots


def P(field, *coeffs):
    return Polynomial(field, [field(c) for c in coeffs])


def test_ring_operations(F13):
    x = Polynomial.x(F13)
    f = x ** 2 + P(F13, 1) * x + P(F13, 5)
    g = x - P(F13, 2)
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree <= 0
    assert f(F13(2)) == (r[0] if r.degree == 0 else F13.zero)


def test_degree_and_lc_normalization(F7):
    f = Polynomial(F7, [F7(1), F7(0), F7(0)])  # trailing zeros stripped
    assert f.degree == 0 and f.lc == F7(1)
    assert Polynomial(F7, []).is_zero()


def test_gcd_is_monic(F13):
    x = Polynomial.x(F13)
    f = (x - P(F13, 1)) * (x + P(F13, 1))
    g = (x - P(F13, 1)) ** 2
    assert gcd(f, g) == x - P(F13, 1)
    assert gcd(P(F13, 0), P(F13, 3) * g) == g  # monic normalization


def test_squarefree_decomposition_structure(F5):
    x = Polynomial.x(F5)
    f = (x - P(F5, 1)) * (x - P(F5, 2)) ** 2 * (x - P(F5, 3)) ** 2
    parts = dict((m, p) for p, m in squarefree_decomposition(f))
    assert parts[1] == x - P(F5, 1)
    assert parts[2] == (x - P(F5, 2)) * (x - P(F5, 3))


def test_squarefree_handles_pth_powers(F5):
    x = Polynomial.x(F5)
    f = (x - P(F5, 2)) ** 5  # derivative vanishes; needs the p-th root path
    parts = list(squarefree_decomposition(f))
    assert parts == [(x - P(F5, 2), 5)]


def test_factor_x4_plus_1_over_f13(F13):
    x = Polynomial.x(F13)
    f = x ** 4 + P(F13, 1)
    # x^4 + 1 = (x^2 + 5)(x^2 + 8) mod 13, both irreducible since
    # -5 = 8 and -8 = 5 are non-squares mod 13
    assert factor(f) == [(x ** 2 + P(F13, 5), 1), (x ** 2 + P(F13, 8), 1)]


def test_factor_random_products(F11):
    rng = random.Random(7)
    x = Polynomial.x(F11)
    for _ in range(25):
        f = P(F11, 1)
        for _ in range(rng.randrange(1, 5)):
            f = f * (x - P(F11, rng.randrange(11))) ** rng.randrange(1, 3)
        prod = P(F11, 1)
        for g, m in factor(f):
            assert g.lc == F11.one
            prod = prod * g ** m
        assert prod == f.monic()


def test_roots_in_closure_finite(F5):
    x = Polynomial.x(F5)
    f = (x ** 2 + P(F5, 2)) * (x - P(F5, 1)) ** 2  # x^2+2 irreducible mod 5
    rr = roots_in_closure(f)
    assert rr.total() == 4
    mults = sorted(m for _, m in rr.entries)
    assert mults == [1, 1, 2]
    for r, _ in rr.entries:
        assert f.map_field(r.field)(r).is_zero()


def test_roots_in_closure_rational():
    Q = RationalField()
    x = Polynomial.x(Q)
    f = (x - P(Q, 3)) * (x ** 2 - P(Q, 2))  # needs one quadratic step
    rr = roots_in_closure(f)
    assert rr.total() == 3
    for r, _ in rr.entries:
        if r.field.spec_string() == "Q":
            assert r == r.field(3)
        else:
            assert r * r == r.field(2)  # lives in a real quadratic field


def test_binary_form_roots_at_infinity(F7):
    # the quartic form u^2 w^2 (as a binary form of degree 4 in (u, w))
    rr = binary_form_roots(F7, [F7(0), F7(0), F7(1)], 4)
    assert rr.at_infinity == 2
    assert rr.entries == ((F7(0), 2),)
    assert rr.total() == 4


def _factor_by_ddf_edf(f, seed=0):
    """factor()'s general route: squarefree parts, DDF, then EDF."""
    from reference import _ddf, _edf
    rng = random.Random(seed)
    out = [(irr, mult) for part, mult in squarefree_decomposition(f)
           for block, d in _ddf(part) for irr in _edf(block, d, rng)]
    out.sort(key=lambda gm: (gm[0].degree, [c.sort_key() for c in gm[0].coeffs]))
    return out


def test_factor_quadratic_path_matches_general_route():
    from porism.fields import ExtensionField
    F9 = ExtensionField(PrimeField(3), [1, 0, 1])
    for field in (PrimeField(7), F9):
        elems = list(field.elements())
        for c in elems:
            for b in elems:
                f = Polynomial(field, [c, b, 1])
                want = _factor_by_ddf_edf(f)
                assert factor(f) == want
                assert factor(f * field(2)) == want  # not monic


def test_divisors_pairs_below_the_square_root():
    from porism.poly import _divisors
    for n in range(1, 400):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_rational_root_search_is_capped(Q):
    import time
    from porism.errors import ExtensionOverflowError
    from porism.poly import MAX_RATIONAL_ROOT_TERM, _rational_root
    from porism.projective import Conic, intersect_conics
    big = P(Q, MAX_RATIONAL_ROOT_TERM + 1, 0, 1, 1)
    with pytest.raises(ExtensionOverflowError):
        _rational_root(big)
    t0 = time.monotonic()
    with pytest.raises(ExtensionOverflowError):
        intersect_conics(Conic(Q, [1, 1, -(10**9 + 7), 0, 0, 0]),
                         Conic(Q, [1, 2, -1, 0, 0, 0]))
    assert time.monotonic() - t0 < 10.0


@pytest.mark.parametrize("spec", ["Fp:13", "Fq:3^2:1,0,1", "Q", "Qsqrt:2"])
def test_mul_divmod_match_element_arithmetic(spec):
    # product and long division on raw values against the same algorithms
    # on field elements
    field = parse_field_spec(spec)
    rng = random.Random(spec)
    if field.size:
        pool = list(field.elements())
    else:
        pool = [field(Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)))
                for _ in range(12)]
        if spec != "Q":
            pool += [p * field.root + q for p, q in zip(pool, pool[1:])]
    units = [c for c in pool if not c.is_zero()]

    def rand(degree):
        coeffs = [rng.choice(pool) for _ in range(degree)]
        return Polynomial(field, coeffs + [rng.choice(units)])

    for _ in range(60):
        a, b = rand(rng.randrange(0, 7)), rand(rng.randrange(0, 4))
        if b.is_zero():
            continue
        prod = [field.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, u in enumerate(a.coeffs):
            for j, v in enumerate(b.coeffs):
                prod[i + j] = prod[i + j] + u * v
        assert a * b == Polynomial(field, prod)
        quot, rem = divmod(a, b)
        assert quot * b + rem == a and rem.degree < b.degree


@pytest.mark.parametrize("spec", ["Fp:13", "Fq:3^3:1,2,0,1"])
def test_modular_power_matches_power_then_remainder(spec):
    field = parse_field_spec(spec)
    rng = random.Random(spec)
    rand = lambda degree: Polynomial(
        field, [field.element(rng.randrange(field.size)) for _ in range(degree)]
        + [field.one])
    for _ in range(20):
        f, m = rand(rng.randrange(0, 5)), rand(rng.randrange(1, 5))
        n = rng.randrange(0, 12)
        assert pow(f, n, m) == f ** n % m


@pytest.mark.parametrize("spec", ["Fp:7", "Fq:3^2:1,0,1"])
def test_quadratic_roots_match_brute_force(spec):
    field = parse_field_spec(spec)
    elems = list(field.elements())
    for c0, c1, c2 in product(elems, elems, [c for c in elems if c]):
        # a zero t is double when the derivative 2 c2 t + c1 vanishes there too
        want = {t: 2 if (2 * c2 * t + c1).is_zero() else 1
                for t in elems if (c2 * t * t + c1 * t + c0).is_zero()}
        got = quadratic_roots(c0, c1, c2)
        assert len(got) == len(want) and dict(got) == want
        if len(got) == 2:
            # the + root comes first: c2 (r0 - r1) is the canonical root of
            # the discriminant
            (r0, _), (r1, _) = got
            assert c2 * (r0 - r1) == (c1 * c1 - 4 * c2 * c0).sqrt()


def test_char0_quadratic_lifts_by_its_monic_radicand(Q):
    # 4t^2 + 2 has the monic part t^2 + 1/2, whose discriminant is -2
    roots = roots_in_closure(P(Q, 2, 0, 4))
    assert len(roots.entries) == 2
    for r, m in roots.entries:
        assert m == 1 and r.field.spec_string() == "Qsqrt:-2"
        assert (4 * r * r + 2).is_zero()


@pytest.mark.parametrize("p", [5, 7])
def test_adjoin_quadratic_roots_lands_in_the_one_quadratic_extension(p):
    K = PrimeField(p)
    big = lift_to_quadratic_extension(next(
        x for x in K.elements() if x and x.sqrt() is None))[0]
    irreducible = 0
    for c0, c1 in product(K.elements(), repeat=2):
        if quadratic_roots(c0, c1, K.one):
            continue
        irreducible += 1
        roots = adjoin_quadratic_roots(c0, c1)
        assert len(roots) == 2 and roots[0] != roots[1]
        for r in roots:
            assert r.field is big
            assert r * r + big(c1) * r + big(c0) == 0
        assert roots == [r for r, _ in quadratic_roots(big(c0), big(c1), big.one)]
    assert irreducible == p * (p - 1) // 2


def _inseparable(field, rng):
    """g(x^p) h^2 for random monic g and h of degree 1 or 2: a polynomial
    whose squarefree decomposition needs a p-th root."""
    p = field.char
    g, h = ([field.element(rng.randrange(field.size))
             for _ in range(rng.randrange(1, 3))] + [field.one] for _ in range(2))
    spread = [field.zero] * (p * (len(g) - 1) + 1)
    spread[::p] = g
    h = Polynomial(field, h)
    return Polynomial(field, spread) * h * h


def test_factoring_matches_the_wrapped_reference():
    # factor and squarefree_decomposition run on raw values; tests/reference.py
    # keeps the pipeline on Polynomials, with the same random stream
    import reference
    F5 = PrimeField(5)
    cases = [Polynomial(F5, list(c) + [1])
             for d in range(5) for c in product(range(5), repeat=d)]
    for spec in ("Fp:7", "Fp:13", "Fq:5^2:2,0,1", "Fq:3^3:1,2,0,1"):
        field = parse_field_spec(spec)
        rng = random.Random(spec)
        draw = lambda degree: Polynomial(field, [
            field.element(rng.randrange(field.size)) for _ in range(degree + 1)])
        for _ in range(25):
            f = draw(rng.randrange(1, 7))
            cases += [f, f * f * draw(rng.randrange(0, 3)), _inseparable(field, rng)]
    inseparable = 0
    for f in cases:
        if f.is_zero():
            continue
        want = reference.squarefree_decomposition(f)
        assert squarefree_decomposition(f) == want, f
        assert factor(f) == reference.factor(f), f
        inseparable += any(m % f.field.char == 0 for _, m in want)
    assert inseparable >= 75  # a multiplicity divisible by p: a p-th root
