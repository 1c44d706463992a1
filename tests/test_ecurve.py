import random
from itertools import product

import pytest

from porism.ecurve import (SHAPE_CUSP, SHAPE_NODE, SHAPE_SMOOTH,
                           SHAPE_SPLIT_DOUBLE, SHAPE_SPLIT_TRANSVERSAL,
                           BiquadraticForm, build_E,
                           is_reducible, nu, nu_inverse, params_to_state,
                           shape, sigma, singular_points, state_to_params,
                           tau)
from porism.errors import NotOnConicError
from porism.fields import parse_field_spec
from porism.process import PonceletConfig, sample_starts, start, step
from porism.projective import (Conic, P1Point, classify, normal_form_conic,
                               tangency_points)

from conftest import random_smooth_conic, random_smooth_pair
from reference import build_E_normalized


def normal_pair(field, t, a, b):
    outer = normal_form_conic(field(t), field(a), field(b))
    inner = Conic(field, [1, 0, 0, 0, 0, -1])
    return outer, inner


def all_points(H):
    field = H.field
    p1 = [P1Point.infinity(field)] + [P1Point.affine(e)
                                      for e in field.elements()]
    return [(u, v) for u in p1 for v in p1 if H.contains(u, v)]


def test_normalized_form_coefficients(F13):
    # the incidence form of the normal pair, written out by expanding
    # b u^2 w'^2 - 2b u v w w' + (w^2 + t u w + a u^2) v^2 in the bidegree grid
    for t, a, b in [(0, 1, 1), (1, 0, 1), (0, 0, 2), (2, 3, 5)]:
        H = build_E_normalized(F13(t), F13(a), F13(b))
        expected = ((F13(0), F13(0), F13(1)),
                    (F13(0), F13(-2) * F13(b), F13(t)),
                    (F13(b), F13(0), F13(a)))
        assert H.h == expected


def test_contains_matches_geometry(F11):
    rng = random.Random(1)
    for _ in range(10):
        outer, inner = random_smooth_pair(F11, rng)
        H = build_E(outer, inner)
        from porism.projective import tangent_at
        for u, v in all_points(H):
            c = H.outer_par.point_at(u)
            d = H.inner_par.point_at(v)
            assert tangent_at(inner, d).contains(c)


def test_sigma_tau_are_involutions(F13):
    rng = random.Random(2)
    count = 0
    for _ in range(8):
        outer, inner = random_smooth_pair(F13, rng)
        H = build_E(outer, inner)
        for p in all_points(H):
            assert sigma(H, sigma(H, p)) == p
            assert tau(H, tau(H, p)) == p
            assert nu_inverse(H, nu(H, p)) == p
            count += 1
    assert count > 50


def test_nu_matches_process_step(F11):
    rng = random.Random(3)
    checked = 0
    while checked < 40:
        outer, inner = random_smooth_pair(F11, rng)
        cfg = PonceletConfig(outer, inner)
        c1 = sample_starts(cfg, 1, rng.randrange(50))[0]
        cfg2, st, lifted = start(cfg, c1)
        if lifted:
            continue
        H = build_E(outer, inner)
        p = state_to_params(H, st)
        for _ in range(4):
            st = step(cfg2, st)
            p = nu(H, p)
            assert params_to_state(H, p).same_pair(st)
        checked += 1


def test_maps_reject_points_off_curve(F7):
    H = build_E_normalized(F7(1), F7(2), F7(3))
    off = next((u, v) for u in [P1Point.affine(F7(k)) for k in range(7)]
               for v in [P1Point.affine(F7(k)) for k in range(7)]
               if not H.contains(u, v))
    with pytest.raises(NotOnConicError):
        nu(H, off)
    # the first move checks, by one dot on the fiber, for every map
    for move in (sigma, tau, nu_inverse):
        with pytest.raises(NotOnConicError):
            move(H, off)


def brute_force_other_root(q, known):
    """The other root of the fiber quadratic q0 w^2 + q1 sw + q2 s^2 among
    all points (s : w) of P^1, or ``known`` itself at a double root."""
    field = known.field
    p1 = [P1Point.infinity(field)] + [P1Point.affine(e) for e in field.elements()]
    roots = [r for r in p1 if sum((c * m for c, m in zip(
        q, (r.coords[1] ** 2, r.coords[0] * r.coords[1], r.coords[0] ** 2))),
        start=field.zero).is_zero()]
    assert known in roots and 1 <= len(roots) <= 2
    return next((r for r in roots if r != known), known)


def test_raw_involution_matches_brute_force_roots_on_every_point(F13):
    # sigma and tau on every point of E, for random pairs and normal pairs
    # (whose (u, v) = (inf, inf) fibers have A = B = 0 for a = 0)
    rng = random.Random("vieta")
    forms = [build_E(*random_smooth_pair(F13, rng)) for _ in range(4)]
    forms += [build_E_normalized(F13(t), F13(a), F13(b))
              for t, a, b in ((0, 0, 2), (3, 0, 1), (2, 5, 7), (0, 1, 1))]
    cases = set()
    for H in forms:
        for u, v in all_points(H):
            for q, known, got in ((H.fiber_in_v(u), v, sigma(H, (u, v))[1]),
                                  (H.fiber_in_u(v), u, tau(H, (u, v))[0])):
                want = brute_force_other_root(q, known)
                assert got == want
                C, B, A = q
                if known.coords[1].is_zero():
                    cases.add("infinity, B = 0" if B.is_zero() else
                              "infinity, B != 0")
                elif A.is_zero():
                    cases.add("A = 0, finite")
                if want == known:
                    cases.add("double root")
    assert cases == {"infinity, B = 0", "infinity, B != 0", "A = 0, finite",
                     "double root"}


def test_singular_points_are_tangencies(F13):
    # tangency parameter of the normal pair is u = 0, v = 0 in both charts
    for t, a, b in [(0, 0, 2), (3, 1, 1), (0, 2, 1)]:
        H = build_E_normalized(F13(t), F13(a), F13(b))
        sing = singular_points(H)
        zero = P1Point.affine(F13(0))
        assert (zero, zero) in [(u, v) for u, v in sing]
        for u, v in sing:
            assert H.lift(u.field).is_singular_at(u, v)


def test_singular_points_fixed_by_nu(F13):
    H = build_E_normalized(F13(3), F13(1), F13(1))  # type (3, 1)
    for u, v in singular_points(H):
        K = H.lift(u.field)
        assert nu(K, (u, v)) == (u, v)


def test_reducibility_table(F7):
    # split without lifting: t = 0, a = 0, b = 2 (delta = 4b^2 square)
    H = build_E_normalized(F7(0), F7(0), F7(2))
    split = is_reducible(H)
    assert split is not None and split[2] is False
    f1, f2, _ = split
    assert BiquadraticForm(H.field, f1.product(f2)) == H
    # irreducible examples
    assert is_reducible(build_E_normalized(F7(0), F7(1), F7(3))) is None


def test_reducible_split_may_need_extension(F7):
    # type (4) with -a a non-square forces a quadratic lift of the factors
    a = next(x for x in range(1, 7) if (-F7(x)).sqrt() is None)
    H = build_E_normalized(F7(0), F7(a), F7(1))
    split = is_reducible(H)
    assert split is not None and split[2] is True
    f1, f2, _ = split
    big = f1.field
    assert BiquadraticForm(big, f1.product(f2)) == H.lift(big)


def test_shape_tags(F13):
    # (2,1,1) -> node, (3,1) -> cusp, (2,2) and (4) -> split
    cases = []
    cases.append(((3, 1, 5), SHAPE_NODE))        # delta = 9 + 16 nonzero
    cases.append(((2, 7, 1), SHAPE_CUSP))        # b = 1, t nonzero
    for (t, a, b), tag in cases:
        outer, inner = normal_pair(F13, t, a, b)
        assert shape(outer, inner).tag == tag
    outer, inner = normal_pair(F13, 0, 5, 1)
    assert shape(outer, inner).tag == SHAPE_SPLIT_DOUBLE
    # t = 3, a = 1, b = 2: t^2 = 9 = 4a(1-b) mod 13, so delta = 0
    assert (F13(3) ** 2 - F13(4) * (F13.one - F13(2))).is_zero()
    outer, inner = normal_pair(F13, 3, 1, 2)
    assert shape(outer, inner).tag == SHAPE_SPLIT_TRANSVERSAL


def test_smooth_pairs_have_smooth_curve(F11):
    rng = random.Random(8)
    seen_smooth = 0
    for _ in range(20):
        outer, inner = random_smooth_pair(F11, rng)
        cfg_type = PonceletConfig(outer, inner).intersection_type
        sh = shape(outer, inner)
        if cfg_type == (1, 1, 1, 1):
            assert sh.tag == SHAPE_SMOOTH
            assert sh.singular == []
            seen_smooth += 1
    assert seen_smooth >= 5


def test_split_components_swapped_by_involutions(F7):
    H = build_E_normalized(F7(0), F7(0), F7(2))
    f1, f2, _ = is_reducible(H)
    for p in all_points(H):
        on1, on2 = f1.contains(*p), f2.contains(*p)
        assert on1 or on2
        if on1 != on2:  # away from the component intersection
            q = sigma(H, p)
            assert f1.contains(*q) == on2 and f2.contains(*q) == on1


def test_nu_has_period_p_in_osculating_case(F5):
    H = build_E_normalized(F5(0), F5(1), F5(1))  # type (4) over F5
    sing = set(singular_points(H))
    for p in all_points(H):
        if p in sing:
            continue
        q = p
        for _ in range(5):
            q = nu(H, q)
        assert q == p


def _double_sum(H, u, v, da=0, db=0, dc=0, dd=0):
    """sum h_ij a^i b^(2-i) c^j d^(2-j), or one first partial of it."""
    def term(x, y, i, dx, dy):
        # d/dx^dx d/dy^dy of x^i y^(2-i), at most one derivative
        k = 2 - i
        coef = (i if dx else 1) * (k if dy else 1)
        if coef == 0:
            return x.field.zero
        return coef * x ** (i - dx) * y ** (k - dy)
    (a, b), (c, d) = u.coords, v.coords
    field = u.field
    return sum((field(H.h[i][j]) * term(a, b, i, da, db) * term(c, d, j, dc, dd)
                for i in range(3) for j in range(3)), start=field.zero)


def test_evaluate_and_partials_are_the_double_sum(F13):
    F169 = parse_field_spec("Fq:13^2:11,0,1")
    rng = random.Random(13)
    for field in (F13, F169):
        for _ in range(6):
            H = BiquadraticForm(F13, [[F13(rng.randrange(13)) for _ in range(3)]
                                      for _ in range(3)])
            if field != F13:
                H = H.lift(field)
            p1 = [P1Point.infinity(field)] + [
                P1Point.affine(field.element(rng.randrange(field.size)))
                for _ in range(5)]
            for u in p1:
                for v in p1:
                    assert H.evaluate(u, v) == _double_sum(H, u, v)
                    assert H.partials(u, v) == (
                        _double_sum(H, u, v, da=1), _double_sum(H, u, v, db=1),
                        _double_sum(H, u, v, dc=1), _double_sum(H, u, v, dd=1))


SHAPE_OF_TYPE = {(1, 1, 1, 1): SHAPE_SMOOTH, (2, 1, 1): SHAPE_NODE,
                 (3, 1): SHAPE_CUSP, (2, 2): SHAPE_SPLIT_TRANSVERSAL,
                 (4,): SHAPE_SPLIT_DOUBLE}


def _check_type_and_shape(C, inners):
    for D in inners:
        mults = classify(C, D)
        sh = shape(C, D)
        assert sh.tag == SHAPE_OF_TYPE[mults], D
        assert len(sh.singular) == len(tangency_points(C, D)), D
        assert (sh.factors is not None) == (mults in ((2, 2), (4,))), D


def test_type_fixes_shape_for_every_conic_over_f3():
    # C = x^2 - yz against every other smooth conic over F_3
    F3 = parse_field_spec("Fp:3")
    C = Conic(F3, [1, 0, 0, 0, 0, 2])
    conics = set()
    for coeffs in product(range(3), repeat=6):
        if any(coeffs):
            conic = Conic(F3, list(coeffs))
            if conic.is_smooth() and conic != C:
                conics.add(conic)
    assert len(conics) == 233
    _check_type_and_shape(C, sorted(conics, key=lambda c: [x.sort_key()
                                                           for x in c.coeffs]))


def test_type_fixes_shape_on_a_sample_over_f5(F5):
    rng = random.Random(2024)
    C = Conic(F5, [1, 0, 0, 0, 0, 4])
    inners = []
    while len(inners) < 400:
        D = random_smooth_conic(F5, rng)
        if D != C:
            inners.append(D)
    _check_type_and_shape(C, inners)


def test_split_factor_order_over_q_sqrt_d():
    # g carries the sign of field.one.sqrt(), which is -1 over Q(sqrt d);
    # the factor order, and so the ecurve output, follows it
    F = parse_field_spec("Qsqrt:2")
    outer, inner = normal_pair(F, 0, 0, 2)
    sh = shape(outer, inner)
    assert sh.tag == SHAPE_SPLIT_TRANSVERSAL and not sh.lifted_split
    assert [str(f.m[1][0]) for f in sh.factors] == ["-2+1*sqrt(2)",
                                                   "-2+-1*sqrt(2)"]


def test_sigma_needs_points_over_the_forms_own_field(F13):
    from porism.errors import FieldMismatchError
    big = parse_field_spec("Fq:13^2:2,0,1")
    H = build_E(*random_smooth_pair(F13, random.Random(5)))
    u, v = all_points(H)[0]
    lifted = (u.lift(big), v.lift(big))
    for check in (True, False):
        with pytest.raises(FieldMismatchError):
            sigma(H, lifted, check=check)
        with pytest.raises(FieldMismatchError):
            tau(H, lifted, check=check)
    su, sv = sigma(H, (u, v))
    assert sigma(H.lift(big), lifted) == (su.lift(big), sv.lift(big))
