import random
import re
from itertools import product

import pytest

from porism.cli import conic_json, read_conic
from porism.errors import DegenerateInputError
from porism.fields import parse_field_spec
from porism.projective import (Conic, P1Point, ProjLine, ProjPoint,
                               ProjTransform, apply_transform, classify,
                               classify_normalized, find_point,
                               intersect_conics, normal_form_conic,
                               normalize_tangent_pair, other_intersection,
                               parametrize, polar, pullback_quartic,
                               tangency_data, tangency_points, tangent_at)

from conftest import plane_points, random_smooth_conic, random_smooth_pair
from reference import (intersect_line_conic, is_identity, line_through,
                       multiplicity_structure, wrapped_find_point,
                       wrapped_read_conic, wrapped_sqrt)


def test_point_canonicalization(F7):
    assert ProjPoint(F7, [2, 4, 6]) == ProjPoint(F7, [1, 2, 3])
    assert ProjPoint(F7, [0, 3, 5]) == ProjPoint(F7, [0, 1, 4])
    with pytest.raises(ValueError):
        ProjPoint(F7, [0, 0, 0])


def test_conic_needs_nonzero_coeffs(F5):
    with pytest.raises(ValueError):
        Conic(F5, [0, 0, 0, 0, 0, 0])


def test_smoothness_is_determinant(F7):
    # xy - z^2 is smooth; x^2 is a double line
    assert Conic(F7, [0, 0, -1, 1, 0, 0]).is_smooth()
    assert not Conic(F7, [1, 0, 0, 0, 0, 0]).is_smooth()


def test_tangent_meets_conic_once(F13):
    rng = random.Random(3)
    for _ in range(20):
        conic = random_smooth_conic(F13, rng)
        p = find_point(conic, rng.randrange(100))
        line = tangent_at(conic, p)
        pts = intersect_line_conic(conic, line)
        assert pts == [(p, 2)]


def test_polar_duality(F11):
    rng = random.Random(5)
    for _ in range(20):
        conic = random_smooth_conic(F11, rng)
        q = ProjPoint(F11, [rng.randrange(11) for _ in range(3)]
                      if rng.random() < 0.9 else [1, 0, 0])
        line = polar(conic, q)
        # the polar of a point on the conic is its tangent
        if conic.contains(q):
            assert line == tangent_at(conic, q)
        # reciprocity: p on polar(q) iff q on polar(p)
        for pt, _ in intersect_line_conic(conic, line):
            if pt.field == F11:
                assert tangent_at(conic, pt).contains(q)


def test_other_intersection_vieta(F13):
    rng = random.Random(11)
    for _ in range(30):
        conic = random_smooth_conic(F13, rng)
        p = find_point(conic, rng.randrange(100))
        # a random line through p
        q = ProjPoint(F13, [rng.randrange(13) for _ in range(3)])
        while q == p:
            q = ProjPoint(F13, [rng.randrange(13) for _ in range(3)])
        line = line_through(p, q)
        r = other_intersection(conic, line, p)
        assert conic.contains(r) and line.contains(r)
        # involution: the other point of r is p again (when transversal)
        if r != p:
            assert other_intersection(conic, line, r) == p


def test_parametrization_round_trip(F13):
    rng = random.Random(17)
    for _ in range(25):
        conic = random_smooth_conic(F13, rng)
        par = parametrize(conic, find_point(conic, rng.randrange(100)))
        for v in range(13):
            u = P1Point.affine(F13(v))
            pt = par.point_at(u)
            assert conic.contains(pt)
            assert par.param_of(pt) == u
        inf = P1Point.infinity(F13)
        assert par.param_of(par.point_at(inf)) == inf


def test_bezout_sum_is_four(F7):
    rng = random.Random(23)
    for _ in range(50):
        c, d = random_smooth_pair(F7, rng)
        pts = intersect_conics(c, d, seed=rng.randrange(100))
        assert sum(m for _, m in pts) == 4
        for p, _ in pts:
            assert c.lift(p.field).contains(p)
            assert d.lift(p.field).contains(p)


def test_classification_table(F13):
    one, zero = F13.one, F13.zero
    assert classify_normalized(F13(3), F13(1), F13(5)) == (2, 1, 1)  # delta=9-4*1*(-4)=25
    # delta = 0: t=4, a=1, b=5 gives 16 - 4*(-4) = 32 = 6; pick t with t^2=4a(1-b)
    t = (F13(4) * one * (one - F13(5))).sqrt()
    assert t is not None
    assert classify_normalized(t, one, F13(5)) == (2, 2)
    assert classify_normalized(F13(2), F13(7), one) == (3, 1)
    assert classify_normalized(zero, F13(4), one) == (4,)
    with pytest.raises(DegenerateInputError):
        classify_normalized(zero, zero, one)


def test_classify_matches_intersections(F11):
    rng = random.Random(29)
    for _ in range(40):
        c, d = random_smooth_pair(F11, rng)
        mults = classify(c, d, seed=rng.randrange(100))
        pts = intersect_conics(c, d, seed=rng.randrange(100))
        assert mults == tuple(sorted((m for _, m in pts), reverse=True))


def test_normalize_tangent_pair_round_trip(F13):
    rng = random.Random(31)
    done = 0
    while done < 15:
        c, d = random_smooth_pair(F13, rng)
        if multiplicity_structure(c, d)[0] < 2:
            continue
        c_l, d_l, pts, _ = tangency_data(c, d)
        norm = normalize_tangent_pair(c_l, d_l, pts[0])
        nc, nd = norm.conics()
        m = norm.transform
        assert m(c_l) == nc and m(d_l) == nd
        # the tangency point goes to the base point of the normal form
        assert m(pts[0]) == ProjPoint(nc.field, [0, 0, 1])
        done += 1


def test_normal_form_self_consistency(F7):
    for t, a, b in [(1, 2, 3), (0, 1, 1), (2, 0, 1), (3, 3, 5)]:
        c = normal_form_conic(F7(t), F7(a), F7(b))
        d = Conic(F7, [1, 0, 0, 0, 0, -1])
        if not c.is_smooth() or c == d:
            continue
        p = ProjPoint(F7, [0, 0, 1])
        norm = normalize_tangent_pair(c, d, p)
        assert (norm.t, norm.a, norm.b) == (F7(t), F7(a), F7(b))
        assert is_identity(norm.transform)


def test_tangency_points_over_q(Q):
    # concentric circles x^2 + y^2 = r z^2 meet only at the circular points,
    # each with multiplicity two
    c = Conic(Q, [1, 1, -4, 0, 0, 0])
    d = Conic(Q, [1, 1, -1, 0, 0, 0])
    assert multiplicity_structure(c, d) == (2, 2)
    pts = tangency_points(c, d)
    assert len(pts) == 2
    for p in pts:
        x, y, z = p.coords
        assert z.is_zero() and (x * x + y * y).is_zero()


def test_tangency_points_share_one_field(Q):
    # tangency_data lifts to the first point's field: at most two points, a
    # Galois-stable set, so both lie over the base field or both above it
    pairs = [(Conic(Q, [1, 1, -4, 0, 0, 0]), Conic(Q, [1, 1, -1, 0, 0, 0]))]
    for spec in ("Fp:3", "Fp:5", "Fp:7", "Fq:3^2:1,0,1", "Fp:13",
                 "Fq:3^3:1,2,0,1"):
        field = parse_field_spec(spec)
        d = Conic(field, [1, 0, 0, 0, 0, -1])
        triples = product(field.elements(), repeat=3)
        if field.size == 27:
            rng = random.Random(spec)
            triples = [[field.element(rng.randrange(27)) for _ in range(3)]
                       for _ in range(200)]
        for t, a, b in triples:
            c = normal_form_conic(t, a, b)
            if c.is_smooth() and c != d:
                pairs.append((c, d))
    fields = set()
    for c, d in pairs:
        pts = tangency_points(c, d)
        assert len({p.field for p in pts}) == 1
        c_l, d_l, _, _ = tangency_data(c, d, points=pts)
        assert c_l.field == d_l.field == pts[0].field
        fields.add(pts[0].field == c.field)
    assert fields == {False, True}


def test_transform_group_operations(F11):
    m = ProjTransform(F11, [[1, 2, 0], [0, 1, 0], [3, 0, 1]])
    assert is_identity(m.compose(m.inverse()))
    conic = Conic(F11, [0, 0, -1, 1, 0, 0])
    moved = m(conic)
    assert m.inverse()(moved) == conic
    p = find_point(conic, 4)
    assert moved.contains(m(p))


def test_tangency_data_from_known_points_matches_solving_them():
    # PonceletConfig.tangencies handed to tangency_data, as classify does
    from porism.fields import PrimeField
    lifted = set()
    for p in (7, 13):
        field = PrimeField(p)
        rng = random.Random(p)
        found = 0
        while found < 30:
            c, d = random_smooth_pair(field, rng)
            if multiplicity_structure(c, d)[0] < 2:
                continue
            found += 1
            want = tangency_data(c, d, seed=found)
            got = tangency_data(c, d, seed=found,
                                points=tangency_points(c, d, seed=found))
            assert got == want
            lifted.add(want[3])
    assert lifted == {False, True}


def test_classify_pulls_back_once(F13, monkeypatch):
    import porism.projective as projective
    calls = []
    pullback = projective._pullback

    def counted(c, d, seed):
        calls.append(seed)
        return pullback(c, d, seed)
    monkeypatch.setattr(projective, "_pullback", counted)
    rng = random.Random(41)
    kinds = set()
    for t, a, b in [(3, 1, 5), (2, 7, 1), (0, 4, 1), (1, 2, 3)]:
        c = normal_form_conic(F13(t), F13(a), F13(b))
        d = Conic(F13, [1, 0, 0, 0, 0, -1])
        for pair in ((c, d), random_smooth_pair(F13, rng)):
            del calls[:]
            kinds.add(classify(*pair, seed=3))
            assert calls == [3]
    assert {(2, 1, 1), (3, 1), (4,), (1, 1, 1, 1)} <= kinds


def test_bilinear_is_the_polarization_in_every_characteristic():
    from porism.fields import parse_field_spec
    for spec in ("Fp:7", "F2k:3", "Fq:3^3:1,2,0,1", "Q"):
        field = parse_field_spec(spec)
        rng = random.Random(spec)
        elems = ([field(v) for v in range(-4, 5)] if field.size is None
                 else list(field.elements()))
        for _ in range(20):
            try:
                conic = Conic(field, [rng.choice(elems) for _ in range(6)])
            except ValueError:
                continue
            u, v = ([rng.choice(elems) for _ in range(3)] for _ in range(2))
            s = [a + b for a, b in zip(u, v)]
            assert conic.bilinear(u, v) == \
                conic.evaluate(s) - conic.evaluate(u) - conic.evaluate(v)


def test_span_is_the_first_two_crosses_with_the_axes(F5):
    # every line of P^2(F_5) against the crosses built on wrapped elements
    lines = {ProjLine(F5, [a, b, c]) for a in range(5) for b in range(5)
             for c in range(5) if (a, b, c) != (0, 0, 0)}
    assert len(lines) == 31
    for line in lines:
        l0, l1, l2 = line.coeffs
        crosses = [[0 * l0, l2, -l1], [-l2, 0 * l0, l0], [l1, -l0, 0 * l0]]
        want = []
        for v in crosses:
            if any(v) and ProjPoint(F5, v) not in want:
                want.append(ProjPoint(F5, v))
        assert line.span() == tuple(want[:2])


def test_zero_inputs_keep_their_messages(F5):
    from porism.ecurve import BilinearFactor, BiquadraticForm
    for build, message in [
            (lambda: ProjPoint(F5, [0, 0, 0]), "all coordinates are zero"),
            (lambda: ProjLine(F5, [0, 0, 0]), "all coordinates are zero"),
            (lambda: Conic(F5, [0] * 6), "zero quadratic form is not a conic"),
            (lambda: P1Point(F5, (0, 0)), "both coordinates are zero"),
            (lambda: BiquadraticForm(F5, [[0] * 3] * 3), "zero form is not a curve"),
            (lambda: BilinearFactor(F5, [[0] * 2] * 2), "zero form")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


def test_the_canonical_scale_classes_share_one_protocol(F5):
    # per class: input, its repr, a wrong-length input and its message
    from porism.ecurve import BilinearFactor, BiquadraticForm
    table = [
        (ProjPoint, [2, 4, 1], "[1:2:3]",
         [1, 2], "a projective point needs three coordinates"),
        (ProjLine, [2, 4, 1], "{1:2:3}",
         [1, 2], "a projective line needs three coefficients"),
        (Conic, [2, 1, 1, 0, 0, 0], "Conic(1, 3, 3, 0, 0, 0)",
         [1] * 5, "a conic needs six coefficients"),
        (P1Point, [2, 1], "(1:3)",
         [1, 2, 3], "a point of P^1 needs two coordinates"),
        (BiquadraticForm, [[0, 1, 2], [3, 0, 0], [0, 0, 1]],
         "(1)u^0v^1 + (2)u^0v^2 + (3)u^1v^0 + (1)u^2v^2",
         [[1] * 3, [1] * 3], "a biquadratic form needs a 3x3 coefficient array"),
        (BilinearFactor, [[2, 1], [0, 3]], "(1)u^0v^0 + (3)u^0v^1 + (4)u^1v^1",
         [[1, 2], [3]], "a bilinear factor needs a 2x2 coefficient array")]
    big = parse_field_spec("Fq:5^2:2,0,1")

    def scaled(values, s):
        return [scaled(v, s) if isinstance(v, list) else s * v for v in values]

    built = [cls(F5, values) for cls, values, *_ in table]
    for (cls, values, text, short, message), x in zip(table, built):
        assert repr(x) == text
        twin = cls(F5, scaled(values, 3))
        assert twin == x and hash(twin) == hash(x)
        assert [y for y in built if y == x] == [x]
        up = x.lift(big)
        assert type(up) is cls and up.field == big
        assert up.coeffs == tuple(big(c) for c in x.coeffs)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(F5, short)
    assert ProjPoint(F5, [1, 2, 3]) != ProjLine(F5, [1, 2, 3])
    assert ProjLine(F5, [1, 2, 3]) != ProjPoint(F5, [1, 2, 3])


def test_pullback_quartic_is_the_form_on_the_unscaled_parametrization(Q):
    cases = []
    for spec in ("Fp:13", "Fq:3^3:1,2,0,1"):
        field = parse_field_spec(spec)
        rng = random.Random(spec)
        for _ in range(4):
            cases.append((random_smooth_pair(field, rng), list(field.elements())))
    euler = (Conic(Q, [1, 1, -16, 0, 0, 0]),
             Conic(Q, [1, 1, Q(7) / 4, 0, -4, 0]))
    cases.append((euler, [Q(v) / 3 for v in range(-9, 10)]))
    for (c, d), params in cases:
        par = parametrize(d, find_point(d))
        quartic = pullback_quartic(c, par)
        w = [[row[j] for row in par.c] for j in range(3)]
        for u in params:
            point = [w[0][r] + u * w[1][r] + u * u * w[2][r] for r in range(3)]
            assert sum((q * u ** k for k, q in enumerate(quartic)),
                       start=u.field.zero) == c.evaluate(point)
        # at u = infinity the quartic's top coefficient is F on w_2
        assert quartic[4] == c.evaluate(w[2])


def test_transformed_conic_contains_the_transformed_points():
    for spec in ("Fp:7", "Fq:5^2:2,0,1"):
        field = parse_field_spec(spec)
        rng = random.Random(spec)
        plane = plane_points(field)
        elems = list(field.elements())
        for _ in range(3):
            conic = random_smooth_conic(field, rng)
            while True:
                try:
                    m = ProjTransform(field, [[rng.choice(elems) for _ in range(3)]
                                              for _ in range(3)])
                    break
                except DegenerateInputError:
                    continue
            image = apply_transform(m, conic)
            on = [p for p in plane if conic.contains(p)]
            assert len(on) == field.size + 1
            assert all(image.contains(m(p)) for p in on)


def test_find_point_solves_no_line_of_a_conic_through_e0(monkeypatch):
    # a00 = 0 puts [1 : 0 : 0] on the conic, and find_point tries it before
    # any line, so _solve_on_line always has a quadratic in x
    import porism.projective as projective
    solved = []
    solve = projective._solve_on_line

    def spy(conic, y, z):
        solved.append(conic.coeffs[0])
        return solve(conic, y, z)
    monkeypatch.setattr(projective, "_solve_on_line", spy)
    through_e0 = 0
    for spec in ("Fp:3", "Fp:5"):
        field = parse_field_spec(spec)
        rng = random.Random(spec)
        for _ in range(300):
            conic = random_smooth_conic(field, rng)
            through_e0 += conic.coeffs[0].is_zero()
            assert conic.contains(find_point(conic, rng.randrange(100)))
    assert through_e0 and solved
    assert not any(a00.is_zero() for a00 in solved)


@pytest.mark.parametrize("spec, coeffs, point", [
    ("Fp:5", [1, 0, 0, 0, 0, 0], [0, 1, 0]),    # x^2, singular along x = 0
    ("F2k:2", [0, 0, 0, 1, 0, 0], [0, 0, 1]),   # xy, singular at [0:0:1]
], ids=["odd-characteristic", "characteristic-two"])
def test_tangent_at_a_singular_point_is_degenerate(spec, coeffs, point):
    field = parse_field_spec(spec)
    with pytest.raises(DegenerateInputError, match="singular at the point"):
        tangent_at(Conic(field, coeffs), ProjPoint(field, point))


def halved_matrix(conic):
    """The symmetric matrix A with F(v) = v^T A v, mixed entries halved."""
    a00, a11, a22, a01, a02, a12 = conic.coeffs
    h = conic.field(2).inv()
    return [[a00, a01 * h, a02 * h], [a01 * h, a11, a12 * h],
            [a02 * h, a12 * h, a22]]


def det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def sample_conics(field, rng, count):
    """Random conics with small coefficients, and as many line pairs (rank
    at most 2, so singular)."""
    def small():
        return field(rng.randrange(-4, 5)) if field.size is None \
            else field.element(rng.randrange(field.size))
    out = []
    while len(out) < 2 * count:
        (a, b, c), (d, e, f) = [[small() for _ in range(3)] for _ in range(2)]
        for coeffs in ([small() for _ in range(6)],
                       [a * d, b * e, c * f, a * e + b * d, a * f + c * d,
                        b * f + c * e]):
            if any(coeffs):
                out.append(Conic(field, coeffs))
    return out


def conics_with_samples():
    F3 = parse_field_spec("Fp:3")
    conics = [Conic(F3, v) for v in product(range(3), repeat=6) if any(v)]
    assert len(conics) == 728  # every coefficient vector but zero
    rng = random.Random(17)
    for spec in ("Fq:5^2:2,0,1", "Q", "Qsqrt:2"):
        conics += sample_conics(parse_field_spec(spec), rng, 60)
    return conics


def test_is_smooth_is_the_halved_matrix_determinant():
    smooth = 0
    for conic in conics_with_samples():
        assert conic.is_smooth() == (not det3(halved_matrix(conic)).is_zero())
        smooth += conic.is_smooth()
    assert 0 < smooth < 728 + 3 * 120


def test_polar_is_the_halved_matrix_line():
    rng = random.Random(19)
    checked = 0
    for conic in conics_with_samples():
        if not conic.is_smooth() or rng.random() > 0.2:
            continue
        field, a = conic.field, halved_matrix(conic)
        for _ in range(4):
            coords = [field.element(rng.randrange(field.size))
                      if field.size else field(rng.randrange(-6, 7))
                      for _ in range(3)]
            if not any(coords):
                continue
            q = ProjPoint(field, coords)
            want = [sum((a[i][k] * q.coords[k] for k in range(3)),
                        start=field.zero) for i in range(3)]
            assert polar(conic, q) == ProjLine(field, want)
            checked += 1
    assert checked > 100


def test_a_conic_refuses_coordinates_over_an_extension(F7):
    from porism.errors import FieldMismatchError
    big = parse_field_spec("Fq:7^2:1,0,1")
    conic = Conic(F7, [1, 1, -2, 0, 0, 0])
    coords = [big(1), big.gen, big(0)]
    with pytest.raises(FieldMismatchError):
        conic.evaluate(coords)
    with pytest.raises(FieldMismatchError):
        conic.gradient(coords)
    assert conic.lift(big).evaluate(coords) == 1 + big.gen * big.gen


def smooth_conics(field):
    """Every smooth conic over a finite field, once each."""
    for coeffs in product(list(field.elements()), repeat=6):
        pivot = next((c for c in coeffs if c), None)
        if pivot == field.one:
            conic = Conic(field, coeffs)
            if conic.is_smooth():
                yield conic


FRONT_END_EXHAUSTIVE = ["Fp:3", "Fp:5"]
FRONT_END_SAMPLED = ["Fp:7", "Fp:13", "Fq:3^2:1,0,1", "Fq:5^2:2,0,1",
                     "Fq:3^3:1,2,0,1"]
SQRT_FIELDS = ["Fp:3", "Fp:5", "Fp:7", "Fq:3^2:1,0,1", "Fp:11", "Fp:13",
               "Fq:5^2:2,0,1", "Fq:3^3:1,2,0,1"]


def test_front_end_fast_paths_match_their_wrapped_references():
    # every smooth conic over F_3 and F_5 (234 and 3,100) and 25 seeded
    # draws per seed 0-3 over five more fields, whose searches reach the
    # seeded lines about 4,300 times; about 3 s on one core
    corpus = [(c, seed) for spec in FRONT_END_EXHAUSTIVE
              for c in smooth_conics(parse_field_spec(spec)) for seed in range(4)]
    for spec in FRONT_END_SAMPLED:
        field = parse_field_spec(spec)
        for seed in range(4):
            rng = random.Random(seed)
            corpus += [(random_smooth_conic(field, rng), seed) for _ in range(25)]
    for conic, seed in corpus:
        field, obj = conic.field, conic_json(conic)
        assert read_conic(obj) == wrapped_read_conic(obj) == conic
        base = find_point(conic, seed)
        assert base == wrapped_find_point(conic, seed)
        if seed:
            continue
        # the parametrization's maps against the line through the base and
        # m = b e_i + a e_j, on the axis x_k = 0, for every (a : b)
        par = parametrize(conic, base)
        (i, j), params = par.span_idx, [P1Point.infinity(field)]
        params += [P1Point.affine(u) for u in field.elements()]
        for u in params:
            (a, b), m = u.coords, [field.zero] * 3
            m[i], m[j] = b, a
            point = other_intersection(conic, line_through(base, ProjPoint(field, m)),
                                       base)
            assert par.point_at(u) == point and par.param_of(point) == u
    for spec in SQRT_FIELDS:
        field = parse_field_spec(spec)
        for a in field.elements():
            assert field.sqrt(a) == wrapped_sqrt(a)
