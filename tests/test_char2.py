import random
from itertools import product

import pytest

from porism.char2 import (CanonicalForm2, QuadraticForm2, is_irreducible_conic,
                          solve_artin_schreier, strange_point,
                          symplectic_normalize, tangent_at_char2)
from porism.errors import DegenerateInputError
from porism.fields import ExtensionField, PrimeField, binary_field
from porism.projective import Conic

from conftest import plane_points


def random_form(field, n, rng):
    pool = list(field.elements())
    coeffs = {}
    for i in range(n):
        for j in range(i, n):
            coeffs[(i, j)] = rng.choice(pool)
    return QuadraticForm2(field, n, coeffs)


def random_conic2(field, rng):
    pool = list(field.elements())
    while True:
        try:
            return Conic(field, [rng.choice(pool) for _ in range(6)])
        except ValueError:
            continue


def test_polar_form_is_alternating():
    F8 = binary_field(3)
    rng = random.Random(1)
    for _ in range(20):
        q = random_form(F8, 3, rng)
        for _ in range(10):
            u = [F8.element(rng.randrange(8)) for _ in range(3)]
            v = [F8.element(rng.randrange(8)) for _ in range(3)]
            assert q.polar(u, u).is_zero()
            assert q.polar(u, v) == q.polar(v, u)
            # the alternating matrix: a_ij off the diagonal, zero on it
            want = sum((q.coefficient(i, j) * (u[i] * v[j] + u[j] * v[i])
                        for i in range(3) for j in range(i + 1, 3)),
                       start=F8.zero)
            assert q.polar(u, v) == want
            # and the polarization it stands for
            w = [a + b for a, b in zip(u, v)]
            assert q.polar(u, v) == q.evaluate(w) + q.evaluate(u) + q.evaluate(v)


def test_artin_schreier_solutions():
    F16 = binary_field(4)
    lifted = 0
    for c in F16.elements():
        s, K = solve_artin_schreier(c)
        assert s * s + s == (K(c) if K != F16 else c)
        if K != F16:
            lifted += 1
    # exactly half the elements have trace one and need the extension
    assert lifted == 8


def test_normalize_identity_on_canonical_form():
    F4 = binary_field(2)
    q = QuadraticForm2(F4, 3, {(0, 1): 1, (2, 2): 1})
    can = symplectic_normalize(q)
    assert (can.l, can.has_square_term, can.lifted) == (1, True, False)
    assert q.transform(can.columns) == can.canonical_form()


def test_normalize_binary_hyperbolic():
    # x^2 + xy + y^2 over F4 splits into two lines: one hyperbolic pair
    F4 = binary_field(2)
    q = QuadraticForm2(F4, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    can = symplectic_normalize(q)
    assert (can.l, can.has_square_term) == (1, False)


def test_normalize_sum_of_squares_collapses():
    # x0^2 + x1^2 = (x0 + x1)^2: rank-one radical, no hyperbolic pair
    F2 = PrimeField(2)
    q = QuadraticForm2(F2, 2, {(0, 0): 1, (1, 1): 1})
    can = symplectic_normalize(q)
    assert (can.l, can.has_square_term) == (0, True)


def test_normalize_random_forms():
    rng = random.Random(5)
    for field in (binary_field(2), binary_field(3)):
        for n in (3, 4):
            for _ in range(60):
                q = random_form(field, n, rng)
                if q.is_zero():
                    continue
                can = symplectic_normalize(q)
                moved = q.map_field(can.field) if can.lifted else q
                assert moved.transform(can.columns) == can.canonical_form()
                assert 2 * can.l + (1 if can.has_square_term else 0) <= n


def test_symplectic_normalize_matches_the_wrapped_reference():
    # symplectic_normalize runs on raw vectors; tests/reference.py keeps it
    # on FieldElements and QuadraticForm2's polar and evaluate
    import reference
    rng = random.Random("char2-oracle")
    seen = {"lifted": 0, "square": 0}
    for k in (3, 4):
        field = binary_field(k)
        for n in range(2, 6):
            for i in range(16):
                q = random_form(field, n, rng)
                if i % 2:  # sparse forms have degenerate polar forms
                    q = QuadraticForm2(field, n, {key: v for key, v in q.coeffs.items()
                                                  if rng.random() < 0.4})
                got, want = symplectic_normalize(q), reference.symplectic_normalize(q)
                assert ((got.field, got.l, got.has_square_term, got.lifted, got.columns)
                        == (want.field, want.l, want.has_square_term, want.lifted,
                            want.columns)), q
                seen["lifted"] += got.lifted
                seen["square"] += got.has_square_term
    # Artin-Schreier lifts and square terms are both exercised
    assert seen["lifted"] >= 10 and seen["square"] >= 10, seen


def test_invariants_stable_under_basis_change():
    F8 = binary_field(3)
    rng = random.Random(6)
    for _ in range(25):
        q = random_form(F8, 3, rng)
        if q.is_zero():
            continue
        base = symplectic_normalize(q)
        # conjugate by a random invertible matrix
        pool = list(F8.elements())
        while True:
            cols = tuple(tuple(rng.choice(pool) for _ in range(3))
                         for _ in range(3))
            (a, b, c), (d, e, f), (g, h, i) = cols
            det = a * (e * i + f * h) + b * (d * i + f * g) + c * (d * h + e * g)
            if not det.is_zero():
                break
        moved = symplectic_normalize(q.transform(cols))
        assert (moved.l, moved.has_square_term) == (base.l, base.has_square_term)


def test_irreducibility_detection():
    F4 = binary_field(2)
    assert is_irreducible_conic(Conic(F4, [0, 0, 1, 1, 0, 0]))  # xy + z^2
    assert not is_irreducible_conic(Conic(F4, [0, 0, 0, 1, 0, 0]))  # xy
    assert not is_irreducible_conic(Conic(F4, [1, 1, 0, 0, 0, 0]))  # (x+y)^2


def test_irreducibility_from_the_radical_matches_normalization():
    # every nonzero conic over F_2 and F_4, and seeded ones over F_8, against
    # the canonical shape x0*x1 + x2^2 of the full normalization
    F8 = binary_field(3)
    rng = random.Random(8)
    conics = [Conic(F, coeffs) for F in (PrimeField(2), binary_field(2))
              for coeffs in product(list(F.elements()), repeat=6) if any(coeffs)]
    conics += [random_conic2(F8, rng) for _ in range(3000)]
    assert len(conics) == 63 + 4095 + 3000
    for conic in conics:
        a00, a11, a22, a01, a02, a12 = conic.coeffs
        can = symplectic_normalize(QuadraticForm2(conic.field, 3, {
            (0, 0): a00, (1, 1): a11, (2, 2): a22,
            (0, 1): a01, (0, 2): a02, (1, 2): a12}))
        assert is_irreducible_conic(conic) == (can.l == 1 and can.has_square_term)


def test_strange_point_collects_all_tangents():
    rng = random.Random(7)
    for field in (binary_field(3), binary_field(4)):
        done = 0
        while done < 8:
            conic = random_conic2(field, rng)
            if not is_irreducible_conic(conic):
                continue
            p = strange_point(conic)
            points = {pt for pt in plane_points(field) if conic.contains(pt)}
            assert points
            for pt in points:
                assert tangent_at_char2(conic, pt).contains(p)
            done += 1


def test_exactly_one_tangent_through_external_point():
    field = binary_field(3)
    rng = random.Random(11)
    done = 0
    while done < 10:
        conic = random_conic2(field, rng)
        if not is_irreducible_conic(conic):
            continue
        p = strange_point(conic)
        # a random point q with q != p and q not on the conic
        while True:
            q = rng.choice(plane_points(field))
            if q != p and not conic.contains(q):
                break
        tangents = {tangent_at_char2(conic, pt)
                    for pt in plane_points(field) if conic.contains(pt)}
        through_q = [line for line in tangents if line.contains(q)]
        assert len(through_q) == 1
        done += 1


def test_strange_point_requires_irreducible():
    F4 = binary_field(2)
    with pytest.raises(DegenerateInputError):
        strange_point(Conic(F4, [0, 0, 0, 1, 0, 0]))


@pytest.mark.parametrize("k", range(1, 9))
def test_artin_schreier_root_is_the_first_root_of_the_scan(k):
    F = binary_field(k)
    first = {}
    for z in F.elements():
        first.setdefault(z * z + z, z)
    for c in F.elements():
        z, K = solve_artin_schreier(c)
        if c in first:
            assert (z, K) == (first[c], F)
        else:
            assert K == ExtensionField(F, [c, F.one, F.one])
            assert z == K.gen and z * z + z == K(c)


def test_normalize_binary_form_over_f2k20_solves_without_a_scan():
    # x0^2 + x0 x1 + c x1^2 splits over F_{2^20} iff c has trace zero; the
    # trace-one case once scanned all 2^20 elements for a root
    F = binary_field(20)

    def trace(c):
        t = c
        for _ in range(19):
            c = c * c
            t = t + c
        return t
    by_trace = {}
    for i in range(1, 64):
        by_trace.setdefault(trace(F.element(i)), F.element(i))
    for tr, lifted in ((F.zero, False), (F.one, True)):
        q = QuadraticForm2(F, 2, {(0, 0): 1, (0, 1): 1, (1, 1): by_trace[tr]})
        can = symplectic_normalize(q)
        assert (can.l, can.has_square_term, can.lifted) == (1, False, lifted)
        moved = q.map_field(can.field) if lifted else q
        assert moved.transform(can.columns) == can.canonical_form()
