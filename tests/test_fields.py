import json
import random
import re
from fractions import Fraction
from itertools import product

import pytest

from porism import char2, projective
from porism.errors import (ExtensionOverflowError, FieldMismatchError,
                           TheoremViolation)
from porism.fields import (_SQUARE_PART_BOUND, ExtensionField, PrimeField,
                           QuadRationalField, RationalField, _is_prime,
                           _parse_field_spec, _quadratic_extension,
                           _square_part, binary_field,
                           lift_to_quadratic_extension, parse_element,
                           parse_field_spec)
from porism.poly import Polynomial, factor


def test_prime_field_basic_arithmetic(F13):
    a, b = F13(7), F13(9)
    assert a + b == F13(3)
    assert a * b == F13(11)  # 63 = 4*13 + 11
    assert a - b == F13(11)
    assert (-a) == F13(6)
    assert a / b == a * b.inv()
    assert F13(0) == F13(13)


def test_prime_field_inverse_law(F13):
    for a in F13.elements():
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inv()
        else:
            assert a * a.inv() == F13.one


def test_prime_field_rejects_composite_and_huge():
    with pytest.raises(ValueError):
        PrimeField(15)
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)


def test_f13_square_classification(F13):
    # squares mod 13 computed by listing x^2 for x = 0..12
    squares = {0, 1, 3, 4, 9, 10, 12}
    for a in F13.elements():
        assert (a.sqrt() is not None) == (a.value in squares)


def test_sqrt_returns_canonical_smaller_root(F13):
    assert F13(4).sqrt() == F13(2)   # roots 2 and 11
    assert F13(10).sqrt() == F13(6)  # 6^2 = 36 = 10, roots 6 and 7
    assert F13(2).sqrt() is None
    for a in F13.elements():
        r = a.sqrt()
        if r is not None:
            assert r * r == a
            assert r.sort_key() <= (-r).sort_key()


def test_extension_field_f9():
    F3 = PrimeField(3)
    F9 = ExtensionField(F3, [1, 0, 1])  # x^2 + 1, irreducible over F3
    i = F9.gen
    assert i * i == F9(-1)
    assert F9.size == 9
    for a in F9.elements():
        if not a.is_zero():
            assert a * a.inv() == F9.one
    # Frobenius fixes exactly the prime subfield
    fixed = [a for a in F9.elements() if a ** 3 == a]
    assert sorted(fixed, key=lambda a: a.sort_key()) == [F9(0), F9(1), F9(2)]


def test_extension_field_rejects_reducible_modulus():
    F3 = PrimeField(3)
    with pytest.raises(ValueError):
        ExtensionField(F3, [2, 0, 1])  # x^2 - 2 = (x-1)(x+1) mod 3


def test_tower_extension_and_embedding():
    F3 = PrimeField(3)
    F9 = ExtensionField(F3, [1, 0, 1])
    nonsq = next(a for a in F9.elements() if not a.is_zero() and a.sqrt() is None)
    big, root = lift_to_quadratic_extension(nonsq)
    assert big.size == 81
    assert root * root == big(nonsq)  # sqrt exists upstairs
    # embedding is a ring map
    a, b = F9(2), F9.gen
    assert big(a + b) == big(a) + big(b)
    assert big(a * b) == big(a) * big(b)


def test_finite_sqrt_in_extension():
    F5 = PrimeField(5)
    F25 = ExtensionField(F5, [2, 0, 1])  # x^2 + 2
    count = 0
    for a in F25.elements():
        r = a.sqrt()
        if r is not None:
            assert r * r == a
            count += 1
    # 0 plus half the units of F25
    assert count == 1 + 12


def test_rational_field_exactness(Q):
    x = Q(Fraction(1, 3))
    assert x + x + x == Q.one
    assert (Q(2) / Q(7)) * Q(7) == Q(2)
    assert Q(4).sqrt() == Q(2)
    assert Q(2).sqrt() is None


def test_quad_rational_arithmetic_and_sqrt():
    K = QuadRationalField(2)
    r2 = K.root
    assert r2 * r2 == K(2)
    x = K.one + r2          # 1 + sqrt(2)
    y = x * x               # 3 + 2 sqrt(2)
    assert y == K(3) + K(2) * r2
    s = y.sqrt()
    assert s is not None and s * s == y
    assert K(3).sqrt() is None  # 3 is not a square in Q(sqrt 2)


def test_quad_rational_rejects_square_radicand():
    with pytest.raises(ValueError):
        QuadRationalField(4)


def test_lift_policies(Q):
    K, root = lift_to_quadratic_extension(Q(2))
    assert isinstance(K, QuadRationalField) and K.d == 2
    assert root * root == K(2)
    K2 = QuadRationalField(3)
    with pytest.raises(ExtensionOverflowError):
        lift_to_quadratic_extension(K2(2))  # a second step over Q is refused


def test_cross_field_mismatch(F7, F11):
    with pytest.raises(FieldMismatchError):
        F7(1) + F11(1)


def test_binary_field_construction():
    F4 = binary_field(2)
    F8 = binary_field(3)
    assert (F4.size, F8.size) == (4, 8)
    # deterministic lexicographically-smallest moduli: x^2+x+1, x^3+x+1
    assert F4.spec_string() == "Fq:2^2:1,1,1"
    assert F8.spec_string() == "Fq:2^3:1,1,0,1"
    for a in F8.elements():
        r = a.sqrt()
        assert r * r == a  # Frobenius inverse is total in char 2


def test_field_spec_round_trip():
    specs = ["Fp:13", "Q", "Qsqrt:2", "Qsqrt:-1", "Fq:5^2:2,0,1", "F2k:3"]
    for s in specs:
        field = parse_field_spec(s)
        assert parse_field_spec(field.spec_string()) == field
    with pytest.raises(ValueError):
        parse_field_spec("Zmod:6")


def test_a_field_spec_parses_to_one_field(monkeypatch):
    spec = "Fq:7^3:4,0,0,1"  # x^3 + 4, irreducible over F_7
    _parse_field_spec.cache_clear()
    checks = []
    wrapped = ExtensionField._is_irreducible

    def counted(self):
        checks.append(self.spec_string())
        return wrapped(self)
    monkeypatch.setattr(ExtensionField, "_is_irreducible", counted)
    field = parse_field_spec(spec)
    assert parse_field_spec(spec) is field and field.size == 343
    assert checks == [spec]
    with pytest.raises(ValueError, match="a field spec is a string, not 7"):
        parse_field_spec(7)


def test_element_render_parse_round_trip():
    rng = random.Random(0)
    fields = [PrimeField(13), RationalField(), QuadRationalField(-1),
              ExtensionField(PrimeField(5), [2, 0, 1]), binary_field(3)]
    for field in fields:
        for _ in range(20):
            if field.size is not None:
                a = field(rng.randrange(field.size)) if field.char == field.size \
                    else random.Random(rng.random()).choice(list(field.elements()))
            elif isinstance(field, QuadRationalField):
                a = field((Fraction(rng.randrange(-9, 9), rng.randrange(1, 7)),
                           Fraction(rng.randrange(-9, 9), rng.randrange(1, 7))))
            else:
                a = field(Fraction(rng.randrange(-9, 9), rng.randrange(1, 7)))
            assert parse_element(field, str(a)) == a


def test_canonical_hash_equality(F7):
    assert hash(F7(3)) == hash(F7(10))
    assert len({F7(i) for i in range(70)}) == 7


def _matches_reference(field, pairs):
    # The reference is the package's one polynomial implementation: the
    # coefficient-wise sum and negation of poly.Polynomial and its product
    # reduced modulo the modulus, all over the base field's arithmetic.  An
    # inverse in a field is unique, so its defining law pins it.
    base = field.base
    modulus = Polynomial(base, field.modulus)
    zero, one = base.zero.value, field.one.value

    def values(poly):
        vals = [c.value for c in poly.coeffs]
        return tuple(vals + [zero] * (field.degree - len(vals)))

    for a, b in pairs:
        pa, pb = Polynomial(base, a), Polynomial(base, b)
        assert field._add(a, b) == values(pa + pb)
        assert field._neg(a) == values(-pa)
        assert field._mul(a, b) == values(pa * pb % modulus)
        if a != field.zero.value:
            assert field._mul(a, field._inv(a)) == one


def test_degree2_mul_inv_match_schoolbook_and_euclid_f25():
    F5 = PrimeField(5)
    # x^2 + 2 (r1 = 0) and x^2 + x + 2 (r1 != 0), both irreducible over F5
    for modulus in ([2, 0, 1], [2, 1, 1]):
        F25 = ExtensionField(F5, modulus)
        elems = [e.value for e in F25.elements()]
        _matches_reference(F25, [(a, b) for a in elems for b in elems])


def test_degree2_mul_inv_match_schoolbook_and_euclid_over_f27():
    F27 = parse_field_spec("Fq:3^3:1,2,0,1")
    rng = random.Random(27)
    elems = list(F27.elements())
    non_square = next(e for e in elems if not e.is_zero() and e.sqrt() is None)
    lifted, _ = lift_to_quadratic_extension(non_square)
    # and a modulus with a linear term: x^2 + x - non_square
    other = ExtensionField(F27, [-non_square, F27.one, F27.one])
    for big in (lifted, other):
        pool = [e.value for e in big.elements()]
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(300)]
        _matches_reference(big, pairs)
    with pytest.raises(ZeroDivisionError):
        lifted.zero.inv()


# Finite fields over a prime run on integer kernels: closed forms in degrees
# 2 and 3, a folded schoolbook product on ints and the shared extended Euclid
# above.
EXHAUSTIVE_KERNELS = ["Fq:3^3:1,2,0,1", "Fq:3^4:2,0,0,2,1", "F2k:4", "F2k:2"]
SAMPLED_KERNELS = ["Fq:7^4:3,4,5,0,1", "Fq:13^3:11,2,0,1", "F2k:7"]


@pytest.mark.parametrize("spec", EXHAUSTIVE_KERNELS)
def test_prime_kernel_matches_reference_on_every_pair(spec):
    field = parse_field_spec(spec)
    elems = [e.value for e in field.elements()]
    _matches_reference(field, [(a, b) for a in elems for b in elems])
    with pytest.raises(ZeroDivisionError):
        field.zero.inv()


@pytest.mark.parametrize("spec", SAMPLED_KERNELS)
def test_prime_kernel_matches_reference_on_samples(spec):
    field = parse_field_spec(spec)
    rng = random.Random(spec)
    draw = lambda: tuple(rng.randrange(field.char) for _ in range(field.degree))
    pairs = [(draw(), draw()) for _ in range(2000)]
    # and the sparse values where the product folds in few terms
    pairs += [(field.gen.value, field.gen.value), (field.one.value, draw()),
              ((field.gen ** (2 * field.degree - 2)).value, draw())]
    _matches_reference(field, pairs)
    with pytest.raises(ZeroDivisionError):
        field.zero.inv()


def test_cubic_closed_form_inverse_on_every_irreducible_cubic():
    # a cubic is irreducible exactly when it has no root; the kernel's
    # product, which the closed form does not use, checks every inverse
    count = 0
    for p in (2, 3, 5, 7):
        base = PrimeField(p)
        for tail in product(range(p), repeat=3):
            if any((tail[0] + t * tail[1] + t * t * tail[2] + t ** 3) % p == 0
                   for t in range(p)):
                continue
            field = ExtensionField(base, [*tail, 1], check=False)
            one = field.one.value
            for a in product(range(p), repeat=3):
                if any(a):
                    assert field._mul(a, field._inv(a)) == one
            with pytest.raises(ZeroDivisionError):
                field._inv(field.zero.value)
            count += 1
    assert count == 2 + 8 + 40 + 112


@pytest.mark.parametrize("spec,samples", [("Fq:5^4:2,0,0,0,1", None),
                                          ("Fq:13^4:2,0,0,0,1", 3000)])
def test_quartic_inverse_times_the_element_is_one(spec, samples):
    # every nonzero element of F_{5^4}, and samples of F_{13^4}, against the
    # kernel's own product
    field = parse_field_spec(spec)
    one = field.one.value
    if samples is None:
        elems = [e.value for e in field.elements()][1:]
    else:
        rng = random.Random(spec)
        elems = [tuple(rng.randrange(field.char) for _ in range(4))
                 for _ in range(samples)]
        elems = [a for a in elems if any(a)]
    for a in elems:
        assert field._mul(a, field._inv(a)) == one
    with pytest.raises(ZeroDivisionError):
        field.zero.inv()


def test_sqrt_over_equal_fields_rebuilt_agrees():
    # F_{13^2}: q - 1 = 8 * 21, so Tonelli-Shanks needs a non-residue; the
    # second, equal field reuses the first one's
    roots = []
    for _ in range(2):
        F169 = parse_field_spec("Fq:13^2:2,0,1")
        found = [a.sqrt() for a in F169.elements()]
        for a, r in zip(F169.elements(), found):
            if r is not None:
                assert r * r == a and r.sort_key() <= (-r).sort_key()
        roots.append([None if r is None else r.value for r in found])
    assert roots[0] == roots[1]
    assert sum(r is not None for r in roots[0]) == 1 + 84


def _irreducible(base, degree):
    """The first monic irreducible x^degree + x^(degree-1) + c over base, by
    factor."""
    for c in base.elements():
        f = Polynomial(base, [c] + [0] * (degree - 2) + [1, 1])
        if [g.degree for g, _ in factor(f)] == [degree]:
            return f


# Towers run on _tower_kernel: the Karatsuba product and conj/norm inverse in
# degree 2, a folded schoolbook product and Euclid on raw values above.
@pytest.mark.parametrize("degree", [3, 4])
def test_tower_kernel_matches_reference_over_f27(degree):
    F27 = parse_field_spec("Fq:3^3:1,2,0,1")
    tower = ExtensionField(F27, _irreducible(F27, degree).coeffs)
    rng = random.Random(degree)
    draw = lambda: tower.element(rng.randrange(tower.size)).value
    pairs = [(draw(), draw()) for _ in range(300)]
    pairs += [(tower.gen.value, tower.gen.value),
              ((tower.gen ** (2 * degree - 2)).value, draw())]
    _matches_reference(tower, pairs)
    with pytest.raises(ZeroDivisionError):
        tower.zero.inv()


def test_artin_schreier_tower_matches_reference_on_every_pair():
    F8 = parse_field_spec("F2k:3")
    # z^2 + z = c has no root in F8 for c of trace 1; the tower adjoins one
    tower = next(field for field in (char2.solve_artin_schreier(c)[1]
                                     for c in F8.elements()) if field != F8)
    assert tower.size == 64
    elems = [e.value for e in tower.elements()]
    _matches_reference(tower, [(a, b) for a in elems for b in elems])
    with pytest.raises(ZeroDivisionError):
        tower.zero.inv()


def _has_factor(base, modulus):
    """Brute force: some monic divisor of degree <= degree/2 divides."""
    f = Polynomial(base, modulus)
    for d in range(1, f.degree // 2 + 1):
        for tail in product(list(base.elements()), repeat=d):
            if (f % Polynomial(base, list(tail) + [1])).is_zero():
                return True
    return False


@pytest.mark.parametrize("spec,degrees", [("Fp:2", (2, 3, 4)), ("Fp:3", (2, 3, 4)),
                                          ("Fp:5", (2, 3)), ("F2k:2", (2,))])
def test_rabin_matches_brute_force_on_every_monic_modulus(spec, degrees):
    base = parse_field_spec(spec)
    for degree in degrees:
        for tail in product(list(base.elements()), repeat=degree):
            modulus = list(tail) + [base.one]
            field = ExtensionField(base, modulus, check=False)
            assert field._is_irreducible() != _has_factor(base, modulus), modulus


def test_reducible_modulus_above_old_scan_cap_is_rejected(tmp_path, capsys):
    from porism.cli import main
    with pytest.raises(ValueError):
        parse_field_spec("Fq:100003^2:0,0,1")  # x^2 = x * x
    pair = {name: {"field": "Fq:100003^2:0,0,1",
                   "coeffs": ["1", "1", "1", "0", "0", "0"]}
            for name in ("outer", "inner")}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    assert main(["classify", str(path)]) == 1
    assert "reducible" in json.loads(capsys.readouterr().err)["error"]


def test_extension_of_an_infinite_field_is_refused(Q):
    with pytest.raises(ValueError):
        ExtensionField(Q, [-2, 0, 1])


@pytest.mark.parametrize("spec", ["Fp:13", "Fq:3^3:1,2,0,1", "F2k:4", "tower"])
def test_element_i_is_the_ith_element(spec):
    if spec == "tower":
        F27 = parse_field_spec("Fq:3^3:1,2,0,1")
        field = ExtensionField(F27, _irreducible(F27, 2).coeffs)
    else:
        field = parse_field_spec(spec)
    elems = list(field.elements())
    assert elems == [field.element(i) for i in range(field.size)]
    # distinct and strictly increasing: exactly the field in sort_key order
    keys = [e.sort_key() for e in elems]
    assert len(keys) == field.size and keys == sorted(set(keys))


@pytest.mark.parametrize("spec", ["Fp:7", "Fq:3^2:1,0,1"])
def test_element_i_refuses_an_index_outside_the_field(spec):
    field = parse_field_spec(spec)
    assert field.element(field.size - 1) == list(field.elements())[-1]
    for i in (field.size, field.size + 2, -1):
        with pytest.raises(ValueError):
            field.element(i)


def test_find_point_draws_without_listing_the_field(monkeypatch):
    F = parse_field_spec("Fp:1000003")

    def refuse(self):
        raise AssertionError("the field was listed")

    monkeypatch.setattr(PrimeField, "elements", refuse)
    conic = projective.Conic(F, [1, 1, 3, 0, 0, 0])  # x^2 + y^2 + 3z^2
    assert conic.contains(projective.find_point(conic))


def _dot_field(name):
    """The field named, and a draw of its raw values."""
    if name == "F_{27^2}":
        F27 = parse_field_spec("Fq:3^3:1,2,0,1")
        field = ExtensionField(F27, _irreducible(F27, 2).coeffs)
    elif name == "F_{16^2}":
        F16 = parse_field_spec("F2k:4")
        field = ExtensionField(F16, _irreducible(F16, 2).coeffs)
    else:
        field = parse_field_spec(name)
    if field.size is not None:
        return field, lambda rng: field.element(rng.randrange(field.size)).value
    frac = lambda rng: Fraction(rng.randrange(-50, 51), rng.randrange(1, 12))
    if field == RationalField():
        return field, frac
    return field, lambda rng: (frac(rng), frac(rng))


# _dot is fused over F_p, in degrees 2 and 3 over F_p, in degree-2 towers and
# in the folded schoolbook kernels above them; Q and Q(sqrt d) fold.
@pytest.mark.parametrize("name", ["Fp:13", "Fq:13^2:2,0,1", "Fq:3^3:1,2,0,1",
                                  "Fq:7^4:3,4,5,0,1", "F_{27^2}", "F_{16^2}",
                                  "Q", "Qsqrt:-3"])
def test_dot_is_the_fold_of_add_over_mul(name):
    field, draw = _dot_field(name)
    rng = random.Random(name)
    for n in range(1, 7):
        for _ in range(40):
            u = tuple(draw(rng) for _ in range(n))
            v = tuple(draw(rng) for _ in range(n))
            want = field._mul(u[0], v[0])
            for a, b in zip(u[1:], v[1:]):
                want = field._add(want, field._mul(a, b))
            assert field._dot(u, v) == want


@pytest.mark.parametrize("spec", ["Fp:2", "F2k:3", "Fp:13"])
def test_finite_field_sqrt_is_the_canonical_root(spec):
    field = parse_field_spec(spec)
    elems = list(field.elements())
    for a in elems:
        roots = [r for r in elems if r * r == a]
        want = min(roots, key=lambda r: r.sort_key()) if roots else None
        assert field.sqrt(a) == want


def nonsquares(field):
    return [x for x in field.elements() if x and x.sqrt() is None]


def test_elements_combine_only_within_one_field():
    import operator
    F25 = parse_field_spec("Fq:5^2:2,0,1")
    tower = lift_to_quadratic_extension(nonsquares(F25)[0])[0]
    pairs = [(PrimeField(5)(2), F25.gen), (F25.gen, tower.gen),
             (RationalField()(3), QuadRationalField(2).root)]
    for small, big in pairs:
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for a, b in ((small, big), (big, small)):
                with pytest.raises(FieldMismatchError):
                    op(a, b)
        # equality across fields is False, not an error; new_field(x) lifts
        lifted = big.field(small)
        assert small != lifted and lifted != small
        assert lifted + big == big + lifted and lifted.field == big.field


def fields_of_five_kinds():
    """Fields of the five kinds, F_p, F_{p^k}, towers, Q and Q(sqrt d), with
    equal and unequal pairs of each kind."""
    F25 = parse_field_spec("Fq:5^2:2,0,1")
    towers = [ExtensionField(F25, [-x, 0, 1]) for x in nonsquares(F25)[:2]]
    return [PrimeField(5), PrimeField(7), F25, parse_field_spec("Fq:5^2:3,0,1"),
            parse_field_spec("Fq:7^2:1,0,1"), binary_field(3), *towers,
            RationalField(), QuadRationalField(2), QuadRationalField(3),
            QuadRationalField(Fraction(1, 2))]


def test_field_identity_is_its_spec_string():
    fields = fields_of_five_kinds() + fields_of_five_kinds()
    specs = [f.spec_string() for f in fields]
    assert any(s.startswith("Ext(") for s in specs)
    for (f, s), (g, t) in product(zip(fields, specs), repeat=2):
        assert (f == g) == (s == t)
        if f == g:
            assert hash(f) == hash(g)
    assert len(set(fields)) == len(set(specs)) == len(fields) // 2


def quadratic_base(spec):
    """A field to lift from: one given by its spec, or, for "tower", the
    quadratic extension x^2 - n of Fq:5^2:2,0,1, n its first non-square."""
    if spec != "tower":
        return parse_field_spec(spec)
    F25 = parse_field_spec("Fq:5^2:2,0,1")
    return ExtensionField(F25, [-nonsquares(F25)[0], 0, 1])


@pytest.mark.parametrize("spec", ["Fp:11", "Fp:13", "Fq:3^3:1,2,0,1", "tower"])
def test_every_lift_of_a_finite_field_lands_in_its_one_quadratic_extension(spec):
    K = quadratic_base(spec)
    nonsq = [x for x in K.elements() if x ** ((K.size - 1) // 2) == -1]
    some = nonsq[:3] + nonsq[-3:]
    lifts = [lift_to_quadratic_extension(a) for a in some]
    big = lifts[0][0]
    # two different non-squares, and an equal field built again, lift alike
    assert all(f is big for f, _ in lifts)
    assert lift_to_quadratic_extension(quadratic_base(spec)(some[-1]))[0] is big
    assert big.modulus == (-nonsq[0], K.zero, K.one)
    for a, (_, root) in zip(some, lifts):
        assert root * root == big(a)
        assert root == big(a).sqrt()  # the canonical root
    squares = [x * x for x in K.elements()][:8]
    for a in [K.zero] + squares:
        with pytest.raises(ValueError, match="already a square"):
            lift_to_quadratic_extension(a)


def test_lift_over_q_returns_the_canonical_root(Q):
    for a in (Q(2), Q(-3), Q(Fraction(5, 7))):
        K, root = lift_to_quadratic_extension(a)
        assert root * root == K(a) and root == K(a).sqrt()
    for a in (Q(0), Q(4), Q(Fraction(9, 4))):
        with pytest.raises(ValueError, match="already a square"):
            lift_to_quadratic_extension(a)


def test_lift_over_q_names_the_squarefree_part_of_the_radicand(Q):
    # a = +-k^2 d / m^2 adjoins sqrt(+-d), d squarefree, and its root is
    # -(k/m) sqrt(+-d), which sorts before +(k/m) sqrt(+-d)
    p = 100003  # a prime past the trial bound, whose square is still found
    kernels = [1, 2, 3, 6, 30, 97, 993, 1009 * 1013, 2 * 3 * 5 * 7 * 11 * 13]
    for d, sign, k, m in product(kernels, (1, -1), (1, 2, 12, 4608, p),
                                 (1, 3, 4609, 2 * p)):
        if sign * d == 1:
            continue
        a = Q(Fraction(sign * k * k * d, m * m))
        K, root = lift_to_quadratic_extension(a)
        assert K.spec_string() == f"Qsqrt:{sign * d}"
        assert root * root == K(a)
        assert root.value == (0, -Fraction(k, m))
        assert root.sort_key() < (-root).sort_key()


def test_square_part_is_complete_below_the_cube_of_its_bound():
    p, q = 100003, 100019
    assert _is_prime(p) and _is_prime(q) and p > _SQUARE_PART_BOUND
    assert _square_part(-(p * p) * 2 * 9) == (3 * p, -2)
    assert _square_part(p * q) == (1, p * q)
    # past the bound's cube the trial division stops with p^2 q left, a
    # cofactor with a square factor, and the name keeps it
    assert p * p * q > _SQUARE_PART_BOUND ** 3
    assert _square_part(4 * p * p * q) == (2, p * p * q)
    K, root = lift_to_quadratic_extension(RationalField()(p * p * q))
    assert K.spec_string() == f"Qsqrt:{p * p * q}"
    assert root * root == K(p * p * q)


def test_a_prime_field_reads_integers_only(F5):
    assert F5(7) == F5(2) and F5(-1) == F5(4) and F5(F5(3)) == F5(3)
    for bad in (Fraction(1, 2), 2.7, Fraction(4), "3"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            F5(bad)


def test_an_extension_field_reads_integer_coefficients_only():
    for F in (parse_field_spec("Fq:5^2:2,0,1"), quadratic_base("tower")):
        assert F((1, 2)) == F(1) + 2 * F.gen and F(3) == 3 * F.one
        for bad in (2.5, (1, 2.5), Fraction(1, 2), (Fraction(1, 2), 0)):
            with pytest.raises(ValueError, match=r"2\.5|Fraction\(1, 2\)"):
                F(bad)


def test_q_refuses_floats(Q):
    assert Q(3) == Q(Fraction(6, 2)) and Q(Fraction(1, 2)) * 2 == Q.one
    for bad in (2.7, 0.5, float("inf")):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            Q(bad)


def test_q_sqrt_d_refuses_floats():
    K = QuadRationalField(2)
    assert K((Fraction(1, 2), 3)) == K(Fraction(1, 2)) + 3 * K.root
    assert K(Fraction(1, 3)) == K((Fraction(1, 3), 0))
    for bad in (2.5, (2.5, 0), (1, 2.5)):
        with pytest.raises(ValueError, match=r"2\.5"):
            K(bad)


def power_field(spec):
    """A field given by its spec, or "F13^2" and "F27^2": the one quadratic
    extensions of F_13 and of Fq:3^3:1,2,0,1 (a tower)."""
    if spec == "F13^2":
        return _quadratic_extension(PrimeField(13))
    if spec == "F27^2":
        return _quadratic_extension(parse_field_spec("Fq:3^3:1,2,0,1"))
    return parse_field_spec(spec)


# Tonelli-Shanks' s, the 2-adic valuation of q - 1, is 1, 2, 2, 4, 1, 3, 3, 3
POWER_FIELDS = ["Fp:3", "Fp:5", "Fp:13", "Fp:17", "Fq:3^3:1,2,0,1",
                "Fq:5^2:2,0,1", "F13^2", "F27^2"]


@pytest.mark.parametrize("spec", POWER_FIELDS)
def test_raw_power_matches_repeated_products_on_every_element(spec):
    field = power_field(spec)
    q = field.size
    for x in field.elements():
        powers = [field.one]  # x^0 .. x^q by repeated products
        for _ in range(q):
            powers.append(powers[-1] * x)
        for n in (0, 1, q - 1, q):
            assert x ** n == powers[n]
        if x:
            y = x.inv()
            assert x ** -3 == y * y * y
    for n in (-1, -3):
        with pytest.raises(ZeroDivisionError):
            field.zero ** n


@pytest.mark.parametrize("spec", POWER_FIELDS)
def test_raw_sqrt_is_the_smaller_root_of_every_square(spec):
    field = power_field(spec)
    roots = {}
    for r in field.elements():
        roots.setdefault(r * r, []).append(r)
    assert len(roots) == (field.size + 1) // 2
    for a in field.elements():
        got = field.sqrt(a)
        if a not in roots:
            assert got is None
            continue
        r = roots[a][0]
        assert set(roots[a]) == {r, -r}
        assert got == min(r, -r, key=lambda x: x.sort_key())


@pytest.mark.parametrize("spec, exponent", [("Fp:13", 2), ("F13^2", 11)])
def test_tonelli_shanks_root_check_fires_on_a_corrupted_root(spec, exponent,
                                                             monkeypatch):
    # q - 1 = 2^s t with t = 3 and 21: the root starts as a^((t + 1)/2), the
    # only power taken to that exponent, which is doubled here, so the root
    # found squares to 4a
    field = power_field(spec)
    power = field._pow

    def doubled(a, n):
        r = power(a, n)
        return field._add(r, r) if n == exponent else r
    monkeypatch.setattr(field, "_pow", doubled)
    for a in [x * x for x in field.elements() if x][:12]:
        with pytest.raises(TheoremViolation, match="Tonelli-Shanks"):
            field.sqrt(a)


def test_binary_field_searches_for_its_modulus_once_per_k(monkeypatch):
    built = []
    init = ExtensionField.__init__

    def counted(self, base, modulus, *args):
        built.append(tuple(modulus))
        init(self, base, modulus, *args)
    binary_field.cache_clear()
    _parse_field_spec.cache_clear()
    monkeypatch.setattr(ExtensionField, "__init__", counted)
    for k in range(2, 9):
        built.clear()
        field = parse_field_spec(f"F2k:{k}")
        # one search: the candidates up to the first irreducible modulus
        assert built and built[-1] == tuple(c.value for c in field.modulus)
        searched = len(built)
        assert parse_field_spec(f"F2k:{k}") is field and binary_field(k) is field
        assert len(built) == searched
    # F2k:8's modulus x^8 + x^4 + x^3 + x + 1 is the 14th candidate
    assert searched == 14
