"""Projective plane geometry over an exact field.

Points, lines and conics are stored in canonical projective scale (first
nonzero coordinate equal to one) so equality and hashing are structural.
Conics carry their six coefficients in the fixed monomial order
x^2, y^2, z^2, xy, xz, yz.  Their one derived form is the gradient, whose
rows are twice the conic's symmetric matrix: tangents and polars are
gradient lines, and in odd characteristic the conic is smooth when the rows'
determinant is nonzero.  A conic acts only on points over its own field;
``conic.lift(field)`` and ``point.lift(field)`` move either up a tower.

Conic-conic intersection multiplicities are computed by pulling one conic
back along a degree-1 parametrization of the other, which reduces everything
to the multiplicity structure of a binary quartic and stays exact in every
characteristic other than two.
"""

import random

from .errors import (DegenerateInputError, FieldMismatchError, NotOnConicError,
                     TheoremViolation)
from .fields import FieldElement
from .poly import (Polynomial, _monic_quadratic_roots, binary_form_roots,
                   roots_in_closure, squarefree_decomposition)


def _canonical(field, raw, message="all coordinates are zero"):
    """Raw field values scaled so that the first nonzero one is one, as a
    tuple; ``message`` is the error for an all-zero input."""
    zero = field.zero.value
    pivot = next((v for v in raw if v != zero), None)
    if pivot is None:
        raise ValueError(message)
    if pivot == field.one.value:
        return tuple(raw)
    s, mul = field._inv(pivot), field._mul
    return tuple([mul(v, s) for v in raw])


def _point(field, raw):
    return ProjPoint(field, [FieldElement(field, v) for v in raw])


def _p1(field, raw):
    return P1Point(field, [FieldElement(field, v) for v in raw])


def _values(p):
    """The raw coordinates of a point of P^1 or P^2."""
    return tuple(c.value for c in p.coords)


def _span(field, line):
    """Two distinct points spanning a line, as raw values: the first two
    distinct nonzero crosses of the line with e_0, e_1, e_2, canonical."""
    zero, neg = field.zero.value, field._neg
    l0, l1, l2 = line
    pts = []
    for v in ((zero, l2, neg(l1)), (neg(l2), zero, l0), (l1, neg(l0), zero)):
        if v != (zero, zero, zero) and (p := _canonical(field, v)) not in pts:
            pts.append(p)
    return pts[:2]


class _Canonical:
    """Coefficients over one field in canonical projective scale, the first
    nonzero one equal to one, so that equality (same class, field and
    coefficients) and hashing are structural.  A subclass names its length,
    its two errors and the brackets and separator of its repr."""

    __slots__ = ("field", "coeffs")
    _all_zero = "all coordinates are zero"
    _brackets = "[", ":", "]"

    def __init__(self, field, values):
        if len(values) != self._size:
            raise ValueError(self._wrong_size)
        raw = _canonical(field, [field(v).value for v in values], self._all_zero)
        self.field = field
        self.coeffs = tuple(FieldElement(field, v) for v in raw)

    def lift(self, new_field):
        return type(self)(new_field, self.coeffs)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coeffs)

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        left, sep, right = self._brackets
        return left + sep.join(str(c) for c in self.coeffs) + right


class ProjPoint(_Canonical):
    """A point of P^2 in canonical homogeneous coordinates."""

    __slots__ = ()
    coords = _Canonical.coeffs  # the same slot, under a point's name
    _size, _wrong_size = 3, "a projective point needs three coordinates"


class ProjLine(_Canonical):
    """The line l0*x + l1*y + l2*z = 0, canonicalized like a point."""

    __slots__ = ()
    _size, _wrong_size = 3, "a projective line needs three coefficients"
    _brackets = "{", ":", "}"

    def contains(self, p):
        return sum((c * x for c, x in zip(self.coeffs, p.coords)),
                   start=self.field.zero).is_zero()

    def span(self):
        """Two distinct points spanning the line."""
        field = self.field
        p0, p1 = _span(field, [c.value for c in self.coeffs])
        return _point(field, p0), _point(field, p1)


class Conic(_Canonical):
    """A plane conic given by six coefficients of
    a00 x^2 + a11 y^2 + a22 z^2 + a01 xy + a02 xz + a12 yz."""

    __slots__ = ("_raw", "_smooth")
    _size, _wrong_size = 6, "a conic needs six coefficients"
    _all_zero = "zero quadratic form is not a conic"
    _brackets = "Conic(", ", ", ")"

    def __init__(self, field, coeffs):
        super().__init__(field, coeffs)
        self._raw = self._smooth = None

    def _forms(self):
        """The gradient and the value of the form on points given as tuples
        of raw field values; built once per conic."""
        if self._raw is not None:
            return self._raw
        field = self.field
        add, mul, dot = field._add, field._mul, field._dot
        a00, a11, a22, a01, a02, a12 = (c.value for c in self.coeffs)
        r0, r1, r2 = ((add(a00, a00), a01, a02), (a01, add(a11, a11), a12),
                      (a02, a12, add(a22, a22)))
        # F(p) = p . (U p) for the upper triangle U of the coefficients
        u0, u1 = (a00, a01, a02), (field.zero.value, a11, a12)

        def grad(p):
            return dot(r0, p), dot(r1, p), dot(r2, p)

        def value(p):
            return dot(p, (dot(u0, p), dot(u1, p), mul(a22, p[2])))
        self._raw = grad, value
        return self._raw

    def evaluate(self, coords):
        raw = [self.field(c).value for c in coords]
        return FieldElement(self.field, self._forms()[1](raw))

    def contains(self, p):
        return self.evaluate(p.coords).is_zero()

    def gradient(self, coords):
        """Formal gradient of the six-coefficient form; valid in any char."""
        raw = [self.field(c).value for c in coords]
        return [FieldElement(self.field, v) for v in self._forms()[0](raw)]

    def is_smooth(self):
        """Whether the gradient's matrix, 2A for the symmetric matrix A, has
        a nonzero determinant, decided once per conic; odd characteristic."""
        field = self.field
        if field.char == 2:
            raise ValueError("use char2 tools for characteristic two")
        if self._smooth is None:
            one, zero = field.one.value, field.zero.value
            rows = map(self._forms()[0], ((one, zero, zero), (zero, one, zero),
                                          (zero, zero, one)))
            self._smooth = _det3(field, rows) != zero
        return self._smooth

    def bilinear(self, u, v):
        """2 u^T A v without halving: grad F(u) . v, which is the polynomial
        F(u+v) - F(u) - F(v)."""
        return sum((g * x for g, x in zip(self.gradient(u), v)),
                   start=self.field.zero)

    def transform_by_matrix(self, n):
        """The conic with form F(N v); i.e. pull back along v -> N v: the
        polarization of F on the columns of N."""
        field = self.field
        columns = [[field(row[k]).value for row in n] for k in range(3)]
        return Conic(field, [FieldElement(field, v)
                             for v in _polarize(self, columns)])


def _polarize(conic, columns):
    """F(w_k), then B(w_k, w_l) for k < l, on three columns of raw values:
    the coefficients of F(t_0 w_0 + t_1 w_1 + t_2 w_2) in the conic's
    monomial order."""
    grad, value = conic._forms()
    dot = conic.field._dot
    w0, w1, w2 = columns
    g0, g1 = grad(w0), grad(w1)
    return (value(w0), value(w1), value(w2), dot(g0, w1), dot(g0, w2),
            dot(g1, w2))


def _det3(field, m):
    """The determinant of a 3x3 matrix of raw values, as a raw value."""
    (a, b, c), (d, e, f), (g, h, i) = m
    dot, neg = field._dot, field._neg
    return dot((a, b, c), (dot((e, neg(f)), (i, h)), dot((f, neg(d)), (g, i)),
                           dot((d, neg(e)), (h, g))))


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(3)),
                 start=a[0][0].field.zero) for j in range(3)] for i in range(3)]


def _matvec(a, v):
    return [sum((a[i][k] * v[k] for k in range(3)), start=a[0][0].field.zero)
            for i in range(3)]


def _adjugate(m):
    return [[m[1][1] * m[2][2] - m[1][2] * m[2][1],
             m[0][2] * m[2][1] - m[0][1] * m[2][2],
             m[0][1] * m[1][2] - m[0][2] * m[1][1]],
            [m[1][2] * m[2][0] - m[1][0] * m[2][2],
             m[0][0] * m[2][2] - m[0][2] * m[2][0],
             m[0][2] * m[1][0] - m[0][0] * m[1][2]],
            [m[1][0] * m[2][1] - m[1][1] * m[2][0],
             m[0][1] * m[2][0] - m[0][0] * m[2][1],
             m[0][0] * m[1][1] - m[0][1] * m[1][0]]]


class ProjTransform:
    """An invertible change of coordinates, acting on points as column vectors.

    Points transport by the matrix, conics by substituting the inverse map
    into the quadratic form; incidence is preserved by construction.
    """

    __slots__ = ("field", "matrix")

    def __init__(self, field, matrix):
        matrix = [[field(c) for c in row] for row in matrix]
        raw = [[c.value for c in row] for row in matrix]
        if _det3(field, raw) == field.zero.value:
            raise DegenerateInputError("transform matrix is singular")
        self.field = field
        self.matrix = matrix

    def inverse_matrix(self):
        """The adjugate, a nonzero multiple of the inverse."""
        return _adjugate(self.matrix)

    def inverse(self):
        return ProjTransform(self.field, self.inverse_matrix())

    def compose(self, other):
        """self after other."""
        return ProjTransform(self.field, _matmul(self.matrix, other.matrix))

    def __call__(self, obj):
        return apply_transform(self, obj)

    def __repr__(self):
        rows = "; ".join(",".join(str(c) for c in row) for row in self.matrix)
        return f"ProjTransform[{rows}]"


def apply_transform(m, obj):
    """Transport a point or conic through the coordinate change."""
    if isinstance(obj, ProjPoint):
        return ProjPoint(m.field, _matvec(m.matrix, list(obj.coords)))
    if isinstance(obj, Conic):
        return obj.transform_by_matrix(m.inverse_matrix())
    raise TypeError(f"cannot transform {obj!r}")


def tangent_at(conic, p):
    """Tangent line of a conic at a smooth point: the gradient line, which in
    characteristic two contains the strange point."""
    if not conic.contains(p):
        raise NotOnConicError(f"{p!r} is not on the conic")
    grad = conic.gradient(p.coords)
    if all(g.is_zero() for g in grad):
        raise DegenerateInputError("conic is singular at the point")
    return ProjLine(conic.field, grad)


def polar(conic, q):
    """Polar line of q; equals the tangent when q is on the conic."""
    if conic.field.char == 2:
        raise ValueError("polars are undefined in characteristic two")
    return ProjLine(conic.field, conic.gradient(q.coords))


def other_intersection(conic, line, known):
    """The second point of line /\\ conic given one of them, via Vieta; stays
    in the same field, and equals `known` for a tangent line."""
    if not conic.contains(known) or not line.contains(known):
        raise DegenerateInputError("known point must lie on both the line and the conic")
    s0, s1 = line.span()
    other = s1 if s0 == known else s0  # the span's points are distinct
    gamma = conic.evaluate(other.coords)
    beta = conic.bilinear(known.coords, other.coords)
    if beta.is_zero():
        return known
    coords = [-gamma * a + beta * b for a, b in zip(known.coords, other.coords)]
    return ProjPoint(known.field, coords)


def find_point(conic, seed=0):
    """A deterministic point of the conic over its own field; in
    characteristic 0 one of the bounded search [x : y : 1] with
    y = n/d, |n| <= 12, 1 <= d <= 4."""
    field = conic.field
    one, zero = field.one.value, field.zero.value
    value = conic._forms()[1]
    for raw in ((zero, zero, one), (zero, one, zero), (one, zero, zero),
                (one, one, one), (one, one, zero), (one, zero, one),
                (zero, one, one)):
        if value(raw) == zero:
            return _point(field, raw)
    if field.size is not None:
        rng = random.Random(seed)
        while True:
            y = field.element(rng.randrange(field.size)).value
            z = field.element(rng.randrange(field.size)).value
            if y == zero and z == zero:
                continue
            p = _solve_on_line(conic, y, z)
            if p is not None:
                return p
    # characteristic 0: bounded search over small rationals
    from fractions import Fraction
    for y in (field(Fraction(n, d)).value for d in (1, 2, 3, 4)
              for n in range(-12, 13)):
        p = _solve_on_line(conic, y, one)
        if p is not None:
            return p
    raise ValueError("no rational point [x : y : 1] with y = n/d, |n| <= 12, "
                     "1 <= d <= 4 on the conic")


def _solve_on_line(conic, y, z):
    """A conic point [x : y : z] with the given raw y, z, if the resulting
    quadratic in x has an in-field root: F(x e_0 + w) with w = [0 : y : z]
    is a x^2 + b x + c with a = a00, b = a01 y + a02 z and c = F(w), whose
    root (s - b)/(2a) is u/a for the first root u of u^2 + b u + ac.  The
    one caller, ``find_point``, tries [1 : 0 : 0] first, so a is nonzero
    here."""
    field = conic.field
    a00, _, _, a01, a02, _ = (c.value for c in conic.coeffs)
    w = (field.zero.value, y, z)
    b, c = field._dot((a01, a02), (y, z)), conic._forms()[1](w)
    _, roots = _monic_quadratic_roots(field, field._mul(c, a00), b, lift=False)
    if not roots:
        return None
    return _point(field, (field._mul(roots[0], field._inv(a00)), y, z))


class P1Point(_Canonical):
    """A point of P^1 as (a : b) with affine value a/b; infinity is (1 : 0)."""

    __slots__ = ()
    coords = _Canonical.coeffs  # the same slot, under a point's name
    _size, _wrong_size = 2, "a point of P^1 needs two coordinates"
    _all_zero = "both coordinates are zero"
    _brackets = "(", ":", ")"

    @classmethod
    def infinity(cls, field):
        return cls(field, (field.one, field.zero))

    @classmethod
    def affine(cls, value):
        return cls(value.field, (value, value.field.one))


class ConicParametrization:
    """Degree-1 parametrization of a smooth conic by the pencil of lines
    through a base point: three binary quadratic forms q_r(a, b), stored as
    affine coefficient triples c[r][j] of u^j with u = a/b."""

    __slots__ = ("conic", "base", "tangent", "c", "span_idx", "axis")

    def __init__(self, conic, base):
        field = conic.field
        add, neg, mul = field._add, field._neg, field._mul
        zero, one = field.zero.value, field.one.value
        grad, value = conic._forms()
        b = [field(x).value for x in base.coords]
        if value(b) != zero:
            raise NotOnConicError("base point must lie on the conic")
        # cut the pencil with the coordinate line x_k = 0 missing the base
        k = max(r for r in range(3) if b[r] != zero)
        i, j = [r for r in range(3) if r != k]
        e_i, e_j = ([one if r == s else zero for r in range(3)] for s in (i, j))
        # base_r * F(m(u)) - m_r(u) * (t . m(u)) for m(u) = e_i + u e_j and
        # the tangent t at the base
        f = (value(e_i), field._dot(grad(e_i), e_j), value(e_j))
        t = grad(b)
        c = [[mul(x, fm) for fm in f] for x in b]
        c[i][0], c[i][1] = add(c[i][0], neg(t[i])), add(c[i][1], neg(t[j]))
        c[j][1], c[j][2] = add(c[j][1], neg(t[i])), add(c[j][2], neg(t[j]))
        self.conic = conic
        self.base = base
        self.tangent = [FieldElement(field, v) for v in t]
        self.c = [[FieldElement(field, v) for v in row] for row in c]
        self.span_idx = (i, j)
        self.axis = k

    def _maps(self, field, embed=None):
        """``point_at`` and ``param_of`` on raw values over ``field``, the
        conic's field or one above it, whose raw value of an element of the
        conic's field is ``embed``'s (``field``'s coercion when not given).
        The line through the base b and p meets x_k = 0 at
        x = b_k p - p_k b, or at (t_j : -t_i) for the tangent t at p = b."""
        mul, neg, dot = field._mul, field._neg, field._dot
        val = embed or (lambda c: field(c).value)
        rows = [[val(c) for c in row] for row in self.c]
        b = tuple(val(c) for c in self.base.coords)
        t = [val(g) for g in self.tangent]
        k, (i, j) = self.axis, self.span_idx

        def point_at(u):
            m = (mul(u[1], u[1]), mul(u[0], u[1]), mul(u[0], u[0]))
            return _canonical(field, [dot(row, m) for row in rows])

        def param_of(p):
            if p == b:
                return _canonical(field, (neg(t[i]), t[j]))
            w = (b[k], neg(p[k]))
            return _canonical(field, [dot(w, (p[r], b[r])) for r in (j, i)])
        return point_at, param_of

    def point_at(self, p1):
        """The conic point with parameter p1; exact in any tower extension."""
        return _point(p1.field, self._maps(p1.field)[0](_values(p1)))

    def param_of(self, point):
        """Inverse map: the parameter of a conic point."""
        return _p1(point.field, self._maps(point.field)[1](_values(point)))


def parametrize(conic, base):
    if conic.field.char == 2:
        raise ValueError("parametrization uses polars; characteristic != 2")
    if not conic.is_smooth():
        raise DegenerateInputError("conic is singular")
    return ConicParametrization(conic, base)


def pullback_quartic(conic, par):
    """Coefficients (low-to-high, length 5) of the binary quartic
    F_conic(par(u)) in the affine parameter u: with w_j the coefficient
    columns, par(u) = w_0 + u w_1 + u^2 w_2 and the quartic is read off the
    polarization of F on the columns' raw values."""
    field = conic.field
    f0, f1, f2, b01, b02, b12 = _polarize(
        conic, [[field(row[j]).value for row in par.c] for j in range(3)])
    return [FieldElement(field, v)
            for v in (f0, b01, field._add(f1, b02), b12, f2)]


def _check_pair(c, d):
    if c.field != d.field:
        raise FieldMismatchError("conics over different fields")
    if c == d:
        raise DegenerateInputError("conics must be distinct")
    if not (c.is_smooth() and d.is_smooth()):
        raise DegenerateInputError("both conics must be smooth")


def intersect_conics(c, d, seed=0):
    """All intersection points with multiplicities summing to 4 (Bezout);
    points may live in tower extensions of degree up to 4."""
    _check_pair(c, d)
    par = parametrize(d, find_point(d, seed))
    roots = binary_form_roots(c.field, pullback_quartic(c, par), 4)
    params = [(t.field, (t.value, t.field.one.value)) for t, _ in roots.entries]
    mults = [m for _, m in roots.entries]
    if roots.at_infinity:
        params.append((c.field, (c.field.one.value, c.field.zero.value)))
        mults.append(roots.at_infinity)
    if sum(mults) != 4:
        raise TheoremViolation("intersection multiplicities do not sum to 4")
    return list(zip(_points_at(par, params), mults))


def _points_at(par, params):
    """The points of ``par`` at raw parameters (field, (a, b)), through one
    ``_maps`` per field."""
    maps = {}
    for field, _ in params:
        if field not in maps:
            maps[field] = par._maps(field)[0]
    return [_point(field, maps[field](u)) for field, u in params]


def _pullback(c, d, seed):
    """One pullback of c along a parametrization of d: the parametrization,
    the quartic's multiplicity at infinity and its squarefree
    decomposition."""
    _check_pair(c, d)
    par = parametrize(d, find_point(d, seed))
    f = Polynomial(c.field, pullback_quartic(c, par))
    return par, 4 - f.degree, squarefree_decomposition(f)


def _multiplicities(at_inf, parts):
    mults = [at_inf] if at_inf else []
    for part, m in parts:
        mults.extend([m] * part.degree)
    return tuple(sorted(mults, reverse=True))


def tangency_points(c, d, seed=0):
    """The intersection points of multiplicity >= 2 (where the conics share
    a tangent line); points may lie in a quadratic extension.

    Only the repeated part of the pullback quartic is solved, so this works
    over Q even when the simple intersection points do not."""
    return _type_and_tangencies(c, d, seed)[1]


def _repeated_params(field, at_inf, parts):
    """The parameters of multiplicity >= 2 of a binary quartic given by its
    multiplicity at infinity and squarefree decomposition, as P1Points in
    the field or one quadratic extension."""
    out = [P1Point.infinity(field)] if at_inf >= 2 else []
    for part, m in parts:
        if m >= 2:
            out.extend(P1Point.affine(t)
                       for t, _ in roots_in_closure(part).entries)
    return out


def _type_and_tangencies(c, d, seed):
    """The sorted intersection multiplicities and ``tangency_points`` of the
    pair from one pullback, and the parametrization of d it pulls back
    along."""
    par, at_inf, parts = _pullback(c, d, seed)
    pts = _points_at(par, [(t.field, _values(t))
                           for t in _repeated_params(c.field, at_inf, parts)])
    return _multiplicities(at_inf, parts), pts, par


class NormalizedPair:
    """Result of putting a tangent pair into the form
    C: x^2 + t xy + a y^2 - b yz,  D: x^2 - yz, with the transform used."""

    __slots__ = ("t", "a", "b", "delta", "transform")

    def __init__(self, t, a, b, transform):
        self.t = t
        self.a = a
        self.b = b
        self.delta = t * t - 4 * a * (1 - b)
        self.transform = transform

    def conics(self):
        field = self.t.field
        c = normal_form_conic(self.t, self.a, self.b)
        d = Conic(field, [1, 0, 0, 0, 0, -1])
        return c, d

    def __repr__(self):
        return f"NormalizedPair(t={self.t}, a={self.a}, b={self.b}, delta={self.delta})"


def normal_form_conic(t, a, b):
    """x^2 + t xy + a y^2 - b yz over the field of the parameters."""
    field = t.field
    return Conic(field, [field.one, a, field.zero, t, field.zero, -b])


def normalize_tangent_pair(c, d, p):
    """Coordinate change putting the pair tangent at p into normal form."""
    _check_pair(c, d)
    field = c.field
    if not (c.contains(p) and d.contains(p)):
        raise DegenerateInputError("p must be a common point of both conics")
    tc, td = tangent_at(c, p), tangent_at(d, p)
    if tc != td:
        raise DegenerateInputError("conics are not tangent at p")
    # p -> [0:0:1] and the common tangent -> {y = 0} by adj(B), for the
    # basis B with columns e1, e_k, p; D pulls back by B itself, since
    # adj(adj B) = det(B) B gives the same conic
    s0, s1 = tc.span()
    e1 = s0 if s0 != p else s1
    k = tc.coeffs.index(field.one)  # the tangent's pivot: e_k is off it
    e2 = [field.one if r == k else field.zero for r in range(3)]
    cols = [list(e1.coords), e2, list(p.coords)]
    basis = [[cols[j][i] for j in range(3)] for i in range(3)]
    d1 = d.transform_by_matrix(basis)
    # By the tangent-pair lemma the transformed D reads
    # x^2 + t2 xy + a2 y^2 - b2 yz (z^2 and xz coefficients vanish).
    a00, a11, a22, a01, a02, a12 = d1.coeffs
    if not (a22.is_zero() and a02.is_zero() and not a00.is_zero()):
        raise TheoremViolation(f"tangent-pair lemma failed: {d1!r}")
    t2, a2, b2 = a01, a11, -a12
    two_inv = field(2).inv()
    z, o = field.zero, field.one
    m2 = [[o, t2 * two_inv, z], [z, o, z],
          [z, -a2 + t2 * t2 * two_inv * two_inv, b2]]
    m = ProjTransform(field, _matmul(m2, _adjugate(basis)))
    back = m.inverse_matrix()
    c_new, d_new = c.transform_by_matrix(back), d.transform_by_matrix(back)
    if d_new != Conic(field, [1, 0, 0, 0, 0, -1]):
        raise TheoremViolation(f"inner conic not in normal form: {d_new!r}")
    a00, a11, a22, a01, a02, a12 = c_new.coeffs
    if not (a00 == field.one and a22.is_zero() and a02.is_zero()):
        raise TheoremViolation(f"outer conic not in normal form: {c_new!r}")
    t_, a_, b_ = a01, a11, -a12
    if b_.is_zero():
        raise DegenerateInputError("normalized pair has b = 0; conic is singular")
    return NormalizedPair(t_, a_, b_, m)


def classify_normalized(t, a, b):
    """Intersection type from the tangent-pair normal form parameters."""
    field = t.field
    delta = t * t - 4 * a * (1 - b)
    if b != field.one:
        return (2, 1, 1) if not delta.is_zero() else (2, 2)
    if not t.is_zero():
        return (3, 1)
    if not a.is_zero():
        return (4,)
    raise DegenerateInputError("b = 1, t = 0, a = 0 means the conics coincide")


def classify(c, d, seed=0):
    """Intersection type of a pair of smooth conics.

    The multiset of multiplicities comes from the squarefree structure of
    the pullback quartic; when the pair is tangent the result is
    cross-checked against the normal-form criteria.
    """
    mults, pts, _ = _type_and_tangencies(c, d, seed)
    if mults[0] >= 2:
        normal_form(c, d, seed, mults, pts)
    return mults


def normal_form(c, d, seed=0, mults=None, points=None):
    """The tangent-pair normal form of a pair, at its first tangency point,
    checked against the pullback type.  ``mults`` and ``points``, when
    given, are the pair's type and tangency points (as ``PonceletConfig``
    holds them) and are not computed again."""
    if mults is None:
        mults, points, _ = _type_and_tangencies(c, d, seed)
    if mults[0] < 2:
        raise DegenerateInputError("conics are nowhere tangent; "
                                   "nothing to normalize")
    c_l, d_l, pts, _ = tangency_data(c, d, seed, points=points)
    norm = normalize_tangent_pair(c_l, d_l, pts[0])
    if classify_normalized(norm.t, norm.a, norm.b) != mults:
        raise TheoremViolation(
            f"normal form disagrees with the pullback type {mults}")
    return norm


def tangency_data(c, d, seed=0, points=None):
    """Tangency points together with the (possibly lifted) conics that see
    them: returns (c, d, points, lifted) in the smallest usable field.
    ``points``, when given, are the pair's ``tangency_points`` (as
    ``PonceletConfig.tangencies`` holds them) and are not solved again."""
    pts = tangency_points(c, d, seed) if points is None else points
    if not pts:
        return c, d, [], False
    big = pts[0].field  # at most two points, a Galois-stable set: one field
    if big == c.field:
        return c, d, pts, False
    return c.lift(big), d.lift(big), pts, True
