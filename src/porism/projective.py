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
from fractions import Fraction

from .errors import (DegenerateInputError, FieldMismatchError, NotOnConicError,
                     TheoremViolation)
from .fields import FieldElement
from .poly import (_from_values, _monic_quadratic_roots, roots_in_closure,
                   squarefree_decomposition)


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


def _raw_point(field, p):
    """The raw values of p, a point or line, in ``field``, its field or above."""
    return p.values if p.field == field else tuple(field(x).value
                                                   for x in p.coeffs)


def _new(cls, field, raw):
    """The ``cls`` object set by ``_set`` from raw values of ``field``."""
    obj = cls.__new__(cls)
    obj._set(field, raw)
    return obj


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
    """Coefficients over one field, stored once as raw ``values`` in
    canonical projective scale (the first nonzero one is one), so that
    equality (same class, field and values) and hashing are structural;
    ``coeffs`` wraps them as elements on each read.  A subclass names its
    length, its two errors and the brackets and separator of its repr."""

    __slots__ = ("field", "values")
    _all_zero = "all coordinates are zero"
    _brackets = "[", ":", "]"

    def __init__(self, field, values):
        if len(values) != self._size:
            raise ValueError(self._wrong_size)
        self._set(field, [field(v).value for v in values])

    _of = classmethod(_new)  # raw values of the right length, scaled

    def _set(self, field, raw):
        self.field, self.values = field, _canonical(field, raw, self._all_zero)

    @property
    def coeffs(self):
        return tuple([FieldElement(self.field, v) for v in self.values])

    def lift(self, new_field):
        return type(self)(new_field, self.coeffs)

    def sort_key(self):
        return tuple(map(self.field._sort_key, self.values))

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self.values == other.values)

    def __hash__(self):
        return hash((self.field, self.values))

    def __repr__(self):
        left, sep, right = self._brackets
        return left + sep.join(str(c) for c in self.coeffs) + right


class ProjPoint(_Canonical):
    """A point of P^2 in canonical homogeneous coordinates."""

    __slots__ = ()
    coords = _Canonical.coeffs  # the same property, under a point's name
    _size, _wrong_size = 3, "a projective point needs three coordinates"


class ProjLine(_Canonical):
    """The line l0*x + l1*y + l2*z = 0, canonicalized like a point."""

    __slots__ = ()
    _size, _wrong_size = 3, "a projective line needs three coefficients"
    _brackets = "{", ":", "}"

    def contains(self, p):
        field = self.field
        return field._dot(self.values, _raw_point(field, p)) == field.zero.value

    def span(self):
        """Two distinct points spanning the line."""
        field = self.field
        p0, p1 = _span(field, self.values)
        return ProjPoint._of(field, p0), ProjPoint._of(field, p1)


class Conic(_Canonical):
    """A plane conic given by six coefficients of
    a00 x^2 + a11 y^2 + a22 z^2 + a01 xy + a02 xz + a12 yz."""

    __slots__ = ("_raw", "_smooth")
    _size, _wrong_size = 6, "a conic needs six coefficients"
    _all_zero = "zero quadratic form is not a conic"
    _brackets = "Conic(", ", ", ")"

    def _set(self, field, raw):
        super()._set(field, raw)
        self._raw = self._smooth = None

    def _forms(self):
        """The gradient and the value of the form on points given as tuples
        of raw field values; built once per conic."""
        if self._raw is not None:
            return self._raw
        field = self.field
        mul, dot = field._mul, field._dot
        a00, a11, a22, a01, a02, a12 = self.values
        r0, r1, r2 = _gradient_rows(field, self.values)
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
        field = self.field
        return self._forms()[1](_raw_point(field, p)) == field.zero.value

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
            rows = _gradient_rows(field, self.values)
            self._smooth = _det3(field, rows) != field.zero.value
        return self._smooth

    def bilinear(self, u, v):
        """2 u^T A v without halving: grad F(u) . v, which is the polynomial
        F(u+v) - F(u) - F(v)."""
        return sum((g * x for g, x in zip(self.gradient(u), v)),
                   start=self.field.zero)


def _gradient_rows(field, values):
    """The rows of the gradient's matrix 2A of the form with raw
    coefficients ``values``, in the conic's monomial order."""
    a00, a11, a22, a01, a02, a12 = values
    add = field._add
    return ((add(a00, a00), a01, a02), (a01, add(a11, a11), a12),
            (a02, a12, add(a22, a22)))


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


def _matmul(field, a, b):
    """The product of two 3x3 matrices of raw values."""
    cols = list(zip(*b))
    return [[field._dot(row, col) for col in cols] for row in a]


def _adjugate(field, m):
    """The adjugate of a 3x3 matrix of raw values."""
    (a, b, c), (d, e, f), (g, h, i) = m
    dot, neg = field._dot, field._neg
    return [[dot((e, neg(f)), (i, h)), dot((c, neg(b)), (h, i)),
             dot((b, neg(c)), (f, e))],
            [dot((f, neg(d)), (g, i)), dot((a, neg(c)), (i, g)),
             dot((c, neg(a)), (d, f))],
            [dot((d, neg(e)), (h, g)), dot((b, neg(a)), (g, h)),
             dot((a, neg(b)), (e, d))]]


class ProjTransform:
    """An invertible change of coordinates, acting on points as column vectors.

    Points transport by the matrix, conics by substituting the inverse map
    into the quadratic form; incidence is preserved by construction.  The
    matrix is stored as raw ``rows``; ``matrix`` wraps them on each read."""

    __slots__ = ("field", "rows")

    def __init__(self, field, matrix):
        self._set(field, [[field(c).value for c in row] for row in matrix])

    _of = classmethod(_new)  # raw rows

    def _set(self, field, rows):
        if _det3(field, rows) == field.zero.value:
            raise DegenerateInputError("transform matrix is singular")
        self.field, self.rows = field, rows

    @property
    def matrix(self):
        return [[FieldElement(self.field, v) for v in row] for row in self.rows]

    def inverse_matrix(self):
        """The adjugate, a nonzero multiple of the inverse."""
        return self.inverse().matrix

    def inverse(self):
        return ProjTransform._of(self.field, _adjugate(self.field, self.rows))

    def compose(self, other):
        """self after other."""
        field = self.field
        if other.field != field:
            other = ProjTransform(field, other.matrix)
        return ProjTransform._of(field, _matmul(field, self.rows, other.rows))

    def __call__(self, obj):
        return apply_transform(self, obj)

    def __repr__(self):
        rows = "; ".join(",".join(str(c) for c in row) for row in self.matrix)
        return f"ProjTransform[{rows}]"


def apply_transform(m, obj):
    """Transport a point or conic through the coordinate change."""
    field = m.field
    if isinstance(obj, ProjPoint):
        v = _raw_point(field, obj)
        return ProjPoint._of(field, [field._dot(row, v) for row in m.rows])
    if isinstance(obj, Conic):
        if obj.field != field:
            return apply_transform(ProjTransform(obj.field, m.matrix), obj)
        # F(N v) for the adjugate N: the polarization of F on N's columns
        return Conic._of(field, _polarize(obj, zip(*_adjugate(field, m.rows))))
    raise TypeError(f"cannot transform {obj!r}")


def tangent_at(conic, p):
    """Tangent line of a conic at a smooth point: the gradient line, which in
    characteristic two contains the strange point."""
    if not conic.contains(p):
        raise NotOnConicError(f"{p!r} is not on the conic")
    field = conic.field
    grad = conic._forms()[0](_raw_point(field, p))
    if grad == (field.zero.value,) * 3:
        raise DegenerateInputError("conic is singular at the point")
    return ProjLine._of(field, grad)


def polar(conic, q):
    """Polar line of q; equals the tangent when q is on the conic."""
    field = conic.field
    if field.char == 2:
        raise ValueError("polars are undefined in characteristic two")
    return ProjLine._of(field, conic._forms()[0](_raw_point(field, q)))


def other_intersection(conic, line, known):
    """The second point of line /\\ conic given one of them, via Vieta; stays
    in the same field, and equals `known` for a tangent line."""
    if not conic.contains(known) or not line.contains(known):
        raise DegenerateInputError("known point must lie on both the line and the conic")
    field = conic.field
    k, (s0, s1) = _raw_point(field, known), _span(field, _raw_point(field, line))
    other = s1 if s0 == k else s0  # the span's points are distinct
    grad, value = conic._forms()
    beta = field._dot(grad(k), other)
    if beta == field.zero.value:
        return known
    w = (field._neg(value(other)), beta)
    return ProjPoint._of(field, [field._dot(w, ab) for ab in zip(k, other)])


def find_point(conic, seed=0):
    """A deterministic point of the conic over its own field: the first of
    [0:0:1], [0:1:0], [1:0:0], [1:1:1], [1:1:0], [1:0:1], [0:1:1] on it,
    where F is a sum of coefficients; else, over a finite field, the first
    [x : y : z] solved on a line of draws y, z, each ``field.element(
    rng.randrange(field.size))`` for ``rng = random.Random(seed)``, y then
    z, with y = z = 0 drawn again; in characteristic 0 the first of the
    bounded search [x : y : 1] with y = n/d, 1 <= d <= 4, then
    -12 <= n <= 12."""
    field = conic.field
    one, zero, add = field.one.value, field.zero.value, field._add
    a00, a11, a22, a01, a02, a12 = conic.values
    f110, f101 = add(add(a00, a11), a01), add(add(a00, a22), a02)
    for raw, f in (((zero, zero, one), a22), ((zero, one, zero), a11),
                   ((one, zero, zero), a00),
                   ((one, one, one), add(f110, add(add(a22, a02), a12))),
                   ((one, one, zero), f110), ((one, zero, one), f101),
                   ((zero, one, one), add(add(a11, a22), a12))):
        if f == zero:
            return ProjPoint._of(field, raw)
    if field.size is not None:
        rng = random.Random(seed)
        while True:
            y = field._element(rng.randrange(field.size))
            z = field._element(rng.randrange(field.size))
            if y == zero and z == zero:
                continue
            p = _solve_on_line(conic, y, z)
            if p is not None:
                return p
    # characteristic 0: bounded search over small rationals
    for y in (field._canon(Fraction(n, d)) for d in (1, 2, 3, 4)
              for n in range(-12, 13)):
        p = _solve_on_line(conic, y, one)
        if p is not None:
            return p
    raise ValueError("no rational point [x : y : 1] with y = n/d, |n| <= 12, "
                     "1 <= d <= 4 on the conic")


def _solve_on_line(conic, y, z):
    """A conic point [x : y : z] with the given raw y, z, if the resulting
    quadratic in x has an in-field root: F(x e_0 + w) with w = [0 : y : z]
    is a x^2 + b x + c with a = a00, b = a01 y + a02 z and
    c = a11 y^2 + a12 yz + a22 z^2, whose root (s - b)/(2a) is u/a for the
    first root u of u^2 + b u + ac.  The one caller, ``find_point``, tries
    [1 : 0 : 0] first, so a is nonzero here."""
    field = conic.field
    mul, dot = field._mul, field._dot
    a00, a11, a22, a01, a02, a12 = conic.values
    b = dot((a01, a02), (y, z))
    c = dot((a11, a12, a22), (mul(y, y), mul(y, z), mul(z, z)))
    _, roots = _monic_quadratic_roots(field, mul(c, a00), b, lift=False)
    if not roots:
        return None
    return ProjPoint._of(field, (mul(roots[0], field._inv(a00)), y, z))


class P1Point(_Canonical):
    """A point of P^1 as (a : b) with affine value a/b; infinity is (1 : 0)."""

    __slots__ = ()
    coords = _Canonical.coeffs  # the same property, under a point's name
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
    raw affine coefficient rows ``rows[r][j]`` of u^j with u = a/b, beside
    the raw base point ``b`` and tangent ``t`` there; ``c`` and ``tangent``
    are them as elements."""

    __slots__ = ("conic", "base", "rows", "b", "t", "span_idx", "axis")

    def __init__(self, conic, base):
        field = conic.field
        add, neg, mul, zero = field._add, field._neg, field._mul, field.zero.value
        grad, value = conic._forms()
        b = _raw_point(field, base)
        if value(b) != zero:
            raise NotOnConicError("base point must lie on the conic")
        # cut the pencil with the coordinate line x_k = 0 missing the base
        k = max(r for r in range(3) if b[r] != zero)
        i, j = [r for r in range(3) if r != k]
        # base_r * F(m(u)) - m_r(u) * (t . m(u)) for m(u) = e_i + u e_j and
        # the tangent t at the base; F(m(u)) has the coefficients of x_i^2,
        # x_i x_j (at i + j + 2 in the monomial order) and x_j^2
        a = conic.values
        f = (a[i], a[i + j + 2], a[j])
        t = grad(b)
        c = [[mul(x, fm) for fm in f] for x in b]
        c[i][0], c[i][1] = add(c[i][0], neg(t[i])), add(c[i][1], neg(t[j]))
        c[j][1], c[j][2] = add(c[j][1], neg(t[i])), add(c[j][2], neg(t[j]))
        self.conic = conic
        self.base = base
        self.rows, self.b, self.t = c, b, t
        self.span_idx = (i, j)
        self.axis = k

    @property
    def c(self):
        field = self.conic.field
        return [[FieldElement(field, v) for v in row] for row in self.rows]

    @property
    def tangent(self):
        return [FieldElement(self.conic.field, v) for v in self.t]

    def _raw(self, field, embed=None):
        """(rows, b, t) over ``field``, the conic's field or one above it,
        whose raw value of a raw value of the conic's field is ``embed``'s
        (``field``'s coercion when not given); as stored over the conic's
        own field."""
        own = self.conic.field
        if field == own:
            return self.rows, self.b, self.t
        val = embed or (lambda v: field(FieldElement(own, v)).value)
        return ([[val(v) for v in row] for row in self.rows],
                tuple(val(v) for v in self.b), [val(v) for v in self.t])

    def _maps(self, field, embed=None):
        """``point_at`` and ``param_of`` on raw values over ``field``, as
        ``_raw`` gives them.  The line through the base b and p meets
        x_k = 0 at x = b_k p - p_k b, or at (t_j : -t_i) for the tangent t
        at p = b."""
        mul, neg, dot = field._mul, field._neg, field._dot
        rows, b, t = self._raw(field, embed)
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
        return ProjPoint._of(p1.field, self._maps(p1.field)[0](p1.values))

    def param_of(self, point):
        """Inverse map: the parameter of a conic point."""
        return P1Point._of(point.field, self._maps(point.field)[1](point.values))


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
    return [FieldElement(conic.field, v) for v in _quartic(conic, par)]


def _quartic(conic, par):
    """``pullback_quartic`` as raw values."""
    field = conic.field
    f0, f1, f2, b01, b02, b12 = _polarize(conic, zip(*par._raw(field)[0]))
    return [f0, b01, field._add(f1, b02), b12, f2]


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
    par, f = _pullback(c, d, seed)
    roots = roots_in_closure(f).entries
    params = [(t.field, (t.value, t.field.one.value)) for t, _ in roots]
    mults = [m for _, m in roots]
    if f.degree < 4:
        params.append((c.field, (c.field.one.value, c.field.zero.value)))
        mults.append(4 - f.degree)
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
    return [ProjPoint._of(field, maps[field](u)) for field, u in params]


def _pullback(c, d, seed):
    """One pullback of c along a parametrization of d: the parametrization
    and the pullback quartic, as a Polynomial."""
    _check_pair(c, d)
    par = parametrize(d, find_point(d, seed))
    return par, _from_values(c.field, _quartic(c, par))


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
    par, f = _pullback(c, d, seed)
    at_inf, parts = 4 - f.degree, squarefree_decomposition(f)
    pts = _points_at(par, [(t.field, t.values)
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
    add, neg, mul = field._add, field._neg, field._mul
    zero, one = field.zero.value, field.one.value
    pv = _raw_point(field, p)
    (grad_c, value_c), (grad_d, value_d) = c._forms(), d._forms()
    if value_c(pv) != zero or value_d(pv) != zero:
        raise DegenerateInputError("p must be a common point of both conics")
    tc, td = (_canonical(field, grad(pv), "conic is singular at the point")
              for grad in (grad_c, grad_d))
    if tc != td:
        raise DegenerateInputError("conics are not tangent at p")
    # p -> [0:0:1] and the common tangent -> {y = 0} by adj(B), for the
    # basis B with columns e1, e_k, p; D pulls back by B itself, since
    # adj(adj B) = det(B) B gives the same conic
    s0, s1 = _span(field, tc)
    k = tc.index(one)  # the tangent's pivot: e_k is off it
    cols = [s0 if s0 != pv else s1, [one if r == k else zero for r in range(3)],
            pv]
    d1 = _canonical(field, _polarize(d, cols))
    # By the tangent-pair lemma the transformed D reads
    # x^2 + t2 xy + a2 y^2 - b2 yz (z^2 and xz coefficients vanish).
    a00, a11, a22, a01, a02, a12 = d1
    if not (a22 == zero and a02 == zero and a00 != zero):
        raise TheoremViolation(
            f"tangent-pair lemma failed: {Conic._of(field, d1)!r}")
    h = mul(a01, field._inv(add(one, one)))  # t2 / 2
    m2 = [[one, h, zero], [zero, one, zero],
          [zero, add(neg(a11), mul(h, h)), neg(a12)]]
    raw = _matmul(field, m2, _adjugate(field, list(zip(*cols))))
    m = ProjTransform._of(field, raw)
    back = list(zip(*_adjugate(field, raw)))  # its columns
    c_new, d_new = (_canonical(field, _polarize(e, back)) for e in (c, d))
    if d_new != (one, zero, zero, zero, zero, neg(one)):
        raise TheoremViolation(
            f"inner conic not in normal form: {Conic._of(field, d_new)!r}")
    a00, a11, a22, a01, a02, a12 = c_new
    if not (a00 == one and a22 == zero and a02 == zero):
        raise TheoremViolation(
            f"outer conic not in normal form: {Conic._of(field, c_new)!r}")
    if a12 == zero:
        raise DegenerateInputError("normalized pair has b = 0; conic is singular")
    return NormalizedPair(*(FieldElement(field, v) for v in (a01, a11, neg(a12))),
                          m)


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
