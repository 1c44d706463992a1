"""The incidence curve of a conic pair as a biquadratic form on P^1 x P^1.

Pulling the tangency condition "c lies on the tangent of D at d" back along
degree-1 parametrizations of C and D gives a bidegree-(2,2) form
H(u, v) = A(u) v^2 + B(u) v + C(u).  Its zero set E carries the whole
Poncelet process: the two other-root involutions sigma (fixing u) and tau
(fixing v) compose to the step map nu = sigma o tau.

Completing the square in v (odd characteristic) with w = 2A v + B gives
w^2 = 4A H + disc_v, so E is locally the double cover w^2 = disc_v(u) of the
u-line, branched over the roots of the binary quartic disc_v = B^2 - 4AC:
the intersection points of the pair, with their multiplicities.  That
multiplicity pattern is the pair's intersection type and fixes E's shape.
Simple roots only give a smooth curve; a double root is a node and a triple
root a cusp; E splits into the two bidegree-(1,1) components w = +-g(u)
exactly when every multiplicity is even, that is when disc_v = g^2 -- two
transversal components for (2,2), two in double contact for (4).  The
singular points are the tangency parameters, over the multiple roots.
"""

from .errors import (DegenerateInputError, ExtensionOverflowError,
                     FieldMismatchError, NotOnConicError, TheoremViolation)
from .fields import FieldElement, lift_to_quadratic_extension
from .poly import Polynomial, _from_values, gcd, squarefree_decomposition
from .projective import P1Point, find_point, parametrize, _Canonical, \
    _multiplicities, _raw_point, _repeated_params

SHAPE_SMOOTH = "smooth"
SHAPE_NODE = "node"
SHAPE_CUSP = "cusp"
SHAPE_SPLIT_TRANSVERSAL = "two components, transversal"
SHAPE_SPLIT_DOUBLE = "two components, double contact"

# the tag and the number of singular points for each multiplicity pattern
# of the branch quartic
_SHAPES = {(1, 1, 1, 1): (SHAPE_SMOOTH, 0), (2, 1, 1): (SHAPE_NODE, 1),
           (3, 1): (SHAPE_CUSP, 1), (2, 2): (SHAPE_SPLIT_TRANSVERSAL, 2),
           (4,): (SHAPE_SPLIT_DOUBLE, 1)}


class _Bihomogeneous(_Canonical):
    """A bihomogeneous form sum c_ij u^i v^j of bidegree (n, n), its
    coefficients row-major in ``values``, read off as a raw contraction
    against the P^1 monomials of the form's ``_fibers``."""

    __slots__ = ("_maps",)
    _all_zero = "zero form"

    def __init__(self, field, rows):
        if any(len(row) != self._degree + 1 for row in rows):
            raise ValueError(self._wrong_size)
        super().__init__(field, [c for row in rows for c in row])

    def _split(self, flat):
        """The rows of the row-major tuple ``flat``."""
        k = self._degree + 1
        return tuple(flat[i:i + k] for i in range(0, k * k, k))

    @property
    def _rows(self):
        return self._split(self.coeffs)

    def lift(self, new_field):
        return type(self)(new_field, self._rows)

    def _raw(self):
        """``_fibers`` of the form, built on the first call."""
        if getattr(self, "_maps", None) is None:
            self._maps = _fibers(self.field, self._split(self.values))
        return self._maps

    def _fiber_at(self, k, p):
        """``_raw()[k]`` at the P^1 point p, coerced into the form's field."""
        return self._raw()[k](_raw_point(self.field, p))

    def evaluate(self, u, v):
        """Value at P^1 points u, v: the fiber over u against v's monomials."""
        field, mono = self.field, self._raw()[3]
        return FieldElement(field, field._dot(
            self._fiber_at(0, u), mono(_raw_point(field, v))))

    def contains(self, u, v):
        return self.evaluate(u, v).is_zero()

    def fiber_in_v(self, u):
        """Coefficients (q0, .., qn) of the binary form sum_j q_j v^j v'^(n-j)
        cut out on the fiber over u: the columns against u's monomials."""
        return tuple(FieldElement(self.field, x) for x in self._fiber_at(0, u))

    def fiber_in_u(self, v):
        """The same over v: the rows against v's monomials."""
        return tuple(FieldElement(self.field, x) for x in self._fiber_at(1, v))

    def __repr__(self):
        k = self._degree + 1
        return " + ".join(f"({c})u^{i // k}v^{i % k}"
                          for i, c in enumerate(self.coeffs) if not c.is_zero())


class BiquadraticForm(_Bihomogeneous):
    """A bihomogeneous form sum h[i][j] u^i v^j of bidegree (2,2), stored in
    canonical scale (first nonzero coefficient in row-major order is one).
    Library-built instances remember the two parametrizations whose
    incidence condition they encode."""

    __slots__ = ("outer_par", "inner_par")
    _degree, _size = 2, 9
    _wrong_size = "a biquadratic form needs a 3x3 coefficient array"
    _all_zero = "zero form is not a curve"
    h = _Bihomogeneous._rows

    def __init__(self, field, h, outer_par=None, inner_par=None):
        super().__init__(field, h)
        self.outer_par, self.inner_par = outer_par, inner_par

    def partials(self, u, v):
        """The four bihomogeneous partial derivatives at ((a:b),(c:d)),
        in the order d/da, d/db, d/dc, d/dd."""
        return (_binary_partials(self.fiber_in_u(v), u)
                + _binary_partials(self.fiber_in_v(u), v))

    def is_singular_at(self, u, v):
        """Whether (u, v) is a singular point of the curve.  In odd
        characteristic the Euler relations make vanishing of all four
        partials imply H = 0, so membership need not be checked first."""
        return all(p.is_zero() for p in self.partials(u, v))

    def lift(self, new_field):
        return BiquadraticForm(new_field, self.h, self.outer_par, self.inner_par)


class BilinearFactor(_Bihomogeneous):
    """A bidegree-(1,1) form sum m[i][j] u^i v^j, canonically scaled; the
    components of a reducible incidence curve."""

    __slots__ = ()
    _degree, _size = 1, 4
    _wrong_size = "a bilinear factor needs a 2x2 coefficient array"
    m = _Bihomogeneous._rows

    def product(self, other):
        """The bidegree-(2,2) form this factor times another."""
        h = [[self.field.zero] * 3 for _ in range(3)]
        for x, a in enumerate(self.coeffs):  # x = 2i + j for a = m[i][j]
            for y, b in enumerate(other.coeffs):
                h[x // 2 + y // 2][x % 2 + y % 2] += a * b
        return h


def _binary_partials(q, p):
    """d/da and d/db of q0 b^2 + q1 ab + q2 a^2 at p = (a:b)."""
    a, b = p.coords
    q0, q1, q2 = q
    return (q1 * b + (q2 + q2) * a, (q0 + q0) * b + q1 * a)


def build_E(outer, inner, outer_par=None, inner_par=None, seed=0):
    """The incidence form H(u, v) whose zeros are the pairs (c(u), d(v))
    with c(u) on the tangent of the inner conic at d(v).  Coefficients are
    h[i][j] = B_D(c_i, d_j) where c_i, d_j are the parametrization
    coefficient columns and B_D the bilinear form of the inner conic."""
    if outer.field != inner.field:
        raise FieldMismatchError("conics live over different fields")
    if outer.field.char == 2:
        raise ValueError("the incidence curve needs odd or zero characteristic")
    if outer == inner:
        raise DegenerateInputError("conics must be distinct")
    if outer_par is None:
        outer_par = parametrize(outer, find_point(outer, seed))
    if inner_par is None:
        inner_par = parametrize(inner, find_point(inner, seed + 1))
    H = BiquadraticForm._of(outer.field, [
        x for row in _incidence_rows(inner, outer_par, inner_par) for x in row])
    H.outer_par, H.inner_par = outer_par, inner_par
    return H


def _incidence_rows(inner, outer_par, inner_par):
    """``build_E``'s h on raw values over the inner conic's field, unscaled:
    h[i][j] = grad(c_i) . d_j, for parametrizations over it or below."""
    field, grad = inner.field, inner._forms()[0]
    c_cols, d_cols = (list(zip(*par._raw(field)[0]))
                      for par in (outer_par, inner_par))
    return [[field._dot(grad(c), d) for d in d_cols] for c in c_cols]


def _double_root_of_fiber(field, q):
    """The repeated root of a binary quadratic with vanishing discriminant."""
    C, B, A = q
    if not A.is_zero():
        return P1Point(field, (-B, A + A))
    if not B.is_zero():
        raise DegenerateInputError("fiber quadratic has two distinct roots")
    if C.is_zero():
        raise DegenerateInputError("fiber quadratic vanishes identically")
    return P1Point.infinity(field)


def _columns(H):
    """A, B and C of H = A(u) v^2 + B(u) v + C(u), as Polynomials in u."""
    return (_from_values(H.field, H.values[j::3]) for j in (2, 1, 0))


def _branch_quartic(H):
    """The discriminant disc_v = B^2 - 4AC of H in v, a binary quartic in u,
    as (leading coefficient, multiplicity at infinity, squarefree
    decomposition)."""
    A, B, C = _columns(H)
    f = B * B - A * C * 4
    if f.is_zero():
        raise DegenerateInputError("discriminant vanishes identically: "
                                   "the form is not reduced")
    return f.lc, 4 - f.degree, squarefree_decomposition(f)


def singular_points(H, branch=None):
    """All singular points of the curve, over the base field or one
    quadratic extension.  Candidates lie over the multiple roots of the
    branch quartic (``branch``, computed when not given), at the double
    root of the fiber; each is confirmed against the four bihomogeneous
    partials."""
    field = H.field
    _, at_inf, parts = branch or _branch_quartic(H)
    out = []
    for u in _repeated_params(field, at_inf, parts):
        Hl = H if u.field == field else H.lift(u.field)
        v = _double_root_of_fiber(u.field, Hl.fiber_in_v(u))
        if Hl.is_singular_at(u, v):
            out.append((u, v))
    out.sort(key=lambda p: (p[0].field.spec_string(),
                            p[0].sort_key(), p[1].sort_key()))
    return out


def is_reducible(H, branch=None):
    """The two bidegree-(1,1) components when the curve splits, else None.

    The curve splits exactly when every multiplicity of the branch quartic
    lc * prod part^m (``branch``, computed when not given) is even; its
    components are then 2A v + B = +-g(u) with g = sqrt(lc) prod
    part^(m/2).  When lc is not a square the split happens over one
    declared quadratic extension and the factors are returned there.
    Returns (factor, factor, lifted flag)."""
    field = H.field
    lc, at_inf, parts = branch or _branch_quartic(H)
    if at_inf % 2 or any(m % 2 for _, m in parts):
        return None
    root = Polynomial(field, [field.one.sqrt()])
    for part, m in parts:
        root = root * part ** (m // 2)
    sq = lc.sqrt()
    lifted = sq is None
    if lifted:
        field, sq = lift_to_quadratic_extension(lc)
        H, root = H.lift(field), root.map_field(field)
    g = root * sq
    A, B, C = _columns(H)
    if A.is_zero() or C.is_zero():
        raise DegenerateInputError("the curve contains a fiber line")
    p_v, raw = A * 2, []
    for p_w in (B + g, B - g):
        # the component 2A v + (B +- g) v' = 0, divided by its content
        content = gcd(p_v, p_w)
        qv, rv = divmod(p_v, content)
        qw, rw = divmod(p_w, content)
        if not (rv.is_zero() and rw.is_zero()):
            raise TheoremViolation("content does not divide the factor forms")
        # row k of the factor is (qw_k, qv_k), both of degree at most one
        qw, qv = ([*q.coeffs, field.zero, field.zero][:2] for q in (qw, qv))
        raw.append(BilinearFactor(field, list(zip(qw, qv))))
    f1, f2 = raw
    if BiquadraticForm(field, f1.product(f2)) != H:
        raise TheoremViolation("the split factors do not multiply back to "
                               "the incidence form")
    return f1, f2, lifted


class ECurveShape:
    """Shape report for the incidence curve: one of the five tags together
    with the form, its singular points and (when split) the components,
    unless they need a second quadratic step above Q."""

    __slots__ = ("tag", "form", "singular", "factors", "lifted_split")

    def __init__(self, tag, form, singular, factors=None, lifted_split=False):
        self.tag = tag
        self.form = form
        self.singular = singular
        self.factors = factors
        self.lifted_split = lifted_split

    @property
    def reducible(self):
        return self.tag in (SHAPE_SPLIT_TRANSVERSAL, SHAPE_SPLIT_DOUBLE)

    def __repr__(self):
        return f"ECurveShape({self.tag!r}, {len(self.singular)} singular)"


def shape(outer, inner, seed=0):
    """Classify the incidence curve of a smooth conic pair: the multiplicity
    pattern of its branch quartic fixes the tag and the number of singular
    points, and the split components when every multiplicity is even."""
    H = build_E(outer, inner, seed=seed)
    branch = _branch_quartic(H)
    tag, count = _SHAPES[_multiplicities(*branch[1:])]
    singular = singular_points(H, branch)
    if len(singular) != count:
        raise TheoremViolation(f"{tag} curve with {len(singular)} "
                               "singular points")
    try:
        split = is_reducible(H, branch)
    except ExtensionOverflowError:  # components over Q(sqrt d)(sqrt lc)
        split = None
    if split is None:
        return ECurveShape(tag, H, singular)
    return ECurveShape(tag, H, singular, split[:2], split[2])


def _monomials(field, degree):
    """The raw map p -> the monomials of p = (a : b) in the degree, (b, a)
    or (b^2, ab, a^2)."""
    if degree == 1:
        return lambda p: (p[1], p[0])
    mul = field._mul
    return lambda p: (mul(p[1], p[1]), mul(p[0], p[1]), mul(p[0], p[0]))


def _fibers(field, h):
    """The fibers of the raw coefficient array h of a bidegree-(n, n) form
    and the involution on them: ``in_v(u)``, h's columns against u's
    monomials (``fiber_in_v``), ``in_u(v)``, its rows against v's
    (``fiber_in_u``), ``_involution(field, h, columns)`` and ``_monomials``."""
    mono, dot = _monomials(field, len(h) - 1), field._dot
    cols = list(zip(*h))

    def fiber(rows):
        return lambda p: tuple([dot(r, m) for m in (mono(p),) for r in rows])
    return fiber(cols), fiber(h), _involution(field, h, cols), mono


def _involution(field, h, cols):
    """Vieta on the fibers q0 w^2 + q1 sw + q2 s^2 of the raw (2,2) array h:
    ``other(k, m, p, mp, check)`` sends coordinate k (0 for u, 1 for v) of
    a point of E, a root p = (s : w) of h's rows (k = 0) or columns against
    the other coordinate's monomials m, to the other root, canonical, with
    its monomials (w^2, sw, s^2), p's being mp; on (1 : t) they cost one
    product.  ``check`` first tests, by one dot, that p is a root."""
    zero, one = field.zero.value, field.one.value
    mul, neg, dot, inv = field._mul, field._neg, field._dot, field._inv

    def other(k, m, p, mp, check=True):
        r0, r1, r2 = (h, cols)[k]
        q = C, B, A = dot(r0, m), dot(r1, m), dot(r2, m)
        if check and dot(q, mp) != zero:
            raise NotOnConicError("point does not lie on the incidence curve")
        s, w = p
        if w != zero:  # the roots sum to -B/A
            a, b = neg(dot((B, A), (w, s))), mul(A, w)
        elif B != zero or C == zero:  # A = 0: the root -C/B, unless q = 0
            a, b = neg(C), B
        else:  # a double root at infinity
            return p, mp
        if a != zero:
            t = mul(b, inv(a))
            return (one, t), (mul(t, t), t, one)
        if b == zero:
            raise ValueError("fiber quadratic vanishes identically")
        return (zero, one), (one, zero, zero)
    return other


def _move(H, p, check, *moved):
    """p = (u, v) with coordinate k = 0 (u) or 1 (v) of ``moved`` in turn
    sent to the other root of its fiber; only the first move checks."""
    if p[0].field != H.field or p[1].field != H.field:
        raise FieldMismatchError("the parameters must lie over the form's field")
    _, _, other, mono = H._raw()
    p = [x.values for x in p]
    m = [mono(x) for x in p]
    for k in moved:
        p[k], m[k] = other(k, m[1 - k], p[k], m[k], check)
        check = False
    return P1Point._of(H.field, p[0]), P1Point._of(H.field, p[1])


def sigma(H, p, check=True):
    """The involution fixing u: v goes to the other root of the fiber."""
    return _move(H, p, check, 1)


def tau(H, p, check=True):
    """The involution fixing v: u goes to the other root of the fiber."""
    return _move(H, p, check, 0)


def nu(H, p, check=True):
    """The step map sigma o tau; its fixed points are the singular points."""
    return _move(H, p, check, 0, 1)


def nu_inverse(H, p, check=True):
    return _move(H, p, check, 1, 0)


def state_to_params(H, state):
    """Dictionary from process states (c, d) to curve points (u, v)."""
    if H.outer_par is None or H.inner_par is None:
        raise ValueError("form was not built from parametrizations")
    return (H.outer_par.param_of(state.c), H.inner_par.param_of(state.d))


def params_to_state(H, p, index=1):
    from .process import PonceletState
    if H.outer_par is None or H.inner_par is None:
        raise ValueError("form was not built from parametrizations")
    u, v = p
    return PonceletState(H.outer_par.point_at(u), H.inner_par.point_at(v),
                         index)
