"""Quadratic forms in characteristic two: symplectic normalization, the
canonical conic x0*x1 + x2^2, and the strange point.

The polar bilinear form B_q(u, v) = q(u+v) - q(u) - q(v) is alternating in
characteristic two, so it admits a symplectic basis.  Each hyperbolic pair
of B_q contributes a factor x*y to q after splitting one binary quadratic,
and the radical of B_q contributes at most a single square term because
square roots distribute over sums.  An irreducible conic therefore has the
canonical shape x0*x1 + x2^2; all of its tangent lines pass through one
common point, the strange point, which spans the radical of B_q.

Square roots here are total: in F_{2^k} the Frobenius is a bijection and
sqrt(a) = a^(2^(k-1)).
"""

from .errors import DegenerateInputError, TheoremViolation
from .fields import ExtensionField, FieldElement
from .projective import ProjPoint, tangent_at


class QuadraticForm2:
    """A quadratic form sum a_ij x_i x_j (i <= j) in n variables over a
    field of characteristic two, with zero coefficients dropped."""

    __slots__ = ("field", "n", "coeffs")

    def __init__(self, field, n, coeffs):
        if field.char != 2:
            raise ValueError("characteristic two only")
        clean = {}
        for (i, j), v in coeffs.items():
            if not 0 <= i <= j < n:
                raise ValueError(f"bad monomial index ({i}, {j})")
            v = field(v)
            if not v.is_zero():
                clean[(i, j)] = v
        self.field = field
        self.n = n
        self.coeffs = clean

    def coefficient(self, i, j):
        if i > j:
            i, j = j, i
        return self.coeffs.get((i, j), self.field.zero)

    def evaluate(self, vec):
        total = self.field.zero
        for (i, j), a in self.coeffs.items():
            total = total + a * vec[i] * vec[j]
        return total

    def polar(self, u, v):
        """B_q(u, v) = q(u+v) + q(u) + q(v), read off the coefficients: the
        sum of a_ij (u_i v_j + u_j v_i) over i < j."""
        return sum((a * (u[i] * v[j] + u[j] * v[i])
                    for (i, j), a in self.coeffs.items() if i != j),
                   start=self.field.zero)

    def transform(self, columns):
        """The form q(Pz) for the basis change with the given columns: the
        new diagonal entries are q on the columns, the cross entries the
        polar form of column pairs."""
        coeffs = {}
        for k in range(self.n):
            coeffs[(k, k)] = self.evaluate(columns[k])
            for l in range(k + 1, self.n):
                coeffs[(k, l)] = self.polar(columns[k], columns[l])
        return QuadraticForm2(self.field, self.n, coeffs)

    def map_field(self, new_field):
        return QuadraticForm2(new_field, self.n,
                              {k: new_field(v) for k, v in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, QuadraticForm2) and self.field == other.field
                and self.n == other.n and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.n, tuple(sorted(self.coeffs.items(),
                                                      key=lambda kv: kv[0]))))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j) in sorted(self.coeffs):
            a = self.coeffs[(i, j)]
            mono = f"x{i}^2" if i == j else f"x{i}x{j}"
            parts.append(mono if a == self.field.one else f"({a}){mono}")
        return " + ".join(parts)


class CanonicalForm2:
    """Result of symplectic normalization: l hyperbolic coordinate pairs,
    an optional square term, and the basis-change columns realizing
    x0*x1 + ... + x_{2l-2}*x_{2l-1} (+ x_{2l}^2)."""

    __slots__ = ("field", "n", "l", "has_square_term", "columns", "lifted")

    def __init__(self, field, n, l, has_square_term, columns, lifted):
        self.field = field
        self.n = n
        self.l = l
        self.has_square_term = has_square_term
        self.columns = columns
        self.lifted = lifted

    def canonical_form(self):
        coeffs = {}
        for i in range(self.l):
            coeffs[(2 * i, 2 * i + 1)] = self.field.one
        if self.has_square_term:
            coeffs[(2 * self.l, 2 * self.l)] = self.field.one
        return QuadraticForm2(self.field, self.n, coeffs)

    def matrix(self):
        """Basis-change matrix with the new basis vectors as columns."""
        return tuple(tuple(self.columns[k][r] for k in range(self.n))
                     for r in range(self.n))

    def __repr__(self):
        sq = " + square term" if self.has_square_term else ""
        return f"CanonicalForm2(l={self.l}{sq}, lifted={self.lifted})"


def _index(field, value):
    """The i with ``field.element(i).value == value``.  ``element`` reads
    i digit by digit, so over F_2 and the extensions above it this map is
    F_2-linear: a sum of values is the xor of their indices."""
    if not isinstance(field, ExtensionField):
        return value
    i = 0
    for v in value:
        i = i * field.base.size + _index(field.base, v)
    return i


def solve_artin_schreier(c):
    """A root of z^2 + z = c, adjoining one Artin-Schreier extension when
    the trace obstruction blocks a root in the field.  Returns the root and
    its field; of the roots z and z + 1, the one first in ``elements()``.

    z -> z^2 + z is F_2-linear, so the root comes from elimination over F_2
    on the images of the basis element(2^b), written as index bit masks."""
    field = c.field
    if field.char != 2 or field.size is None:
        raise ValueError("Artin-Schreier roots need a finite field of "
                         "characteristic two")
    pivots = {}  # top bit -> (image, the basis elements summed into it)
    for b in range(field.size.bit_length() - 1):
        e = field.element(1 << b)
        image, combo = _index(field, (e * e + e).value), 1 << b
        while image:
            top = image.bit_length() - 1
            if top not in pivots:
                pivots[top] = image, combo
                break
            image, combo = image ^ pivots[top][0], combo ^ pivots[top][1]
    target, root = _index(field, c.value), 0
    while target:
        top = target.bit_length() - 1
        if top not in pivots:
            ext = ExtensionField(field, [c, field.one, field.one])
            return ext.gen, ext
        target, root = target ^ pivots[top][0], root ^ pivots[top][1]
    return field.element(min(root, root ^ _index(field, field.one.value))), field


def _split_hyperbolic(alpha, beta):
    """Coordinate change turning alpha*x^2 + x*y + beta*y^2 into x'*y'.

    The form factors as L1*L2 with L1*L2 recovered from a root of the
    Artin-Schreier equation s^2 + s = alpha*beta.  Returns the 2x2 matrix
    [[p, q], [r, s]] of the linear factors L1 = p*x + q*y, L2 = r*x + s*y
    and the (possibly extended) field."""
    field = alpha.field
    if alpha.is_zero():
        # q = y * (x + beta*y)
        return ((field.zero, field.one), (field.one, beta)), field
    s1, new_field = solve_artin_schreier(alpha * beta)
    if new_field != field:
        alpha = new_field(alpha)
    s2 = s1 + new_field.one
    return ((alpha, s1), (new_field.one, s2 / alpha)), new_field


def _inv2(m, field):
    (p, q), (r, s) = m
    det = p * s + q * r  # char 2: the adjugate has no signs
    if det.is_zero():
        raise TheoremViolation("linear factors are dependent")
    di = det.inv()
    return ((s * di, q * di), (r * di, p * di))


def symplectic_normalize(q):
    """Canonical form of a quadratic form in characteristic two.

    Greedy symplectic reduction of the polar form extracts l hyperbolic
    pairs; each pair's binary quadratic is split into two linear factors
    (adjoining at most one quadratic extension per split, recorded in the
    result); the radical of the polar form collapses to a single square
    term since x -> x^2 is additive.  The basis vectors are lists of raw
    values, on which q(v) = v.(Uv) and B_q(u, v) = u.(Bv) are fused dots,
    with U the upper triangle of q's coefficients and B = U + U^T."""
    field, n = q.field, q.n
    zero, one = field.zero.value, field.one.value
    upper = [[zero] * n for _ in range(n)]
    for (i, j), a in q.coeffs.items():
        upper[i][j] = a.value
    remaining = [[one if r == k else zero for r in range(n)] for k in range(n)]
    columns, lifted = [], False

    def forms(field):
        add, dot = field._add, field._dot
        polar = [[add(x, y) for x, y in zip(row, col)]
                 for row, col in zip(upper, zip(*upper))]

        def times_polar(v):
            return [dot(row, v) for row in polar]

        def value(v):
            return dot(v, [dot(row, v) for row in upper])
        return dot, times_polar, value

    dot, times_polar, value = forms(field)
    while True:
        # the first pair a < b, in order, with B(r_a, r_b) = (B r_a).r_b != 0
        found = None
        for a, r in enumerate(remaining):
            bv = times_polar(r)
            b = next((b for b in range(a + 1, len(remaining))
                      if dot(bv, remaining[b]) != zero), None)
            if b is not None:
                found = a, b, bv
                break
        if found is None:
            break
        a, b, bv = found
        u = remaining.pop(b)
        v = remaining.pop(a)
        scale = field._inv(dot(bv, u))
        w = [field._mul(scale, c) for c in u]
        bw = times_polar(w)
        # make the rest of the basis polar-orthogonal to the pair (v, w)
        for idx, r in enumerate(remaining):
            c = (one, dot(r, bw), dot(r, bv))
            remaining[idx] = [dot(c, x) for x in zip(r, v, w)]
        factors, new_field = _split_hyperbolic(FieldElement(field, value(v)),
                                               FieldElement(field, value(w)))
        if new_field != field:
            def lift(vec, old=field):
                return [new_field(FieldElement(old, x)).value for x in vec]
            upper, remaining, columns, v, w = (
                [lift(x) for x in upper], [lift(x) for x in remaining],
                [lift(x) for x in columns], lift(v), lift(w))
            field, lifted = new_field, True
            zero, one = field.zero.value, field.one.value
            dot, times_polar, value = forms(field)
        (i00, i01), (i10, i11) = ([x.value for x in row]
                                  for row in _inv2(factors, field))
        columns.append([dot((i00, i10), x) for x in zip(v, w)])
        columns.append([dot((i01, i11), x) for x in zip(v, w)])

    # the radical: the polar form vanishes, so q restricts to a square
    l, square_vec, rest = len(columns) // 2, None, []
    for r in remaining:
        val = value(r)
        if val == zero:
            rest.append(r)
            continue
        root = field.sqrt(FieldElement(field, val)).value
        if square_vec is None:
            square_vec = [field._mul(field._inv(root), c) for c in r]
            columns.append(square_vec)
        else:
            rest.append([dot((one, root), x) for x in zip(r, square_vec)])
    columns += rest
    # q(Pz) has the canonical coefficients: q(e_k) and B(e_k, e_m), k < m
    images = [times_polar(c) for c in columns]
    square = 2 * l if square_vec is not None else None
    for k, col in enumerate(columns):
        mate = k + 1 if k % 2 == 0 and k < 2 * l else None
        if value(col) != (one if k == square else zero) or any(
                dot(col, images[m]) != (one if m == mate else zero)
                for m in range(k + 1, n)):
            raise TheoremViolation("basis does not give the canonical form")
    return CanonicalForm2(field, n, l, square_vec is not None, tuple(
        tuple(FieldElement(field, x) for x in c) for c in columns), lifted)


def is_irreducible_conic(conic):
    """Whether a ternary char-2 quadratic form cuts out a smooth conic, of
    canonical shape x0*x1 + x2^2.  Its polar form has rank 0 or 2 with
    radical [a12 : a02 : a01]; the shape needs that point, off the conic."""
    a00, a11, a22, a01, a02, a12 = conic.coeffs
    radical = [a12, a02, a01]
    return (not all(c.is_zero() for c in radical)
            and not conic.evaluate(radical).is_zero())


def strange_point(conic):
    """The unique point through which every tangent line of an irreducible
    char-2 conic passes: the radical of the polar form, [a12 : a02 : a01]."""
    if not is_irreducible_conic(conic):
        raise DegenerateInputError("reducible conic has no strange point")
    a00, a11, a22, a01, a02, a12 = conic.coeffs
    return ProjPoint(conic.field, [a12, a02, a01])


# a char-2 conic's tangent is its gradient line, as in any characteristic
tangent_at_char2 = tangent_at
