"""Reference implementations kept for the tests, outside the package.

Each one is either a loop that porism now runs on raw field values, kept
here in its wrapped form (``FieldElement`` and ``Polynomial`` at every
step) so that the raw version can be checked against it, or a definition
that no code path of porism calls but the tests use as an independent
check:

* the finite-field factoring pipeline: ``squarefree_decomposition``,
  ``factor`` and the ``quadratic_roots``, ``derivative``, ``gcd``,
  ``_pth_root``, ``_sff``, ``_ddf`` and ``_edf`` under them, on the same
  ``random.Random(0)`` stream as ``porism.poly``;
* ``symplectic_normalize``, the characteristic-two normalization on
  wrapped vectors and ``QuadraticForm2``'s own ``polar``/``evaluate``;
* ``step_inverse`` (the geometric inverse of ``process.step``),
  ``build_E_normalized``, ``is_identity``, ``line_through``,
  ``intersect_line_conic`` and ``multiplicity_structure``.
"""

import random

from porism.char2 import CanonicalForm2, _inv2, _split_hyperbolic
from porism.ecurve import build_E
from porism.errors import DegenerateInputError, TheoremViolation
from porism.fields import FieldElement
from porism.poly import Polynomial, _monic_quadratic_roots, binary_form_roots
from porism.process import PonceletState, is_tangency_state
from porism.projective import (Conic, ConicParametrization, ProjLine,
                               ProjPoint, _multiplicities,
                               find_point, normal_form_conic,
                               other_intersection, parametrize, polar,
                               pullback_quartic, tangent_at)


# -- factoring over a finite field, on Polynomials ------------------------------

def quadratic_roots(c0, c1, c2):
    """The roots of c2 t^2 + c1 t + c0, c2 nonzero, in the coefficients'
    field of characteristic other than two, as (root, multiplicity) pairs:
    (-c1 + s)/(2 c2), then (-c1 - s)/(2 c2), with s the canonical square
    root of the discriminant; one double root when it is zero, and none
    when it is not a square: u/c2 for u^2 + c1 u + c0 c2's roots u."""
    field = c2.field
    _, roots = _monic_quadratic_roots(field, (c0 * c2).value, c1.value, lift=False)
    inv = field._inv(c2.value)
    return [(FieldElement(field, field._mul(u, inv)), 3 - len(roots))
            for u in roots]


def derivative(f):
    return Polynomial(f.field, [f.coeffs[i] * i for i in range(1, len(f.coeffs))])


def gcd(f, g):
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def _pth_root(f):
    """For f with f' = 0 over a finite field of char p, the g with g^p = f."""
    p = f.field.char
    q = f.field.size
    coeffs = [f[i * p] ** (q // p) for i in range(f.degree // p + 1)]
    return Polynomial(f.field, coeffs)


def squarefree_decomposition(f):
    """List of (monic squarefree g_i, multiplicity m_i), distinct m_i, with
    f = lc(f) * prod g_i^{m_i}."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    f = f.monic()
    parts = {}
    _sff(f, 1, parts)
    return [(g, m) for m, g in sorted(parts.items())]


def _sff(f, scale, parts):
    if f.degree == 0:
        return
    df = derivative(f)
    if df.is_zero():
        # inseparable: f = g(x^p)^1 with every exponent divisible by p
        _sff(_pth_root(f), scale * f.field.char, parts)
        return
    c = gcd(f, df)
    w = f // c
    i = 1
    while w.degree > 0:
        y = gcd(w, c)
        z = w // y
        if z.degree > 0:
            m = i * scale
            parts[m] = parts.get(m, Polynomial(f.field, [1])) * z
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        _sff(_pth_root(c), scale * f.field.char, parts)


def _ddf(f):
    """Distinct-degree factorization of a monic squarefree f over a finite
    field: list of (product-of-irreducibles-of-degree-d, d)."""
    q = f.field.size
    out = []
    x = Polynomial.x(f.field)
    xq = x
    d = 0
    rest = f
    while rest.degree > 2 * d:
        d += 1
        xq = pow(xq, q, rest)
        g = gcd(rest, xq - x)
        if g.degree > 0:
            out.append((g, d))
            rest = rest // g
            xq = xq % rest
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _random_poly(field, max_degree, rng):
    return Polynomial(field, [field.element(rng.randrange(field.size))
                              for _ in range(rng.randrange(1, max_degree + 1) + 1)])


def _edf(f, d, rng):
    """Cantor-Zassenhaus split of a monic product of irreducibles of degree d."""
    if f.degree == d:
        return [f]
    q = f.field.size
    while True:
        h = _random_poly(f.field, f.degree - 1, rng)
        if h.degree < 1:
            continue
        if f.field.char == 2:
            # trace map over F_2
            k = q.bit_length() - 1
            t = Polynomial(f.field, [])
            term = h % f
            for _ in range(k * d):
                t = t + term
                term = term * term % f
        else:
            t = pow(h, (q ** d - 1) // 2, f) - Polynomial(f.field, [1])
        g = gcd(f, t)
        if 0 < g.degree < f.degree:
            return _edf(g, d, rng) + _edf(f // g, d, rng)


def factor(f):
    """Full factorization over a finite field: list of (monic irreducible,
    multiplicity), sorted canonically."""
    if f.field.size is None:
        raise ValueError("factor() requires a finite field")
    if f.degree < 1:
        return []
    if f.degree == 2 and f.field.char != 2:
        roots = quadratic_roots(*f.coeffs)
        if not roots:
            return [(f.monic(), 1)]
        lines = [(Polynomial(f.field, [-r, 1]), m) for r, m in roots]
        lines.sort(key=lambda gm: gm[0][0].sort_key())
        return lines
    rng = random.Random(0)
    out = []
    for part, mult in squarefree_decomposition(f):
        for block, d in _ddf(part):
            for irr in _edf(block, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda gm: (gm[0].degree, [c.sort_key() for c in gm[0].coeffs]))
    if sum(g.degree * m for g, m in out) != f.degree:
        raise TheoremViolation("factor degrees do not add up")
    return out


# -- characteristic two, on wrapped vectors ---------------------------------------

def symplectic_normalize(q):
    """Canonical form of a quadratic form in characteristic two: greedy
    symplectic reduction of the polar form, each hyperbolic pair split into
    linear factors, the radical collapsed to one square term."""
    field = q.field
    n = q.n
    vectors = [[field.one if r == k else field.zero for r in range(n)]
               for k in range(n)]
    remaining = list(vectors)
    pairs = []
    lifted = False

    def relift(new_field):
        nonlocal field, q, remaining, pairs, lifted
        conv = lambda v: [new_field(c) for c in v]
        q = q.map_field(new_field)
        remaining = [conv(v) for v in remaining]
        pairs = [(conv(u), conv(w)) for u, w in pairs]
        field = new_field
        lifted = True

    while True:
        found = None
        for a in range(len(remaining)):
            for b in range(a + 1, len(remaining)):
                if not q.polar(remaining[a], remaining[b]).is_zero():
                    found = (a, b)
                    break
            if found:
                break
        if not found:
            break
        a, b = found
        u = remaining.pop(b)
        v = remaining.pop(a)
        scale = q.polar(v, u).inv()
        w = [scale * c for c in u]
        # make the rest of the basis polar-orthogonal to the pair (v, w)
        for idx, r in enumerate(remaining):
            cu = q.polar(r, w)
            cw = q.polar(r, v)
            remaining[idx] = [rc + cu * vc + cw * wc
                              for rc, vc, wc in zip(r, v, w)]
        alpha = q.evaluate(v)
        beta = q.evaluate(w)
        factors, new_field = _split_hyperbolic(alpha, beta)
        if new_field != field:
            relift(new_field)
            v = [field(c) for c in v]
            w = [field(c) for c in w]
        inv = _inv2(factors, field)
        u2 = [inv[0][0] * vc + inv[1][0] * wc for vc, wc in zip(v, w)]
        w2 = [inv[0][1] * vc + inv[1][1] * wc for vc, wc in zip(v, w)]
        pairs.append((u2, w2))

    # the radical: the polar form vanishes, so q restricts to a square
    square_vec = None
    rest = []
    for r in remaining:
        val = q.evaluate(r)
        if val.is_zero():
            rest.append(r)
        elif square_vec is None:
            root = field.sqrt(val)
            inv = root.inv()
            square_vec = [inv * c for c in r]
        else:
            root = field.sqrt(val)
            rest.append([rc + root * sc for rc, sc in zip(r, square_vec)])
    columns = []
    for u2, w2 in pairs:
        columns.append(u2)
        columns.append(w2)
    if square_vec is not None:
        columns.append(square_vec)
    columns.extend(rest)
    result = CanonicalForm2(field, n, len(pairs), square_vec is not None,
                            tuple(tuple(c) for c in columns), lifted)
    if q.transform(result.columns) != result.canonical_form():
        raise TheoremViolation("basis does not give the canonical form")
    return result


# -- definitions no code path of porism calls --------------------------------------

def step_inverse(cfg, state):
    """The inverse of ``process.step`` (the two involutions applied in the
    other order)."""
    if is_tangency_state(cfg, state):
        return PonceletState(state.c, state.d, state.index - 1)
    d0 = other_intersection(cfg.inner, polar(cfg.inner, state.c), state.d)
    c0 = other_intersection(cfg.outer, tangent_at(cfg.inner, d0), state.c)
    return PonceletState(c0, d0, state.index - 1)


def build_E_normalized(t, a, b):
    """The incidence form of the normal-form pair, which comes out as
    b u^2 - 2b uv + (1 + tu + au^2) v^2 on the nose."""
    field = t.field
    if b.is_zero():
        raise DegenerateInputError("b = 0 makes the outer conic singular")
    outer = normal_form_conic(t, a, b)
    inner = Conic(field, [field.one, field.zero, field.zero,
                          field.zero, field.zero, -field.one])
    base = ProjPoint(field, [field.zero, field.zero, field.one])
    H = build_E(outer, inner,
                ConicParametrization(outer, base),
                ConicParametrization(inner, base))
    expected = ((field.zero, field.zero, field.one),
                (field.zero, -(b + b), field(t)),
                (field(b), field.zero, field(a)))
    if H.h != expected:
        raise TheoremViolation(f"normal-form incidence form is {H!r}")
    return H


def is_identity(transform):
    """Whether a ``ProjTransform``'s matrix is a nonzero multiple of the
    identity."""
    m = transform.matrix
    d = m[0][0]
    if d.is_zero():
        return False
    for i in range(3):
        for j in range(3):
            want = d if i == j else transform.field.zero
            if m[i][j] != want:
                return False
    return True


def line_through(p, q):
    if p == q:
        raise DegenerateInputError("no unique line through a repeated point")
    (a, b, c), (d, e, f) = p.coords, q.coords
    return ProjLine(p.field, [b * f - c * e, c * d - a * f, a * e - b * d])


def intersect_line_conic(conic, line):
    """Intersection points with multiplicities summing to 2; points may lie
    in a quadratic extension (reported in their own field, which the
    spanning points are lifted into)."""
    p0, p1 = line.span()
    alpha = conic.evaluate(p0.coords)
    gamma = conic.evaluate(p1.coords)
    beta = conic.bilinear(p0.coords, p1.coords)
    roots = binary_form_roots(conic.field, [gamma, beta, alpha], 2)
    out = []
    for t, mult in roots.entries:
        # parameter t = s/w for the point s*p0 + w*p1
        big = t.field
        coords = [t * big(a) + big(b) for a, b in zip(p0.coords, p1.coords)]
        out.append((ProjPoint(t.field, coords), mult))
    if roots.at_infinity:
        out.append((p0, roots.at_infinity))
    return out


def multiplicity_structure(c, d, seed=0):
    """The sorted multiset of intersection multiplicities, from the
    squarefree structure of the pullback quartic on Polynomials."""
    par = parametrize(d, find_point(d, seed))
    f = Polynomial(c.field, pullback_quartic(c, par))
    return _multiplicities(4 - f.degree, squarefree_decomposition(f))
