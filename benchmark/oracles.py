"""Output oracles: answers computed with the benchmark's own arithmetic
(``gf``), and the properties the mathematics guarantees.

Conics are six coefficients (a00, a11, a22, a01, a02, a12) of
a00 x^2 + a11 y^2 + a22 z^2 + a01 xy + a02 xz + a12 yz, points are
coordinate triples, both over a ``gf.GF`` or ``gf.QuadExt`` (integers) or a ``gf.QS``
(pairs of Fractions).  Every ``check_*`` function returns a list of
problems; an empty list means the program's output passed.
"""

from fractions import Fraction

from gf import QuadExt, det3, gf_from_spec, qs_from_spec, rank

TANGENT_TYPES = ("(2,1,1)", "(2,2)", "(3,1)", "(4)")
ALL_TYPES = ("(1,1,1,1)",) + TANGENT_TYPES
# how many tangency points (= singular points of E) each type has
TANGENCY_COUNT = {"(1,1,1,1)": 0, "(2,1,1)": 1, "(2,2)": 2, "(3,1)": 1,
                  "(4)": 1}
# the incidence-curve shape porism's ecurve command reports for each type
SHAPE_OF_TYPE = {"(1,1,1,1)": "smooth", "(2,1,1)": "node", "(3,1)": "cusp",
                 "(2,2)": "two components, transversal",
                 "(4)": "two components, double contact"}


# -- conic geometry over a GF ---------------------------------------------

def matrix(F, coeffs):
    """Symmetric matrix of a conic, mixed entries halved (odd q only)."""
    a00, a11, a22, a01, a02, a12 = coeffs
    h = F.invert(F.from_int(2))
    b01, b02, b12 = F.mul(a01, h), F.mul(a02, h), F.mul(a12, h)
    return [[a00, b01, b02], [b01, a11, b12], [b02, b12, a22]]


def matvec(F, m, v):
    return [F.dot(row, v) for row in m]


def canon(F, v):
    """Projective point or line scaled so its first nonzero entry is one."""
    piv = next(x for x in v if x)
    inv = F.invert(piv)
    return tuple(F.mul(inv, x) for x in v)


def cross(F, u, v):
    return [F.sub(F.mul(u[1], v[2]), F.mul(u[2], v[1])),
            F.sub(F.mul(u[2], v[0]), F.mul(u[0], v[2])),
            F.sub(F.mul(u[0], v[1]), F.mul(u[1], v[0]))]


def plane_points(F):
    pts = [(1, 0, 0)] + [(x, 1, 0) for x in range(F.q)]
    pts += [(x, y, 1) for x in range(F.q) for y in range(F.q)]
    return pts


def is_smooth(F, coeffs):
    return det3(F, matrix(F, coeffs)) != 0


def same_conic(F, c, d):
    return canon(F, c) == canon(F, d)


def transform_conic(F, coeffs, a):
    """The conic {x : Q(A x) = 0} for an invertible 3x3 matrix A."""
    m = matrix(F, coeffs)
    am = [[F.dot([a[k][i] for k in range(3)], [m[k][j] for k in range(3)])
           for j in range(3)] for i in range(3)]                    # A^T M
    n = [[F.dot(am[i], [a[k][j] for k in range(3)]) for j in range(3)]
         for i in range(3)]                                         # A^T M A
    two = F.from_int(2)
    return (n[0][0], n[1][1], n[2][2], F.mul(two, n[0][1]),
            F.mul(two, n[0][2]), F.mul(two, n[1][2]))


# -- intersection type from the pencil det(lambda C + D) ----------------------

def _polymul(F, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def _polyadd(F, a, b):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return [F.add(x, y) for x, y in zip(a, b)]


def _root_multiplicity(F, f, r):
    """Multiplicity of r as a root of f (coefficients low degree first)."""
    m = 0
    while len(f) > 1:
        # synthetic division by (x - r)
        quot, acc = [0] * (len(f) - 1), 0
        for i in range(len(f) - 1, 0, -1):
            acc = F.add(F.mul(acc, r), f[i])
            quot[i - 1] = acc
        if F.add(F.mul(acc, r), f[0]) != 0:
            break
        f, m = quot, m + 1
    return m


def _pencil_cubic(F, mc, md):
    """det(lambda C + D) as coefficients in lambda, low degree first."""
    e = [[[md[i][j], mc[i][j]] for j in range(3)] for i in range(3)]
    det = [0]
    for (i, j, k), sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                            ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1)):
        term = _polymul(F, _polymul(F, e[0][i], e[1][j]), e[2][k])
        if sign < 0:
            term = [F.negate(x) for x in term]
        det = _polyadd(F, det, term)
    return det


def pencil_type(F, outer, inner):
    """The intersection type of two smooth distinct conics from the Segre
    symbol of their pencil: the multiplicities of the roots of
    det(lambda C + D) and the rank of the member at a repeated root."""
    mc, md = matrix(F, outer), matrix(F, inner)
    det = _pencil_cubic(F, mc, md)
    # det(C) != 0 and det(D) != 0, so no root sits at lambda = 0 or infinity
    top = max(_root_multiplicity(F, det, r) for r in range(1, F.q))
    if top <= 1:
        return "(1,1,1,1)"
    r = next(r for r in range(1, F.q) if _root_multiplicity(F, det, r) == top)
    member = [[F.add(F.mul(r, mc[i][j]), md[i][j]) for j in range(3)]
              for i in range(3)]
    full = rank(F, member) == 2
    if top == 2:
        return "(2,1,1)" if full else "(2,2)"
    return "(3,1)" if full else "(4)"


def split_degrees(F, outer, inner):
    """For a (1,1,1,1) pair: the degrees over F of the fields of its four
    intersection points, largest first.  The Galois action on the points
    shows in two counts: the points over F, and the roots over F of the
    pencil cubic, whose roots are the three ways to pair up the points."""
    mc, md = matrix(F, outer), matrix(F, inner)
    rational = sum(1 for p in plane_points(F)
                   if not F.dot(p, matvec(F, mc, p)) and
                   not F.dot(p, matvec(F, md, p)))
    cubic = _pencil_cubic(F, mc, md)
    roots = sum(1 for r in range(1, F.q) if _root_multiplicity(F, cubic, r))
    return {(4, 3): (1, 1, 1, 1), (2, 1): (2, 1, 1), (0, 3): (2, 2),
            (1, 0): (3, 1), (0, 1): (4,)}[(rational, roots)]


# -- the Poncelet period, by running the process itself --------------------

def _other_point(F, m, line, known):
    """Second point of line /\\ conic(m) given one of them (Vieta)."""
    for k in range(3):
        w = cross(F, line, [1 if i == k else 0 for i in range(3)])
        if any(w) and canon(F, w) != known:
            break
    qw = F.dot(w, matvec(F, m, w))
    b = F.dot(known, matvec(F, m, w))
    b2 = F.add(b, b)
    return canon(F, [F.sub(F.mul(qw, x), F.mul(b2, y))
                     for x, y in zip(known, w)])


def _start(F, G, mc, md):
    """A non-tangency state (c, d) with c an F-point of C and d a point of
    D over G (F itself or its quadratic extension), or None."""
    for c in plane_points(F):
        if F.dot(c, matvec(F, mc, c)):
            continue
        c = canon(F, c)
        if not F.dot(c, matvec(F, md, c)) and \
                canon(F, matvec(F, mc, c)) == canon(F, matvec(F, md, c)):
            continue                          # a tangency point is fixed
        polar = matvec(F, md, c)              # d lies on the polar of c
        pts = [canon(F, w) for w in (cross(F, polar, e) for e in
                                     ((1, 0, 0), (0, 1, 0), (0, 0, 1))) if any(w)]
        w0 = pts[0]
        w1 = next(w for w in pts if w != w0)
        alpha = G.dot(w0, matvec(G, md, w0))
        beta = G.dot(w0, matvec(G, md, w1))
        gamma = G.dot(w1, matvec(G, md, w1))
        if gamma == 0:
            return c, canon(G, w1)
        two_beta = G.add(beta, beta)
        for t in range(G.q):        # alpha + 2 beta t + gamma t^2 = 0
            if G.add(alpha, G.mul(t, G.add(two_beta, G.mul(gamma, t)))) == 0:
                return c, canon(G, [G.add(x, G.mul(t, y))
                                    for x, y in zip(w0, w1)])
    return None


def poncelet_period(F, outer, inner, limit):
    """Period of the Poncelet map from one non-tangency start, or None when
    the orbit does not close within ``limit`` steps.  By the porism every
    other start has the same period.  The start has c over F; its contact
    point d is taken over F when some c allows it, else over the quadratic
    extension, as porism itself lifts such starts."""
    mc, md = matrix(F, outer), matrix(F, inner)
    for G in (F, QuadExt(F)):
        start = _start(F, G, mc, md)
        if start is not None:
            break
    else:
        raise ValueError("no start found")
    c, d = start
    for i in range(1, limit + 1):
        c = _other_point(G, mc, matvec(G, md, d), c)
        d = _other_point(G, md, matvec(G, md, c), d)
        if (c, d) == start:
            return i
    return None


# -- checks of program outputs -------------------------------------------------

def check_porism(report, F, outer, inner, budget, expected_type=None):
    """porism-check JSON against the pencil type and the own-run period.

    Returns (problems, failed): ``failed`` is True when some start stayed
    open, which over a finite field can only mean the step budget ran out
    (the orbit closes, with the oracle's period, beyond it)."""
    problems = []
    want = pencil_type(F, outer, inner)
    if expected_type is not None and want != expected_type:
        problems.append(f"constructed {expected_type} but pencil says {want}")
    if report["type"] != want:
        problems.append(f"type {report['type']}, pencil says {want}")
    period = poncelet_period(F, outer, inner, limit=4 * F.q + 8)
    closed = [x for x in report["periods"] if x]
    if len(set(closed)) > 1:
        problems.append(f"several periods {sorted(set(closed))}")
    if closed and closed[0] != period:
        problems.append(f"period {closed[0]}, own run says {period}")
    if want in ("(3,1)", "(4)") and F.k == 1 and period != F.p:
        problems.append(f"osculating pair over F_{F.p} has period {period}")
    failed = report["open"] > 0
    if failed and (period is None or period <= budget):
        problems.append(f"open start although the period {period} is within "
                        f"the budget {budget}")
    law = len(set(closed)) <= 1 and (not closed or not report["open"])
    if report["pass"] is not law:
        problems.append("pass flag disagrees with the periods")
    return problems, failed


def check_intersections(mults, F, outer, inner):
    problems = []
    if sum(mults) != 4:
        problems.append(f"Bezout sum {sum(mults)}")
    got = "(" + ",".join(str(m) for m in sorted(mults, reverse=True)) + ")"
    want = pencil_type(F, outer, inner)
    if got != want:
        problems.append(f"intersection multiplicities {got}, pencil says {want}")
    return problems


def _tangent_at(F, coeffs, p):
    return canon(F, matvec(F, matrix(F, coeffs), p))


def check_classify(data, F, outer, inner):
    """classify JSON: the type, each tangency point (on both conics, with a
    common tangent there) and the normal-form parameters."""
    problems = []
    want = pencil_type(F, outer, inner)
    if data["type"] != want:
        problems.append(f"type {data['type']}, pencil says {want}")
    pts = data["tangency_points"]
    if len(pts) != TANGENCY_COUNT[want]:
        problems.append(f"{len(pts)} tangency points for type {want}")
    nf_spec = F.spec()
    for pt in pts:
        if pt["field"] != F.spec():
            nf_spec = pt["field"]
        G = _field_for(pt["field"])
        if G is None:
            continue
        p = canon(G, [G.parse(c) for c in pt["coords"]])
        o, i = (tuple(G.parse(F.render(c)) for c in x) for x in (outer, inner))
        for conic in (o, i):
            if G.dot(p, matvec(G, matrix(G, conic), p)):
                problems.append(f"tangency point {pt['coords']} off a conic")
        if _tangent_at(G, o, p) != _tangent_at(G, i, p):
            problems.append(f"no common tangent at {pt['coords']}")
    nf = data.get("normal_form")
    if (nf is None) != (want == "(1,1,1,1)"):
        problems.append("normal form present exactly for tangent pairs")
    G = _field_for(nf_spec)
    if nf is not None and G is not None:
        t, a, b, delta = (G.parse(nf[k]) for k in ("t", "a", "b", "delta"))
        four = G.from_int(4)
        if delta != G.sub(G.mul(t, t), G.mul(G.mul(four, a), G.sub(1, b))):
            problems.append("delta != t^2 - 4a(1-b)")
        if b != 1:
            got = "(2,1,1)" if delta else "(2,2)"
        else:
            got = "(3,1)" if t else "(4)"
        if got != want:
            problems.append(f"normal form criteria give {got}, pencil {want}")
    return problems


def check_ecurve(data, F, outer, inner):
    """ecurve JSON: shape, reducibility and singular locus match the type
    (smooth / node / cusp; two components exactly for (2,2) and (4))."""
    problems = []
    want = pencil_type(F, outer, inner)
    if data["shape"] != SHAPE_OF_TYPE[want]:
        problems.append(f"shape {data['shape']!r} for type {want}")
    if data["reducible"] != (want in ("(2,2)", "(4)")):
        problems.append(f"reducible={data['reducible']} for type {want}")
    if len(data["singular_points"]) != TANGENCY_COUNT[want]:
        problems.append(f"{len(data['singular_points'])} singular points "
                        f"for type {want}")
    if not any(c != "0" for row in data["h"] for c in row):
        problems.append("incidence form is zero")
    return problems


def polar_rank(F, n, coeffs):
    """Rank of the alternating polar form of a char-2 quadratic form given
    as {(i, j): value} with i <= j."""
    m = [[0] * n for _ in range(n)]
    for (i, j), v in coeffs.items():
        if i != j:
            m[i][j] = F.add(m[i][j], v)
            m[j][i] = F.add(m[j][i], v)
    return rank(F, m)


def check_char2(data, F, n, coeffs):
    want = polar_rank(F, n, coeffs)
    if 2 * data["l"] != want:
        return [f"2l = {2 * data['l']}, polar form has rank {want}"]
    return []


def check_points_on_pair(points, F, outer, inner):
    """Each intersection point [spec, coords, multiplicity] lies on both
    conics, where its field is one the oracle arithmetic covers."""
    problems = []
    for spec, coords, _ in points:
        G = _field_for(spec)
        if G is None:
            continue
        p = [G.parse(c) for c in coords]
        for conic in (outer, inner):
            m = matrix(G, [G.parse(F.render(c)) for c in conic])
            if G.dot(p, matvec(G, m, p)):
                problems.append(f"intersection point {coords} off a conic")
    return problems


def check_point_fields(points, F, outer, inner):
    """Over a prime field, a (1,1,1,1) pair's points live in fields whose
    degrees are the sizes of the Galois orbits on the four points."""
    if F.k != 1 or pencil_type(F, outer, inner) != "(1,1,1,1)":
        return []
    got = sorted((1 if spec == F.spec() else int(spec.split(":")[1].split("^")[1])
                  for spec, _, _ in points), reverse=True)
    want = sorted((k for k in split_degrees(F, outer, inner) for _ in range(k)),
                  reverse=True)
    return [] if got == want else [f"point field degrees {got}, want {want}"]


_FIELDS = {}
MAX_ORACLE_Q = 200   # the table arithmetic in gf.GF is built per field


def _field_for(spec):
    """GF for a spec, cached; None for towers porism prints as Ext(...)
    and for fields too large for table arithmetic."""
    if spec not in _FIELDS:
        size = None
        if spec.startswith("Fq:"):
            p, k = spec[3:].split(":")[0].split("^")
            size = int(p) ** int(k)
        _FIELDS[spec] = (None if size is not None and size > MAX_ORACLE_Q
                         else gf_from_spec(spec))
    return _FIELDS[spec]


# -- Q and Q(sqrt d) ---------------------------------------------------------

def q_bilinear(K, coeffs, u, v):
    """The polar bilinear form B(u, v) of a conic; B(u, u) is Q(u)."""
    half = Fraction(1, 2)
    a00, a11, a22, a01, a02, a12 = ((Fraction(c), Fraction(0)) for c in coeffs)
    hx = lambda i, j: K.mul((half, Fraction(0)),
                            K.add(K.mul(u[i], v[j]), K.mul(u[j], v[i])))
    terms = [K.mul(a00, K.mul(u[0], v[0])), K.mul(a11, K.mul(u[1], v[1])),
             K.mul(a22, K.mul(u[2], v[2])), K.mul(a01, hx(0, 1)),
             K.mul(a02, hx(0, 2)), K.mul(a12, hx(1, 2))]
    acc = (Fraction(0), Fraction(0))
    for t in terms:
        acc = K.add(acc, t)
    return acc


def check_orbit(data, outer, inner, c1, family, max_steps):
    """run JSON over Q: every emitted state re-checked with exact Q(sqrt d)
    arithmetic (c on C, d on D, c on the tangent of D at d, and c_{i+1} on
    the tangent at d_i), plus what each family guarantees."""
    problems = []
    zero = (Fraction(0), Fraction(0))
    orbit = data.get("orbit", [])
    if not orbit:
        return ["no orbit emitted"]
    K = qs_from_spec(orbit[0]["c"]["field"])
    if K is None:
        return [f"unexpected field {orbit[0]['c']['field']}"]
    if data["lifted"] != (K.d != 0):
        problems.append("lifted flag disagrees with the orbit's field")
    states = [([K.parse(x) for x in st["c"]["coords"]],
               [K.parse(x) for x in st["d"]["coords"]]) for st in orbit]
    for i, (c, d) in enumerate(states):
        if q_bilinear(K, outer, c, c) != zero:
            problems.append(f"c{i + 1} is off the outer conic")
        if q_bilinear(K, inner, d, d) != zero:
            problems.append(f"d{i + 1} is off the inner conic")
        if q_bilinear(K, inner, d, c) != zero:
            problems.append(f"c{i + 1} is off the tangent at d{i + 1}")
        nxt = i + 1 if i + 1 < len(states) else (
            0 if data["outcome"] == "closed" else None)
        if nxt is not None and q_bilinear(K, inner, d, states[nxt][0]) != zero:
            problems.append(f"c{nxt + 1} is off the tangent at d{i + 1}")
    first = states[0][0]
    want = [(Fraction(x), Fraction(0)) for x in c1]
    if any(K.sub(K.mul(first[i], want[j]), K.mul(first[j], want[i])) != zero
           for i in range(3) for j in range(3)):
        problems.append("the orbit does not start at c1")
    if data["outcome"] == "closed":
        if len(states) != data["period"]:
            problems.append(f"{len(states)} states for period {data['period']}")
    elif len(states) != min(max_steps, 63) + 1 or data["steps"] != max_steps:
        problems.append(f"open run with {len(states)} states, "
                        f"{data['steps']} steps")
    if family == "osculating":
        if data["outcome"] != "open":
            problems.append("an osculating pair closed over Q")
        if data["type"] not in ("(3,1)", "(4)"):
            problems.append(f"osculating pair classified {data['type']}")
    elif family in ("euler", "fuss"):
        want_period = 3 if family == "euler" else 4
        if data["outcome"] != "closed" or data["period"] != want_period:
            problems.append(f"{family} pair gave {data['outcome']} "
                            f"period {data['period']}")
    elif data["type"] != "(1,1,1,1)":
        problems.append(f"generic circle pair classified {data['type']}")
    return problems
