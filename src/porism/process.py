"""The Poncelet process as an exact iterated map on pairs (c, d).

A state holds c on the outer conic C and d on the inner conic D with c on
the tangent of D at d.  ``start`` solves for the initial contact point d1
on raw values, lifting the pair one quadratic step when the two candidates
are conjugate; ``porism_check`` solves its starts on E's fiber instead.
The walk is then nu = sigma o tau on E's raw parameters (u, v), the step
of the incidence curve ``ecurve`` builds: both involutions are Vieta on a
fiber, so everything stays in one field.  The step map is invertible, so
orbit closure is detected by first return to the initial state.  The
geometric ``step``, on ``polar`` and ``other_intersection``, is the walk's
reference; the tests keep the start's (``intersect_line_conic`` on the
polar) and ``step_inverse`` in ``tests/reference.py``.  ``porism_check``
walks each closed cycle once, however many of its starts lie on it, and a
lifted start's half way round.
"""

import random
from copy import copy
from dataclasses import dataclass, field as dc_field

from .ecurve import _fibers, _incidence_rows
from .errors import ExtensionOverflowError, NotOnConicError, TheoremViolation
from .poly import _monic_quadratic_roots
from .projective import (_canonical, _point, _span, _values,
                         _type_and_tangencies, other_intersection, parametrize,
                         polar, tangent_at, find_point)

DEFAULT_MAX_STEPS_CHAR0 = 10000
# States of a run kept in its result, and so printed by ``porism run``
KEEP_ORBIT = 64


class PonceletConfig:
    """A validated pair of smooth distinct conics with cached tangency data."""

    __slots__ = ("outer", "inner", "field", "tangencies", "intersection_type",
                 "inner_par", "_lifted")

    def __init__(self, outer, inner, seed=0):
        if outer.field.char == 2:
            raise ValueError(
                "the Poncelet process cannot be defined in characteristic two: "
                "all tangents of the inner conic pass through one point")
        self.outer = outer
        self.inner = inner
        self.field = outer.field
        self._lifted = None
        # inner_par, over the pair's field, is the one E is pulled back along
        self.intersection_type, self.tangencies, self.inner_par = \
            _type_and_tangencies(outer, inner, seed)

    def in_field_tangencies(self):
        return [p for p in self.tangencies if p.field == self.field]

    def lift(self, new_field):
        """This pair over ``new_field``, kept and reused for an equal field."""
        if self._lifted is not None and self._lifted.field == new_field:
            return self._lifted
        lifted = self._lifted = PonceletConfig.__new__(PonceletConfig)
        lifted._lifted = None
        lifted.outer = self.outer.lift(new_field)
        lifted.inner = self.inner.lift(new_field)
        lifted.field = new_field
        lifted.intersection_type = self.intersection_type
        lifted.inner_par = self.inner_par
        lifted.tangencies = [p.lift(new_field) if new_field.contains(p.field)
                             else p for p in self.tangencies]
        return lifted

    def default_max_steps(self):
        if self.field.size is None:
            return DEFAULT_MAX_STEPS_CHAR0
        return 10 * self.field.char


@dataclass(frozen=True)
class PonceletState:
    c: object  # ProjPoint on the outer conic
    d: object  # ProjPoint on the inner conic
    index: int = 1

    def same_pair(self, other):
        return self.c == other.c and self.d == other.d


@dataclass
class ProcessResult:
    outcome: str            # "closed" | "open"
    period: int = 0
    steps: int = 0
    lifted: bool = False
    orbit: list = dc_field(default_factory=list)  # bounded prefix of states


def start(cfg, c1, branch="min"):
    """Initial state for the process: pick d1 with L(c1, d1) tangent to the
    inner conic.  If the two candidates are conjugate over the working field
    the whole configuration is lifted one quadratic step first.  ``_start``,
    read and returned as points: (possibly lifted config, state, lifted flag)."""
    if branch not in ("min", "max"):
        raise ValueError("branch must be 'min' or 'max'")
    if not cfg.outer.contains(c1):
        raise NotOnConicError("initial point must lie on the outer conic")
    new_cfg, (c, d) = _start(cfg, _values(c1), branch)
    ext = new_cfg.field
    return new_cfg, PonceletState(_point(ext, c), _point(ext, d), 1), ext != cfg.field


def _start(cfg, c1, branch="min"):
    """``start`` on raw values: (possibly lifted config, raw (c1, d1)).  d1 is
    a root of F on the polar of c1, a binary quadratic made monic and solved
    by ``_quadratic_roots``, or p0 at a drop in degree; the tests check it
    against ``intersect_line_conic`` on the polar."""
    field, zero = cfg.field, cfg.field.zero.value
    grad, value = cfg.inner._forms()
    # the polar of c1 is its gradient line; span it as ProjLine.span does
    p0, p1 = _span(field, grad(c1))
    # F(t p0 + p1) = alpha t^2 + beta t + gamma, with p0 at t = infinity
    ext, ts, at_p0 = _quadratic_roots(
        field, value(p0), field._dot(grad(p0), p1), value(p1))
    if ext is not field:
        # conjugate roots: both candidates already lie in ext
        p0, p1, c1 = (tuple((v, zero) for v in p) for p in (p0, p1, c1))
        cfg = cfg.lift(ext)
    add, mul = ext._add, ext._mul
    pts = [_canonical(ext, [add(mul(t, a), b) for a, b in zip(p0, p1)])
           for t in ts]
    if at_p0:
        pts.append(p0)
    pts.sort(key=lambda p: tuple(map(ext._sort_key, p)))
    return cfg, (c1, pts[0] if branch == "min" else pts[-1])


def _quadratic_roots(field, a, b, c):
    """(field, finite roots t, whether t = infinity is one) of a t^2 + b t
    + c: ``poly._monic_quadratic_roots``, over K's quadratic extension when
    conjugate, or -c/b and infinity for a = 0."""
    zero, mul, inv = field.zero.value, field._mul, field._inv
    if a != zero:
        s = inv(a)
        return (*_monic_quadratic_roots(field, mul(c, s), mul(b, s)), False)
    if b == zero == c:
        raise ValueError("fiber quadratic vanishes identically")
    return field, [mul(field._neg(c), inv(b))] if b != zero else [], True


def is_tangency_state(cfg, state):
    """True when c = d is a point where the two conics are tangent.  Note
    that c = d at a transversal intersection point is a regular state."""
    return (state.c == state.d
            and tangent_at(cfg.outer, state.c) == tangent_at(cfg.inner, state.d))


def step(cfg, state):
    """One Poncelet step; tangency states are fixed points."""
    if is_tangency_state(cfg, state):
        return PonceletState(state.c, state.d, state.index + 1)
    line = tangent_at(cfg.inner, state.d)
    c2 = other_intersection(cfg.outer, line, state.c)
    d2 = other_intersection(cfg.inner, polar(cfg.inner, c2), state.d)
    return PonceletState(c2, d2, state.index + 1)


def run(cfg, c1, branch="min", max_steps=None, keep_orbit=KEEP_ORBIT):
    """Iterate the process from c1 until the initial state recurs.

    The step map is a bijection, so the orbit is a pure cycle and comparing
    against the initial state alone detects the period.  The orbit is
    iterated as nu on E's raw parameters (``_orbit``), with the outer conic
    parametrized through c1; ``step`` is the reference it reproduces, and
    states are built only for the kept prefix.
    """
    max_steps = _step_budget(cfg, max_steps)
    lifted_cfg, initial, lifted = start(cfg, c1, branch)
    E = _Incidence(cfg, parametrize(cfg.outer, c1))
    if lifted:
        E = E.lift(lifted_cfg.field)
    (c, d), field = _raw_state(initial), E.field
    period, kept, _ = _orbit(E, (E.outer[1](c), E.inner[1](d)), max_steps,
                             keep_orbit)
    orbit = [initial] + [
        PonceletState(_point(field, E.outer[0](u)),
                      _point(field, E.inner[0](v)), i)
        for i, (u, v) in enumerate(kept, start=2)]
    return ProcessResult("closed" if period else "open", period=period,
                         steps=period or max_steps, lifted=lifted,
                         orbit=orbit[:keep_orbit])


def _step_budget(cfg, max_steps):
    if max_steps is None:
        return cfg.default_max_steps()
    if max_steps < 0:
        raise ValueError("max_steps must be at least 0")
    return max_steps


def _raw_state(state):
    return _values(state.c), _values(state.d)


class _Incidence:
    """E of ``cfg``'s pair, pulled back along ``outer_par`` and the config's
    ``inner_par``, on raw values over cfg's field K: E's raw rows ``h``, its
    ``fibers`` and involution, the raw (``point_at``, ``param_of``) of both
    parametrizations, and E's singular points, the tangency points' (u, v).
    ``lift`` moves it to K's quadratic extension."""

    __slots__ = ("field", "h", "fibers", "outer", "inner", "singular",
                 "_tangencies", "_pars")

    def __init__(self, cfg, outer_par):
        self._tangencies, self._pars = cfg.tangencies, (outer_par, cfg.inner_par)
        self._build(cfg.field, _incidence_rows(cfg.inner, outer_par,
                                               cfg.inner_par), None, set())

    def lift(self, ext):
        """This E over K's quadratic extension ``ext``, each K-value v of its
        rows and singular points embedded once, as (v, K's zero)."""
        base, zero, lifted = self.field, self.field.zero.value, copy(self)
        lifted._build(ext, [[(v, zero) for v in row] for row in self.h],
                      lambda c: (base(c).value, zero),
                      {tuple(tuple((x, zero) for x in t) for t in p)
                       for p in self.singular})
        return lifted

    def _build(self, field, h, embed, singular):
        """E over ``field``: tangencies over it join ``singular``."""
        self.field, self.h, self.fibers = field, h, _fibers(field, h)
        self.outer, self.inner = (par._maps(field, embed) for par in self._pars)
        self.singular = singular | {
            (self.outer[1](t), self.inner[1](t))
            for t in (_values(p) for p in self._tangencies if p.field == field)}


def _orbit(E, initial, max_steps, keep, watch=(), fold=False):
    """nu = sigma o tau on ``E`` (an ``_Incidence``) from the raw parameters
    ``initial`` = (u, v) of a state (c, d); ``step`` is its reference.  tau
    moves c along the tangent at d and sigma moves d to the other contact
    point seen from c, each by E's involution, which checks that its known
    root is a root of its fiber; each parameter's monomials ride along, in
    (u, mu, v, mv).  A tangency start is a singular point of E, fixed by
    nu, so it closes at step 1; any other orbit meeting one is a theorem
    violation.  Returns (period, or 0 if the orbit stays open, the raw
    (u, v) of the states with index 2 .. keep, and the raw states of
    ``watch`` that the walk met, in the order met).

    ``fold`` is for a lifted start P = (u1, v1): c1 in the base field K, d1
    conjugate, and ``E`` over K's quadratic extension.  Both involutions
    are defined over K, so they commute with the Galois involution phi, and
    phi(P) = sigma(P).  Write Q_k = nu^k(P) = (u_k, v_k).
    - sigma nu^k sigma = nu^{-k} gives phi(Q_k) = sigma(Q_{-k}), so
      phi(u_k) = u_{-k}; and sigma(Q_{k+1}) = tau(Q_k) gives
      phi(v_k) = v_{-k-1}.
    - This needs both parametrizations over K: then E's form is, and u_k
      lies in K iff c_k does, and v_k iff d_k does.  A parametrization
      through the conjugate d1 would give neither.
    - So u_k lies in K iff Q_k = Q_{-k}, that is iff the period n divides
      2k, and v_k lies in K iff Q_k = Q_{-k-1}, that is iff n divides
      2k + 1.  The other state with the same u, or the same v, would give
      P = sigma(P), but d1 is not in K.
    - Unless Q_k = P closes first (n = 1), the first k >= 1 with u_k in K
      gives n = 2k and the first with v_k in K gives n = 2k + 1.  The walk
      stops there, at k = floor(n/2), and returns n if n <= max_steps,
      else 0: the verdict of the whole walk.
    - Every unwalked state Q_{-j} is phi sigma(Q_j), so the incidence
      checks and the tangency canary on the walked half hold for the other
      half.
    - The states of the cycle whose u lies in K, all that a start of
      ``porism_check`` can be, are P and, for even n, the last one walked,
      which ``watch`` sees before the walk stops.
    A canonical (a : b) has a = 0 or 1, so it lies in K when b's second
    raw component is K's zero."""
    other, mono = E.fibers[2:]
    singular = E.singular
    kzero = E.field.zero.value[1] if fold else None
    u, v = initial
    mu, mv = mono(u), mono(v)
    kept, met = [], []
    for i in range(1, max_steps + 1):
        u, mu = other(0, mv, u, mu)
        v, mv = other(1, mu, v, mv)
        state = (u, v)
        if state == initial:
            return i, kept, met
        if watch and state in watch:
            met.append(state)
        if singular and state in singular:
            raise TheoremViolation(
                "orbit of a non-tangency start hit a tangency point; "
                "this contradicts invertibility of the step map")
        if i < keep:
            kept.append(state)
        if fold:
            n = 2 * i if u[1][1] == kzero else 2 * i + 1 if v[1][1] == kzero else 0
            if n:
                return (n if n <= max_steps else 0), kept, met
    return 0, kept, met


def sample_starts(cfg, num_starts, seed):
    """Deterministic sample of points of the outer conic away from the
    tangency points, via the conic's parametrization: ``_sample_starts``'
    parameters mapped to points."""
    par, params = _sample_starts(cfg, num_starts, seed)
    point_at = par._maps(cfg.field)[0]
    return [_point(cfg.field, point_at(u)) for u in params]


def _sample_starts(cfg, num_starts, seed):
    """The outer conic's parametrization through ``find_point`` and the
    sampled starts' raw parameters: drawn (a : b), canonical and not a
    tangency's."""
    if num_starts < 1:
        raise ValueError("num_starts must be at least 1")
    rng = random.Random(seed)
    par = parametrize(cfg.outer, find_point(cfg.outer, seed))
    field = cfg.field
    one, zero = field.one.value, field.zero.value
    param_of = par._maps(field)[1]
    excluded = {param_of(_values(p)) for p in cfg.in_field_tangencies()}
    if field.size is not None:
        # the shuffle of [infinity, affine(element(0)), ...] moves indices,
        # so shuffle the indices and reach only the parameters it visits
        order = list(range(field.size + 1))
        rng.shuffle(order)
        params = ((field.element(i - 1).value, one) if i else (one, zero)
                  for i in order)
    else:
        # 4 num_starts + 8 distinct draws n/d with |n| <= 50, 1 <= d <= 11,
        # of which there are 719
        if 4 * num_starts + 8 > 719:
            raise ValueError("num_starts must be at most 177 over Q and Q(sqrt d)")
        from fractions import Fraction
        seen = set()
        while len(seen) < 4 * num_starts + 8:
            seen.add(Fraction(rng.randrange(-50, 51), rng.randrange(1, 12)))
        params = [(one, zero)] + [(field(v).value, one) for v in sorted(seen)]
    out = []
    for t in params:
        t = _canonical(field, t)
        if t not in excluded:
            out.append(t)
            if len(out) == num_starts:
                break
    return par, out


@dataclass
class PorismReport:
    intersection_type: tuple
    periods: list          # observed period (0 for open) per start
    num_closed: int
    num_open: int
    passed: bool

    def period_spectrum(self):
        return sorted({p for p in self.periods if p})


def porism_check(cfg, num_starts=10, max_steps=None, seed=0):
    """Run the process, on the min branch, from several non-tangency starts
    and check the all-or-nothing law: every closed run shares one period,
    and runs either all close or all stay open.  An osculating pair, of
    type (3,1) or (4), over a finite field obeys the stronger law that
    every start closes after exactly char steps, so within a budget below
    char every start stays open.

    Every start is solved first.  A closed walk meets every state of its
    cycle that a start can be, so each later start it meets over an equal
    field has its period and is not walked; an open walk is a prefix and
    settles only its own start.  A lifted start is walked only to its
    Galois mirror (``_orbit``'s ``fold``).  Starts are walked on E pulled
    back along the draw's parametrization, whose drawn parameters are the
    starts' u; a start's v is the fiber's root, on E's lift if conjugate,
    whose contact point sorts first (``start``'s min branch).  Over Q the
    lift is named by the fiber's discriminant, not the polar's."""
    par, params = _sample_starts(cfg, num_starts, seed)
    max_steps = _step_budget(cfg, max_steps)
    base = _Incidence(cfg, par)
    in_v, zero, one = base.fibers[0], cfg.field.zero.value, cfg.field.one.value
    # field -> (E, {raw initial (u, v): index} of its unsettled starts)
    curves, solved = {cfg.field: (base, {})}, []
    for u in params:
        # E's fiber over u is C w^2 + B sw + A s^2 in v = (s : w)
        try:
            ext, ws, at_zero = _quadratic_roots(cfg.field, *in_v(u))
        except ExtensionOverflowError:
            _start(cfg, base.outer[0](u))  # raises start's own message
            raise
        vs = [(ext.one.value, w) for w in ws] + [(zero, one)] * at_zero
        if ext not in curves:
            curves[ext] = base.lift(ext), {}
        E, watch = curves[ext]
        if ext != cfg.field:
            u = tuple((x, zero) for x in u)
        point_at, key = E.inner[0], ext._sort_key
        initial = u, min(vs, key=lambda v: tuple(map(key, point_at(v))))
        watch[initial] = len(solved)
        solved.append((E, initial))
    periods = [None] * len(solved)
    for i, (E, initial) in enumerate(solved):
        if periods[i] is not None:
            continue
        watch = curves[E.field][1]
        del watch[initial]
        periods[i], _, met = _orbit(E, initial, max_steps, 0, watch,
                                    E.field != cfg.field)
        if periods[i]:
            for state in met:
                periods[watch.pop(state)] = periods[i]
    closed = [p for p in periods if p]
    opened = [p for p in periods if not p]
    char = cfg.field.char
    if cfg.intersection_type in ((3, 1), (4,)) and cfg.field.size is not None:
        passed = set(periods) <= {char if max_steps >= char else 0}
    else:
        passed = len(set(closed)) <= 1 and (not closed or not opened)
    return PorismReport(cfg.intersection_type, periods,
                        len(closed), len(opened), passed)
