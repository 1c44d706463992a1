"""The Poncelet process as an exact iterated map on pairs (c, d).

A state holds c on the outer conic C and d on the inner conic D with c on
the tangent of D at d.  Everything runs on the raw parameters (u, v) of
the incidence curve E that ``ecurve`` builds.  A start is a root v of E's
fiber over c1's parameter u, solved by ``_fiber_roots`` for ``start``,
``run`` and ``porism_check`` alike, on E's lift to the quadratic extension
when the two roots are conjugate.  The walk is then nu = sigma o tau on
(u, v): both involutions are Vieta on a fiber, so everything stays in one
field.  The step map is invertible, so orbit closure is detected by first
return to the initial state.  The geometric ``step``, on ``polar`` and
``other_intersection``, is the walk's reference; the tests keep the
start's (``intersect_line_conic`` on the polar) and ``step_inverse`` in
``tests/reference.py``.  As sigma nu sigma = nu^-1, a ``porism_check`` walk
settles every start whose u it meets; a lifted start's goes half way round.
"""

import random
from copy import copy
from dataclasses import dataclass, field as dc_field

from .ecurve import _fibers, _incidence_rows
from .errors import NotOnConicError, TheoremViolation
from .poly import _monic_quadratic_roots
from .projective import (_canonical, _point, _values,
                         _type_and_tangencies, other_intersection, parametrize,
                         polar, tangent_at, find_point)

DEFAULT_MAX_STEPS_CHAR0 = 10000
# States of a run kept in its result, and so printed by ``porism run``
KEEP_ORBIT = 64


class PonceletConfig:
    """A validated pair of smooth distinct conics with cached tangency data."""

    __slots__ = ("outer", "inner", "field", "tangencies", "intersection_type",
                 "inner_par")

    def __init__(self, outer, inner, seed=0):
        if outer.field.char == 2:
            raise ValueError(
                "the Poncelet process cannot be defined in characteristic two: "
                "all tangents of the inner conic pass through one point")
        self.outer = outer
        self.inner = inner
        self.field = outer.field
        # inner_par, over the pair's field, is the one E is pulled back along
        self.intersection_type, self.tangencies, self.inner_par = \
            _type_and_tangencies(outer, inner, seed)

    def in_field_tangencies(self):
        return [p for p in self.tangencies if p.field == self.field]

    def lift(self, new_field):
        """This pair over ``new_field``."""
        lifted = copy(self)
        lifted.outer = self.outer.lift(new_field)
        lifted.inner = self.inner.lift(new_field)
        lifted.field = new_field
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
    """Initial state for the process: d1 with L(c1, d1) tangent to the inner
    conic, on the pair lifted one quadratic step when the two candidates are
    conjugate: (possibly lifted config, state, lifted flag)."""
    E, initial = _start_through(cfg, c1, branch)
    lifted = E.field != cfg.field
    return cfg.lift(E.field) if lifted else cfg, _state(E, initial, 1), lifted


def _start_through(cfg, c1, branch):
    """E pulled back along the outer conic's parametrization through c1, and
    the root over c1's parameter u whose contact point sorts first (min) or
    last (max): (E or its lift, raw (u, v))."""
    if branch not in ("min", "max"):
        raise ValueError("branch must be 'min' or 'max'")
    if not cfg.outer.contains(c1):
        raise NotOnConicError("initial point must lie on the outer conic")
    E = _Incidence(cfg, parametrize(cfg.outer, c1))
    E, u, vs = _fiber_roots(E, E.outer[1](_values(c1)), {})
    point_at, key = E.inner[0], E.field._sort_key
    pick = min if branch == "min" else max
    return E, (u, pick(vs, key=lambda v: tuple(map(key, point_at(v)))))


def _fiber_roots(E, u, curves):
    """The roots over E's raw parameter u: (E, or its lift when the roots are
    conjugate, kept in ``curves`` per field, u on it, and the raw roots v of
    E's fiber C w^2 + B sw + A s^2 over u).  For C != 0 the roots (1 : w)
    are ``_monic_quadratic_roots``'; for C = 0 they are (0 : 1) and its
    Vieta partner, which E's involution gives."""
    field, (c, b, a) = E.field, E.fibers[0](u)
    zero, one = field.zero.value, field.one.value
    if c == zero:
        other, mono = E.fibers[2:]
        p = zero, one
        ext, vs = field, [p, other(1, mono(u), p, mono(p), False)[0]]
    else:
        s = field._inv(c)
        ext, ws = _monic_quadratic_roots(field, field._mul(a, s), field._mul(b, s))
        vs = [(ext.one.value, w) for w in ws]
    if ext != field:
        if ext not in curves:
            curves[ext] = E.lift(ext)
        E, u = curves[ext], tuple((x, zero) for x in u)
    return E, u, vs


def _state(E, uv, index):
    """The state at E's raw parameters uv = (u, v), as points."""
    (u, v), field = uv, E.field
    return PonceletState(_point(field, E.outer[0](u)),
                         _point(field, E.inner[0](v)), index)


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
    E, initial = _start_through(cfg, c1, branch)
    period, kept, _ = _orbit(E, initial, max_steps, keep_orbit)
    orbit = [_state(E, uv, i)
             for i, uv in enumerate(([initial] + kept)[:keep_orbit], start=1)]
    return ProcessResult("closed" if period else "open", period=period,
                         steps=period or max_steps, lifted=E.field != cfg.field,
                         orbit=orbit)


def _step_budget(cfg, max_steps):
    if max_steps is None:
        return cfg.default_max_steps()
    if max_steps < 0:
        raise ValueError("max_steps must be at least 0")
    return max_steps


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
    (u, v) of the states with index 2 .. keep, and the set of u's of
    ``watch`` the walk met).  sigma fixes u and sigma nu sigma = nu^-1, so
    both states over a met u have this walk's period, closed or open; the
    tangency canary covers only the walked states.

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
    - The u's of the cycle that lie in K, all that a start of
      ``porism_check`` can have, are u_0 and, for even n, u_{n/2}, the
      last one walked, which ``watch`` sees before the walk stops.
    A canonical (a : b) has a = 0 or 1, so it lies in K when b's second
    raw component is K's zero."""
    other, mono = E.fibers[2:]
    singular = E.singular
    kzero = E.field.zero.value[1] if fold else None
    u, v = initial
    mu, mv = mono(u), mono(v)
    kept, met = [], set()
    for i in range(1, max_steps + 1):
        u, mu = other(0, mv, u, mu)
        v, mv = other(1, mu, v, mv)
        state = (u, v)
        if state == initial:
            return i, kept, met
        if watch and u in watch:
            met.add(u)
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
    """Run the process from several non-tangency starts and check the
    all-or-nothing law: every closed run shares one period, and runs either
    all close or all stay open.  An osculating pair, of type (3,1) or (4),
    over a finite field obeys the stronger law that every start closes
    after exactly char steps, so within a budget below char every start
    stays open.

    Every start is solved first, on E pulled back along the draw's
    parametrization, whose drawn parameters are the starts' u.  sigma swaps
    the two roots v over u and sigma nu sigma = nu^-1, so both have one
    period.  Each start no walk has met is walked from its first root, and
    the walk, closed or open, settles every start whose u it meets over an
    equal field; an open walk's tangency canary covers only its prefix.  A
    lifted start is walked only to its Galois mirror (``_orbit``'s
    ``fold``)."""
    par, params = _sample_starts(cfg, num_starts, seed)
    max_steps = _step_budget(cfg, max_steps)
    base = _Incidence(cfg, par)
    # field -> E's lift over it, and -> {raw u: index} of its unsettled starts
    curves, watches, solved = {}, {}, []
    for u in params:
        E, u, vs = _fiber_roots(base, u, curves)
        watches.setdefault(E.field, {})[u] = len(solved)
        solved.append((E, (u, vs[0])))
    periods = [None] * len(solved)
    for i, (E, initial) in enumerate(solved):
        watch = watches[E.field]
        if watch.pop(initial[0], None) is None:
            continue  # settled by an earlier walk
        periods[i], _, met = _orbit(E, initial, max_steps, 0, watch,
                                    E.field != cfg.field)
        for u in met:
            periods[watch.pop(u)] = periods[i]
    closed = [p for p in periods if p]
    opened = [p for p in periods if not p]
    char = cfg.field.char
    if cfg.intersection_type in ((3, 1), (4,)) and cfg.field.size is not None:
        passed = set(periods) <= {char if max_steps >= char else 0}
    else:
        passed = len(set(closed)) <= 1 and (not closed or not opened)
    return PorismReport(cfg.intersection_type, periods,
                        len(closed), len(opened), passed)
