"""The Poncelet process as an exact iterated map on pairs (c, d).

A state holds c on the outer conic C and d on the inner conic D with c on
the tangent of D at d.  One step takes the second intersection of the
current tangent line with C, then the second contact point of D seen from
the new c -- both by Vieta, so after the (possibly lifting) initial branch
choice everything stays in one field.  The step map is invertible, so orbit
closure is detected by first return to the initial state.  ``start`` solves
for the initial contact point and ``run`` iterates the step, both on raw
field values; ``polar``/``intersect_line_conic`` and the geometric ``step``
and ``step_inverse`` are their reference.  The raw geometry they use (the
conic's gradient and value, the canonical scale, the span of a line) is
``projective``'s own, so this module keeps none of its own.  ``porism_check``
keeps its starts raw from draw to verdict, walks each closed cycle once,
however many of its starts lie on it, and a lifted start's half way round.
"""

import random
from dataclasses import dataclass, field as dc_field

from .errors import DegenerateInputError, NotOnConicError, TheoremViolation
from .poly import _monic_quadratic_roots
from .projective import (_canonical, _point, _span,
                         _type_and_tangencies, other_intersection, parametrize,
                         polar, tangent_at, find_point)

DEFAULT_MAX_STEPS_CHAR0 = 10000
# States of a run kept in its result, and so printed by ``porism run``
KEEP_ORBIT = 64


class PonceletConfig:
    """A validated pair of smooth distinct conics with cached tangency data."""

    __slots__ = ("outer", "inner", "field", "tangencies", "intersection_type",
                 "_lifted")

    def __init__(self, outer, inner, seed=0):
        if outer.field.char == 2:
            raise ValueError(
                "the Poncelet process cannot be defined in characteristic two: "
                "all tangents of the inner conic pass through one point")
        self.outer = outer
        self.inner = inner
        self.field = outer.field
        self._lifted = None
        self.intersection_type, self.tangencies = _type_and_tangencies(
            outer, inner, seed)

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
    new_cfg, (c, d) = _start(cfg, tuple(v.value for v in c1.coords), branch)
    ext = new_cfg.field
    return new_cfg, PonceletState(_point(ext, c), _point(ext, d), 1), ext != cfg.field


def _start(cfg, c1, branch="min"):
    """``start`` on raw values: (possibly lifted config, raw (c1, d1)).  d1 is
    a root of F on the polar of c1, a binary quadratic made monic and solved
    by ``poly._monic_quadratic_roots``, or p0 at a drop in degree;
    ``polar``/``intersect_line_conic`` are the reference."""
    field = cfg.field
    zero, mul = field.zero.value, field._mul
    grad, value = cfg.inner._forms()
    # the polar of c1 is its gradient line; span it as ProjLine.span does
    p0, p1 = _span(field, grad(c1))
    # F(t p0 + p1) = alpha t^2 + beta t + gamma
    alpha, beta, gamma = value(p0), field._dot(grad(p0), p1), value(p1)
    if alpha != zero:
        inv = field._inv(alpha)
        ext, ts = _monic_quadratic_roots(field, mul(gamma, inv), mul(beta, inv))
    else:
        ext, ts = field, [] if beta == zero else [
            mul(field._neg(gamma), field._inv(beta))]
    if ext is not field:
        # conjugate roots: both candidates already lie in ext
        p0, p1, c1 = (tuple((v, zero) for v in p) for p in (p0, p1, c1))
        cfg = cfg.lift(ext)
    add, mul = ext._add, ext._mul
    pts = [_canonical(ext, [add(mul(t, a), b) for a, b in zip(p0, p1)])
           for t in ts]
    if alpha == zero:
        pts.append(p0)
    pts.sort(key=lambda p: tuple(map(ext._sort_key, p)))
    return cfg, (c1, pts[0] if branch == "min" else pts[-1])


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


def step_inverse(cfg, state):
    """The inverse map (the two involutions applied in the other order)."""
    if is_tangency_state(cfg, state):
        return PonceletState(state.c, state.d, state.index - 1)
    d0 = other_intersection(cfg.inner, polar(cfg.inner, state.c), state.d)
    c0 = other_intersection(cfg.outer, tangent_at(cfg.inner, d0), state.c)
    return PonceletState(c0, d0, state.index - 1)


def run(cfg, c1, branch="min", max_steps=None, keep_orbit=KEEP_ORBIT):
    """Iterate the process from c1 until the initial state recurs.

    The step map is a bijection, so the orbit is a pure cycle and comparing
    against the initial state alone detects the period.  The orbit is
    iterated on raw field values (``_orbit``); ``step`` is the reference it
    reproduces, and states are built only for the kept prefix.
    """
    max_steps = _step_budget(cfg, max_steps)
    cfg, initial, lifted = start(cfg, c1, branch)
    period, kept, _ = _orbit(cfg, _raw_state(initial), max_steps, keep_orbit)
    orbit = [initial] + [
        PonceletState(_point(cfg.field, c), _point(cfg.field, d), i)
        for i, (c, d) in enumerate(kept, start=2)]
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
    return (tuple(v.value for v in state.c.coords),
            tuple(v.value for v in state.d.coords))


def _orbit(cfg, initial, max_steps, keep, watch=(), fold=False):
    """``step`` iterated from the raw state ``initial`` = (c, d) on tuples of
    raw field values, with the same incidence checks.  A tangency start is
    fixed by the step, so it closes at step 1; any other orbit meeting a
    tangency state is a theorem violation.  Returns (period, or 0 if the
    orbit stays open, the raw (c, d) pairs of the states with index
    2 .. keep, and the raw states of ``watch`` that the walk met, in the
    order met).

    ``fold`` is for a lifted start P = (c1, d1): c1 in the base field K,
    d1 conjugate, and ``cfg`` over K's quadratic extension.  The step is
    nu = tau o sigma, where sigma moves c along the tangent at d and tau
    moves d to the other contact point seen from c.  Both involutions are
    defined over K, so they commute with the Galois involution phi, and
    phi(P) = tau(P).  Write Q_k = nu^k(P) = (c_k, d_k).
    - tau nu^k tau = nu^{-k} gives phi(Q_k) = tau(Q_{-k}), so
      phi(c_k) = c_{-k}; and sigma(Q_k) = tau(Q_{k+1}) gives
      phi(d_k) = d_{-k-1}.
    - So c_k lies in K iff Q_k = Q_{-k}, that is iff the period n divides
      2k, and d_k lies in K iff Q_k = Q_{-k-1}, that is iff n divides
      2k + 1.  The other state with the same c, or the same d, would give
      P = tau(P), but d1 is not in K.
    - Unless Q_k = P closes first (n = 1), the first k >= 1 with c_k in K
      gives n = 2k and the first with d_k in K gives n = 2k + 1.  The walk
      stops there, at k = floor(n/2), and returns n if n <= max_steps,
      else 0: the verdict of the whole walk.
    - Every unwalked state Q_{-j} is phi tau(Q_j), so the incidence checks
      and the tangency canary on the walked half hold for the other half.
    - The states of the cycle whose c lies in K, all that a start of
      ``porism_check`` can be, are P and, for even n, the last one walked,
      which ``watch`` sees before the walk stops.
    A coordinate lies in K when its second raw component is K's zero."""
    field = cfg.field
    mul, neg, dot = field._mul, field._neg, field._dot
    zero, one = field.zero.value, field.one.value
    kzero = zero[1] if fold else None

    def in_k(p):
        return p[0][1] == kzero and p[1][1] == kzero and p[2][1] == kzero

    def other(value, g, line, p):
        # Second point of line /\ conic through the canonical point p, with
        # g = grad(p): Vieta on p and o = line x e_k, where p_k = 1.
        if dot(g, p) != zero or dot(line, p) != zero:
            raise DegenerateInputError(
                "known point must lie on both the line and the conic")
        l0, l1, l2 = line
        if p[0] == one:
            o = (zero, l2, neg(l1))
        elif p[1] == one:
            o = (neg(l2), zero, l0)
        else:
            o = (l1, neg(l0), zero)
        beta = dot(g, o)
        if beta == zero:
            return p
        w = (neg(value(o)), beta)
        return _canonical(field, [dot(w, ab) for ab in zip(p, o)])

    grad_c, value_c = cfg.outer._forms()
    grad_d, value_d = cfg.inner._forms()
    c0, d0 = c, d = initial
    tangent = grad_d(d)
    kept, met = [], []
    for i in range(1, max_steps + 1):
        c = other(value_c, grad_c(c), tangent, c)
        d = other(value_d, tangent, grad_d(c), d)
        tangent = grad_d(d)
        if c == c0 and d == d0:
            return i, kept, met
        if watch and (c, d) in watch:
            met.append((c, d))
        if c == d:
            # the conics are tangent at c when their gradients are parallel
            g = grad_c(c)
            if all(mul(g[j], tangent[k]) == mul(g[k], tangent[j])
                   for j, k in ((0, 1), (0, 2), (1, 2))):
                raise TheoremViolation(
                    "orbit of a non-tangency start hit a tangency point; "
                    "this contradicts invertibility of the step map")
        if i < keep:
            kept.append((c, d))
        if fold:
            n = 2 * i if in_k(c) else 2 * i + 1 if in_k(d) else 0
            if n:
                return (n if n <= max_steps else 0), kept, met
    return 0, kept, met


def sample_starts(cfg, num_starts, seed):
    """Deterministic sample of points of the outer conic away from the
    tangency points, via the conic's parametrization: ``_sample_starts`` as points."""
    return [_point(cfg.field, c) for c in _sample_starts(cfg, num_starts, seed)]


def _sample_starts(cfg, num_starts, seed):
    """The sampled starts' raw coordinates: a drawn (a : b), canonical and not
    a tangency's, goes to ``point_at``'s c_r0 b^2 + c_r1 ab + c_r2 a^2."""
    if num_starts < 1:
        raise ValueError("num_starts must be at least 1")
    rng = random.Random(seed)
    par = parametrize(cfg.outer, find_point(cfg.outer, seed))
    field = cfg.field
    one, zero = field.one.value, field.zero.value
    excluded = {tuple(v.value for v in par.param_of(p).coords)
                for p in cfg.in_field_tangencies()}
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
    rows = [[c.value for c in row] for row in par.c]
    mul, dot = field._mul, field._dot
    out = []
    for t in params:
        a, b = t = _canonical(field, t)
        if t in excluded:
            continue
        ab = (mul(b, b), mul(a, b), mul(a, a))
        out.append(_canonical(field, [dot(row, ab) for row in rows]))
        if len(out) == num_starts:
            break
    return out


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
    Galois mirror (``_orbit``'s ``fold``)."""
    starts = _sample_starts(cfg, num_starts, seed)
    max_steps = _step_budget(cfg, max_steps)
    solved = [_start(cfg, c1) for c1 in starts]
    pending = {}  # field -> {raw initial state: index} of the unsettled starts
    for i, (start_cfg, initial) in enumerate(solved):
        pending.setdefault(start_cfg.field, {})[initial] = i
    periods = [None] * len(solved)
    for i, (start_cfg, initial) in enumerate(solved):
        if periods[i] is not None:
            continue
        watch = pending[start_cfg.field]
        del watch[initial]
        periods[i], _, met = _orbit(start_cfg, initial, max_steps, 0, watch,
                                    start_cfg.field != cfg.field)
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
