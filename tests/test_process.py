import random
from fractions import Fraction
from math import isqrt

import pytest

from porism.errors import NotOnConicError
from porism.fields import (PrimeField, QuadRationalField, RationalField,
                           parse_field_spec)
from porism.process import (PonceletConfig, ProcessResult, is_tangency_state,
                            porism_check, run, sample_starts, start, step,
                            step_inverse)
from porism.projective import Conic, ProjPoint, normal_form_conic

from conftest import random_smooth_pair


def make_config(field, t, a, b, seed=0):
    outer = normal_form_conic(field(t), field(a), field(b))
    inner = Conic(field, [1, 0, 0, 0, 0, -1])
    return PonceletConfig(outer, inner, seed)


def test_config_rejects_char2():
    F2 = PrimeField(2)
    c = Conic(F2, [0, 0, 0, 1, 0, 1])
    d = Conic(F2, [0, 0, 0, 1, 1, 0])
    with pytest.raises(ValueError):
        PonceletConfig(c, d)


def test_start_rejects_point_off_conic(F11):
    cfg = make_config(F11, 1, 2, 3)
    bad = next(p for p in
               (ProjPoint(F11, [1, x, 0]) for x in range(11))
               if not cfg.outer.contains(p))
    with pytest.raises(NotOnConicError):
        start(cfg, bad)


def test_step_inverse_is_inverse(F11):
    rng = random.Random(2)
    checked = 0
    while checked < 30:
        outer, inner = random_smooth_pair(F11, rng)
        cfg = PonceletConfig(outer, inner)
        for c1 in sample_starts(cfg, 3, rng.randrange(100)):
            cfg2, st, _ = start(cfg, c1)
            nxt = step(cfg2, st)
            back = step_inverse(cfg2, nxt)
            assert back.same_pair(st)
            checked += 1


def test_step_keeps_incidence(F13):
    rng = random.Random(9)
    for _ in range(15):
        outer, inner = random_smooth_pair(F13, rng)
        cfg = PonceletConfig(outer, inner)
        cfg2, st, _ = start(cfg, sample_starts(cfg, 1, rng.randrange(50))[0])
        for _ in range(6):
            st = step(cfg2, st)
            assert cfg2.outer.contains(st.c)
            assert cfg2.inner.contains(st.d)
            from porism.projective import tangent_at
            assert tangent_at(cfg2.inner, st.d).contains(st.c)


def test_tangency_states_are_fixed(F7):
    cfg = make_config(F7, 0, 1, 1)  # osculation of order four at [0:0:1]
    p = ProjPoint(F7, [0, 0, 1])
    cfg2, st, _ = start(cfg, p)
    assert is_tangency_state(cfg2, st)
    assert step(cfg2, st).same_pair(st)
    assert step_inverse(cfg2, st).same_pair(st)


def test_transversal_common_point_is_not_fixed(F11):
    # this pair meets x^2 - yz transversally, with [0:0:1] in common
    outer = Conic(F11, [1, 1, 0, 8, 5, 3])
    inner = Conic(F11, [1, 0, 0, 0, 0, -1])
    cfg = PonceletConfig(outer, inner)
    assert cfg.intersection_type == (1, 1, 1, 1)
    p = ProjPoint(F11, [0, 0, 1])
    cfg2, st, _ = start(cfg, p)
    assert not is_tangency_state(cfg2, st)
    assert not step(cfg2, st).same_pair(st)


def test_branch_choice_gives_the_two_directions(F13):
    cfg = make_config(F13, 1, 2, 3)
    c1 = sample_starts(cfg, 1, 0)[0]
    cfg_a, st_a, _ = start(cfg, c1, branch="min")
    cfg_b, st_b, _ = start(cfg, c1, branch="max")
    if st_a.d != st_b.d:
        # the two branches are inverse orbits through the same chord
        assert step(cfg_a, st_a).c == step_inverse(cfg_b, st_b).c


def test_run_detects_period(F5):
    cfg = make_config(F5, 0, 1, 1)  # type (4): every orbit has period p
    for c1 in sample_starts(cfg, 4, 1):
        res = run(cfg, c1)
        assert res.outcome == "closed"
        assert res.period == 5


def test_porism_all_or_nothing(F11):
    rng = random.Random(13)
    for _ in range(12):
        outer, inner = random_smooth_pair(F11, rng)
        cfg = PonceletConfig(outer, inner)
        report = porism_check(cfg, num_starts=6, seed=rng.randrange(100))
        assert report.passed
        assert len(report.period_spectrum()) <= 1


def test_lifting_start_branch(F7):
    # force a start whose two contact candidates are conjugate over F7
    rng = random.Random(4)
    lifted_seen = False
    for _ in range(40):
        outer, inner = random_smooth_pair(F7, rng)
        cfg = PonceletConfig(outer, inner)
        c1 = sample_starts(cfg, 1, rng.randrange(50))[0]
        cfg2, st, lifted = start(cfg, c1)
        assert cfg2.inner.contains(st.d)
        if lifted:
            lifted_seen = True
            assert cfg2.field.size == 49
    assert lifted_seen


def test_concentric_circles_euler_triangle(Q):
    # R = 4, r = 3/2, center distance d = 2 satisfies d^2 = R^2 - 2 R r,
    # so triangles close; check one run over the rationals
    outer = Conic(Q, [1, 1, -16, 0, 0, 0])
    inner = Conic(Q, [1, 1, Q(Fraction(7, 4)), 0, -4, 0])
    assert Q(2) ** 2 == Q(16) - Q(2) * Q(4) * Q(Fraction(3, 2))
    cfg = PonceletConfig(outer, inner)
    res = run(cfg, ProjPoint(Q, [4, 0, 1]), max_steps=50)
    assert res.outcome == "closed" and res.period == 3


def test_sample_starts_avoid_tangencies(F13):
    cfg = make_config(F13, 2, 7, 1)  # type (3, 1): tangency at the base point
    starts = sample_starts(cfg, 8, 3)
    assert len(starts) == 8
    for c1 in starts:
        assert cfg.outer.contains(c1)
        assert c1 not in cfg.in_field_tangencies()


def run_by_step(cfg, c1, branch="min", max_steps=None, keep_orbit=64):
    """The reference run: iterate the geometric step."""
    if max_steps is None:
        max_steps = cfg.default_max_steps()
    cfg, initial, lifted = start(cfg, c1, branch)
    at_tangency = is_tangency_state(cfg, initial)
    orbit, state = [initial], initial
    for i in range(1, max_steps + 1):
        state = step(cfg, state)
        assert at_tangency or not is_tangency_state(cfg, state)
        if state.same_pair(initial):
            return ProcessResult("closed", i, i, lifted, orbit[:keep_orbit])
        if len(orbit) < keep_orbit:
            orbit.append(state)
    return ProcessResult("open", 0, max_steps, lifted, orbit[:keep_orbit])


def assert_run_matches_step(cfg, c1, **kw):
    got, want = run(cfg, c1, **kw), run_by_step(cfg, c1, **kw)
    assert (got.outcome, got.period, got.steps, got.lifted) == \
        (want.outcome, want.period, want.steps, want.lifted)
    assert [(s.c, s.d, s.index) for s in got.orbit] == \
        [(s.c, s.d, s.index) for s in want.orbit]
    return got


@pytest.mark.parametrize("spec", ["Fp:11", "Fp:13", "Fq:3^3:1,2,0,1"])
def test_raw_orbit_matches_step_over_finite_fields(spec):
    field = parse_field_spec(spec)
    rng = random.Random(spec)
    configs = [PonceletConfig(*random_smooth_pair(field, rng)) for _ in range(8)]
    configs += [make_config(field, *tab) for tab in ((0, 1, 1), (2, 7, 1), (1, 2, 5))]
    lifted = set()  # over F_{3^3} one pair also stays open at the default budget
    for cfg in configs:
        for k, c1 in enumerate(sample_starts(cfg, 3, rng.randrange(100))):
            branch = ("min", "max")[k % 2]
            res = assert_run_matches_step(cfg, c1, branch=branch,
                                          keep_orbit=rng.choice((0, 3, 64)))
            lifted.add(res.lifted)
    assert lifted == {False, True}  # lifted F_{q^2} starts are covered too
    # a tangency start is a fixed point
    res = assert_run_matches_step(make_config(field, 0, 1, 1),
                                  ProjPoint(field, [0, 0, 1]))
    assert res.period == 1


def test_raw_orbit_matches_step_over_q_and_quadratic_fields(Q):
    seen = set()
    euler = (Conic(Q, [1, 1, -16, 0, 0, 0]),
             Conic(Q, [1, 1, Q(Fraction(7, 4)), 0, -4, 0]))
    circles = (Conic(Q, [1, 1, -16, 0, 0, 0]),
               Conic(Q, [1, 1, -1, 0, -2, 0]))   # (x-1)^2 + y^2 = 2
    osculating = [(normal_form_conic(Q(t), Q(a), Q(1)),
                   Conic(Q, [1, 0, 0, 0, 0, -1]))
                  for t, a in ((0, 1), (0, -1))]  # (0, -1) never lifts
    for n, (outer, inner) in enumerate([euler, circles] + osculating):
        cfg = PonceletConfig(outer, inner)
        for c1 in sample_starts(cfg, 3, seed=n):
            res = assert_run_matches_step(cfg, c1, max_steps=6 if n == 1 else 12)
            seen.add(type(res.orbit[0].c.field))
    assert seen == {RationalField, QuadRationalField}


@pytest.mark.parametrize("spec", ["Fq:3^3:1,2,0,1", "Fq:7^2:3,1,1"])
def test_extension_field_periods_fit_the_hasse_weil_bound(spec):
    # Smooth pairs: the step is a translation on a genus-1 curve over F_q, so
    # a period is at most q + 1 + floor(2 sqrt q), even when the start lifts.
    # Tangent pairs: the group is additive (order p) or a torus (q - 1 or
    # q + 1).  Over F_{3^3} some periods pass the default budget 10 * char.
    field = parse_field_spec(spec)
    bound = field.size + 1 + isqrt(4 * field.size)
    rng = random.Random(17)
    configs = [PonceletConfig(*random_smooth_pair(field, rng)) for _ in range(10)]
    elems = list(field.elements())
    tangent = {}
    while len(tangent) < 4:  # one pair each of (2,1,1), (2,2), (3,1), (4)
        try:
            cfg = make_config(field, *(rng.choice(elems) for _ in range(3)))
        except ValueError:
            continue
        tangent.setdefault(cfg.intersection_type, cfg)
    longest = {}
    for cfg in configs + list(tangent.values()):
        for c1 in sample_starts(cfg, 2, rng.randrange(100)):
            res = run(cfg, c1, max_steps=10 * field.size, keep_orbit=0)
            assert res.outcome == "closed" and res.period <= bound
            kind = cfg.intersection_type
            longest[kind] = max(longest.get(kind, 0), res.period)
    assert len(longest) == 5
    # pairs drawn from all elements, not from F_p only
    assert longest[(1, 1, 1, 1)] > 2 * field.char
