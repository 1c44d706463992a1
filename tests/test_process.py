import random
from fractions import Fraction
from math import isqrt

import pytest

from porism.errors import ExtensionOverflowError, NotOnConicError
from porism.fields import (FieldElement, PrimeField, QuadRationalField,
                           RationalField, _quadratic_extension,
                           parse_field_spec)
from porism.poly import binary_form_roots
from porism.process import (PonceletConfig, PonceletState, ProcessResult,
                            is_tangency_state, porism_check, run,
                            sample_starts, start, step)
from porism.projective import (Conic, P1Point, ProjPoint, _point, _span,
                               _values, find_point, normal_form_conic, parametrize,
                               polar, tangency_points)

from conftest import random_smooth_pair
from reference import intersect_line_conic, multiplicity_structure, step_inverse


def _raw_state(state):
    return _values(state.c), _values(state.d)


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
    longest = {}
    for cfg in configs + tangent_configs(field, rng):
        for c1 in sample_starts(cfg, 2, rng.randrange(100)):
            res = run(cfg, c1, max_steps=10 * field.size, keep_orbit=0)
            assert res.outcome == "closed" and res.period <= bound
            kind = cfg.intersection_type
            longest[kind] = max(longest.get(kind, 0), res.period)
    assert len(longest) == 5
    # pairs drawn from all elements, not from F_p only
    assert longest[(1, 1, 1, 1)] > 2 * field.char


def start_reference(cfg, c1, branch="min"):
    """The geometric start: the polar of c1 cut with the inner conic, and
    over the lifted field again when the contact points are conjugate."""
    candidates = intersect_line_conic(cfg.inner, polar(cfg.inner, c1))
    lifted = False
    ext = next((p.field for p, _ in candidates if p.field != cfg.field), None)
    if ext is not None:
        cfg, c1, lifted = cfg.lift(ext), c1.lift(ext), True
        candidates = intersect_line_conic(cfg.inner, polar(cfg.inner, c1))
        assert all(p.field == ext for p, _ in candidates)
    pts = sorted((p for p, _ in candidates), key=lambda p: p.sort_key())
    return cfg, PonceletState(c1, pts[0] if branch == "min" else pts[-1], 1), lifted


def assert_start_matches_reference(cfg, c1, branch):
    """start's result, or None when both it and the reference overflow."""
    try:
        want = start_reference(cfg, c1, branch)
    except ExtensionOverflowError:
        with pytest.raises(ExtensionOverflowError):
            start(cfg, c1, branch)
        return None
    got = start(cfg, c1, branch)
    assert got[0].field == want[0].field
    assert got[0].field.spec_string() == want[0].field.spec_string()
    assert (got[0].outer, got[0].inner) == (want[0].outer, want[0].inner)
    assert (got[1].c, got[1].d, got[1].index, got[2]) == \
        (want[1].c, want[1].d, want[1].index, want[2])
    return got


def char0_pair(field, rng):
    """Smooth distinct conics over Q or Q(sqrt d) through [0:0:1], where
    find_point looks first, with small coefficients."""
    def conic():
        while True:
            coeffs = [field(rng.randint(-4, 4)) for _ in range(6)]
            coeffs[2] = field.zero
            if isinstance(field, QuadRationalField):
                coeffs[3] = field((rng.randint(-3, 3), rng.randint(-2, 2)))
            try:
                c = Conic(field, coeffs)
            except ValueError:
                continue
            if c.is_smooth():
                return c
    outer = conic()
    inner = conic()
    while inner == outer:
        inner = conic()
    return outer, inner


def tangent_configs(field, rng):
    """One config of each tangent type, from normal-form parameters."""
    elems = (list(field.elements()) if field.size is not None
             else [field(v) for v in range(-3, 4)])
    found = {}
    while len(found) < 4:
        try:
            cfg = make_config(field, *(rng.choice(elems) for _ in range(3)))
        except ValueError:
            continue
        found.setdefault(cfg.intersection_type, cfg)
    return [found[t] for t in ((2, 1, 1), (2, 2), (3, 1), (4,))]


@pytest.mark.parametrize("spec", ["Fp:11", "Fp:13", "Fq:5^2:2,0,1",
                                  "Fq:3^3:1,2,0,1", "Q", "Qsqrt:2"])
def test_start_matches_the_geometric_reference(spec):
    field = parse_field_spec(spec)
    rng = random.Random(spec)
    draw = random_smooth_pair if field.size is not None else char0_pair
    configs = [PonceletConfig(*draw(field, rng)) for _ in range(8)]
    configs += tangent_configs(field, rng)
    outcomes = []
    for cfg in configs:
        for c1 in sample_starts(cfg, 4, rng.randrange(100)):
            for branch in ("min", "max"):
                got = assert_start_matches_reference(cfg, c1, branch)
                outcomes.append("overflow" if got is None else got[2])
    # over Q(sqrt 2) a start that needs a square root overflows instead
    assert set(outcomes) == ({False, "overflow"} if spec == "Qsqrt:2"
                             else {False, True})
    assert len(outcomes) == 2 * 4 * len(configs)


def test_start_at_a_common_point_is_a_double_contact(F11):
    # [0:0:1] lies on both conics: its polar is the tangent of the inner one
    outer = Conic(F11, [1, 1, 0, 8, 5, 3])
    inner = Conic(F11, [1, 0, 0, 0, 0, -1])
    cfg = PonceletConfig(outer, inner)
    c1 = ProjPoint(F11, [0, 0, 1])
    for branch in ("min", "max"):
        _, st, lifted = assert_start_matches_reference(cfg, c1, branch)
        assert st.d == c1 and not lifted


def test_start_with_a_contact_point_at_infinity(F11):
    # the polar of [1:0:1] for x^2 - yz is y = 2x, whose first spanning
    # point [0:0:1] lies on the inner conic: the quadratic drops a degree
    outer = Conic(F11, [1, 1, -1, 0, 0, 0])
    inner = Conic(F11, [1, 0, 0, 0, 0, -1])
    cfg = PonceletConfig(outer, inner)
    c1 = ProjPoint(F11, [1, 0, 1])
    p0 = ProjPoint(F11, [0, 0, 1])
    assert polar(inner, c1).span()[0] == p0 and inner.contains(p0)
    ds = {assert_start_matches_reference(cfg, c1, b)[1].d for b in ("min", "max")}
    assert p0 in ds and len(ds) == 2


def test_start_needing_a_second_square_root_overflows():
    # over Q(sqrt 2) the contact points of [0:1:-3] need sqrt 3; start names
    # the discriminant of E's fiber, the reference the polar's
    field = QuadRationalField(2)
    outer = Conic(field, [1, 3, field(Fraction(-1, 3)), 0, 0, 0])
    inner = Conic(field, [1, 0, 0, 0, 0, -1])
    cfg = PonceletConfig(outer, inner)
    c1 = ProjPoint(field, [0, 1, -3])
    message = ("the square root of 12+0*sqrt(2) needs a second quadratic step "
               "above Q; only one is supported")
    for branch in ("min", "max"):
        with pytest.raises(ExtensionOverflowError):
            start_reference(cfg, c1, branch)
        with pytest.raises(ExtensionOverflowError) as exc:
            start(cfg, c1, branch)
        assert str(exc.value) == message


def test_config_type_and_tangencies_match_the_separate_solvers():
    # the criterion-1/2 corpora (a prefix of each), char 3 included, and
    # constructed pairs of every tangent type
    corpus = []
    for p in (3, 5, 7, 13):
        field = PrimeField(p)
        rng = random.Random(1000 + p)
        corpus += [(random_smooth_pair(field, rng), i) for i in range(120)]
        rng = random.Random(2)
        corpus += [((cfg.outer, cfg.inner), i)
                   for i, cfg in enumerate(tangent_configs(field, rng))]
    kinds = set()
    for (outer, inner), seed in corpus:
        cfg = PonceletConfig(outer, inner, seed)
        assert cfg.intersection_type == multiplicity_structure(outer, inner, seed)
        assert cfg.tangencies == tangency_points(outer, inner, seed)
        kinds.add(cfg.intersection_type)
    assert kinds == {(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)}


def sample_starts_reference(cfg, num_starts, seed):
    """Draw by shuffling the list of all parameters, as points."""
    rng = random.Random(seed)
    par = parametrize(cfg.outer, find_point(cfg.outer, seed))
    excluded = {par.param_of(p) for p in cfg.in_field_tangencies()}
    params = [P1Point.infinity(cfg.field)]
    if cfg.field.size is not None:
        params.extend(P1Point.affine(e) for e in cfg.field.elements())
        rng.shuffle(params)
    else:
        seen = set()
        while len(seen) < 4 * num_starts + 8:
            seen.add(Fraction(rng.randrange(-50, 51), rng.randrange(1, 12)))
        params.extend(P1Point.affine(cfg.field(v)) for v in sorted(seen))
    out = [par.point_at(t) for t in params if t not in excluded]
    return out[:num_starts]


@pytest.mark.parametrize("spec", ["Fp:11", "Fp:13", "Fq:3^3:1,2,0,1", "Q", "Qsqrt:2"])
def test_sample_starts_match_the_list_reference(spec):
    import porism.process as process
    field = parse_field_spec(spec)
    rng = random.Random(spec)
    draw = random_smooth_pair if field.size is not None else char0_pair
    configs = [PonceletConfig(*draw(field, rng)) for _ in range(3)]
    configs += tangent_configs(field, rng)
    for cfg in configs:
        for n, seed in ((1, 0), (5, 7), (12, 31)):
            want = sample_starts_reference(cfg, n, seed)
            assert sample_starts(cfg, n, seed) == want
            # the raw draw is point_at on the same shuffled parameters
            par, params = process._sample_starts(cfg, n, seed)
            point_at = par._maps(cfg.field)[0]
            assert [point_at(u) for u in params] == [
                tuple(v.value for v in p.coords) for p in want]


def test_sample_starts_builds_only_the_points_it_visits(monkeypatch):
    field = PrimeField(10007)
    cfg = make_config(field, 2, 7, 1)  # type (3, 1): one tangency excluded
    excluded = cfg.in_field_tangencies()
    assert len(excluded) == 1
    calls = []
    affine = P1Point.affine.__func__

    def counted(cls, value):
        calls.append(value)
        return affine(cls, value)
    monkeypatch.setattr(P1Point, "affine", classmethod(counted))
    starts = sample_starts(cfg, 6, seed=5)
    assert len(starts) == 6
    assert len(calls) <= 6 + len(excluded)


def test_run_from_a_tangency_start_checks_no_wrapped_tangency(monkeypatch):
    # the raw orbit closes a tangency start at step 1 on its own
    import porism.process as process
    calls = []
    wrapped = process.is_tangency_state

    def counted(cfg, state):
        calls.append(state)
        return wrapped(cfg, state)
    for spec in ("Fp:13", "Fq:3^3:1,2,0,1"):
        field = parse_field_spec(spec)
        rng = random.Random(spec)
        for cfg in tangent_configs(field, rng):
            points = cfg.in_field_tangencies()
            assert points
            for c1 in points:
                want = [run_by_step(cfg, c1, branch=b, max_steps=m)
                        for b in ("min", "max") for m in (0, 1, None)]
                monkeypatch.setattr(process, "is_tangency_state", counted)
                got = [run(cfg, c1, branch=b, max_steps=m)
                       for b in ("min", "max") for m in (0, 1, None)]
                monkeypatch.setattr(process, "is_tangency_state", wrapped)
                assert calls == []
                assert got == want
                assert [(r.outcome, r.steps) for r in got[:2]] == \
                    [("open", 0), ("closed", 1)]


def test_sample_starts_needs_at_least_one_start(F11):
    cfg = make_config(F11, 1, 2, 3)
    for n in (0, -1):
        with pytest.raises(ValueError, match="num_starts"):
            sample_starts(cfg, n, seed=0)
        with pytest.raises(ValueError, match="num_starts"):
            porism_check(cfg, num_starts=n)


def test_run_needs_a_non_negative_step_budget(F11):
    cfg = make_config(F11, 1, 2, 3)
    c1 = sample_starts(cfg, 1, seed=0)[0]
    with pytest.raises(ValueError, match="max_steps"):
        run(cfg, c1, max_steps=-5)
    res = run(cfg, c1, max_steps=0)
    assert (res.outcome, res.steps, len(res.orbit)) == ("open", 0, 1)


def test_sample_starts_over_q_stops_at_its_draw_pool(Q):
    # 4 n + 8 distinct fractions n/d, |n| <= 50, 1 <= d <= 11: 719 of them
    assert len({Fraction(n, d) for n in range(-50, 51)
                for d in range(1, 12)}) == 719
    outer = Conic(Q, [1, 1, -16, 0, 0, 0])
    inner = Conic(Q, [1, 1, Fraction(7, 4), 0, -4, 0])
    cfg = PonceletConfig(outer, inner)
    starts = sample_starts(cfg, 177, seed=0)
    assert len(set(starts)) == 177
    with pytest.raises(ValueError, match="num_starts"):
        sample_starts(cfg, 178, seed=0)


def sharing_configs(spec):
    """8 random pairs over the field and one pair of each tangent type."""
    field = parse_field_spec(spec)
    rng = random.Random("share:" + spec)
    configs = [PonceletConfig(*random_smooth_pair(field, rng)) for _ in range(8)]
    return configs + tangent_configs(field, rng), rng


@pytest.mark.parametrize("spec", ["Fp:11", "Fp:13", "Fq:3^3:1,2,0,1"])
def test_porism_check_periods_are_the_periods_of_run(spec):
    # at the default budget and at budgets that leave starts open, which a
    # walk settles too
    configs, rng = sharing_configs(spec)
    opened = 0
    for cfg in configs:
        seed = rng.randrange(100)
        starts = sample_starts(cfg, 10, seed)
        n = max(run(cfg, c1, keep_orbit=0).period for c1 in starts)
        for max_steps in (None, 1, 3, max(n - 1, 0)):
            report = porism_check(cfg, num_starts=10, max_steps=max_steps,
                                  seed=seed)
            want = [run(cfg, c1, max_steps=max_steps, keep_orbit=0).period
                    for c1 in starts]
            assert report.periods == want
            opened += want.count(0)
    assert opened >= 100


def assert_branches_share_one_period(cfg, c1, budgets):
    """run on the min and on the max branch agrees at every budget; returns
    whether the two contact points differ."""
    for max_steps in budgets:
        lo, hi = (run(cfg, c1, branch, max_steps, keep_orbit=0)
                  for branch in ("min", "max"))
        assert (lo.outcome, lo.period) == (hi.outcome, hi.period)
    return start(cfg, c1, "min")[1].d != start(cfg, c1, "max")[1].d


@pytest.mark.parametrize("spec", ["Fp:11", "Fp:13", "Fq:5^2:2,0,1",
                                  "Fq:3^3:1,2,0,1", "Q"])
def test_both_branches_of_a_start_share_one_period(spec):
    # sigma swaps the two contact points of c1 and sigma nu sigma = nu^-1
    field = parse_field_spec(spec)
    rng = random.Random("branches:" + spec)
    two = 0
    if field.size is not None:
        hasse = field.size + 1 + isqrt(4 * field.size)
        for _ in range(3):
            cfg = PonceletConfig(*random_smooth_pair(field, rng))
            for c1 in sample_starts(cfg, 4, rng.randrange(100)):
                n = run(cfg, c1, max_steps=hasse, keep_orbit=0).period
                two += assert_branches_share_one_period(
                    cfg, c1, {hasse, n, max(n - 1, 0), n // 2})
    else:
        euler = (Conic(field, [1, 1, -16, 0, 0, 0]),   # period 3
                 Conic(field, [1, 1, field(Fraction(7, 4)), 0, -4, 0]))
        fuss = (Conic(field, [1, 1, -49, 0, 0, 0]),    # period 4
                Conic(field, [1, 1, field(Fraction(-551, 25)), 0, -2, 0]))
        for pair in (euler, fuss, char0_pair(field, rng)):
            cfg = PonceletConfig(*pair)
            for c1 in sample_starts(cfg, 2, 1):
                two += assert_branches_share_one_period(cfg, c1, range(6))
    assert two >= 4


def test_porism_check_below_the_period_leaves_every_start_open(F13, monkeypatch):
    import porism.process as process
    walks = []
    wrapped = process._orbit

    def counted(E, initial, max_steps, keep, watch, fold):
        # the start's u and the u's of every state the walk passes
        kept = wrapped(E, initial, max_steps, max_steps + 1, (), fold)[1]
        walks.append((E.field, initial[0], {u for u, _ in kept}))
        return wrapped(E, initial, max_steps, keep, watch, fold)
    monkeypatch.setattr(process, "_orbit", counted)
    cfg = make_config(F13, 0, 1, 1)  # type (4): every orbit has period 13
    report = porism_check(cfg, num_starts=10, max_steps=12, seed=3)
    assert report.periods == [0] * 10
    assert (report.num_closed, report.num_open) == (0, 10)
    # an open walk settles every start whose u it meets
    assert len(walks) < 10
    for i, (field, u, _) in enumerate(walks):
        assert not any(u in met for f, _, met in walks[:i] if f == field)
    walks.clear()
    report = porism_check(cfg, num_starts=10, max_steps=13, seed=3)
    assert report.periods == [13] * 10
    assert len(walks) < 10


@pytest.mark.parametrize("spec", ["Fp:11", "Fq:3^3:1,2,0,1"])
def test_porism_check_walks_no_start_on_an_earlier_closed_cycle(spec, monkeypatch):
    import porism.process as process
    walked = []
    wrapped = process._orbit

    def counted(E, initial, *args):
        u, v = initial
        walked.append((E.field, _point(E.field, E.outer[0](u)),
                       _point(E.field, E.inner[0](v))))
        return wrapped(E, initial, *args)
    configs, rng = sharing_configs(spec)
    shared = 0
    for cfg in configs:
        seed = rng.randrange(100)
        budget = cfg.default_max_steps()
        walked.clear()
        monkeypatch.setattr(process, "_orbit", counted)
        porism_check(cfg, num_starts=10, seed=seed)
        monkeypatch.setattr(process, "_orbit", wrapped)
        # the reference: walk a start unless an earlier run, closed or open,
        # met its c; each run from the contact point porism_check walked
        covered, walks = set(), iter(walked)
        for c1 in sample_starts(cfg, 10, seed):
            lifted, initial, _ = start(cfg, c1)
            if (lifted.field, initial.c) in covered:
                shared += 1
                continue
            field, c, d = next(walks)
            assert (field, c) == (lifted.field, initial.c)
            branch = "min" if d == initial.d else "max"
            assert start(cfg, c1, branch)[1].d == d
            res = run(cfg, c1, branch, keep_orbit=budget + 1)
            covered.update((field, s.c) for s in res.orbit)
        assert next(walks, None) is None
    assert shared >= 10


def test_porism_check_solves_every_start_before_it_walks(monkeypatch):
    # over Q(sqrt 2) the first start solves and the second needs a second
    # square root; its error comes before any orbit is walked
    import porism.process as process
    field = QuadRationalField(2)
    outer = Conic(field, [1, 2, 0, field((-3, -1)), 2, 3])
    inner = Conic(field, [1, -1, 0, field((3, 1)), 1, 0])
    cfg = PonceletConfig(outer, inner)
    first, second = sample_starts(cfg, 2, seed=0)
    start(cfg, first)
    with pytest.raises(ExtensionOverflowError):
        start(cfg, second)
    walks = []
    monkeypatch.setattr(process, "_orbit", lambda *args: walks.append(args))
    with pytest.raises(ExtensionOverflowError):
        porism_check(cfg, num_starts=4, seed=0)
    assert walks == []


def fiber_start_cases(cfg, num_starts, seed, monkeypatch):
    """porism_check's initial (u, v) of every sampled start, against the
    geometric start's u and inner param_of(d1) of either branch on E pulled
    back along the draw's parametrization; returns the cases met: roots in
    the field or lifted, a fiber with C = 0 (its root (0 : 1)), and a
    double root."""
    import porism.process as process
    walked = []

    def open_walk(E, initial, *args):  # an open walk that meets no other u
        walked.append((E.field, initial))
        return 0, [], set()
    monkeypatch.setattr(process, "_orbit", open_walk)
    porism_check(cfg, num_starts, seed=seed)
    monkeypatch.undo()
    par, params = process._sample_starts(cfg, num_starts, seed)
    base = process._Incidence(cfg, par)
    zero = cfg.field.zero.value
    assert len(walked) == len(params)
    cases = set()
    for u, got in zip(params, walked):
        c1 = _point(cfg.field, base.outer[0](u))
        if base.fibers[0](u)[0] == zero:
            cases.add("C = 0")
        lifted_cfg, state, lifted = start_reference(cfg, c1)
        ext, other = lifted_cfg.field, start_reference(cfg, c1, "max")[1].d
        want_vs = {_values(cfg.inner_par.param_of(d)) for d in (state.d, other)}
        if lifted:
            cases.add("lifted")
            u = tuple((x, zero) for x in u)
        else:
            cases.add("in field")
        # either branch: both have one period
        assert got[0] == ext and got[1][0] == u and got[1][1] in want_vs
        if other == state.d:
            cases.add("double root")
    return cases


@pytest.mark.parametrize("spec", ["Fp:11", "Fp:13", "Fq:5^2:2,0,1",
                                  "Fq:3^3:1,2,0,1", "Q", "Qsqrt:2"])
def test_porism_check_solves_each_start_on_the_fiber_as_start_does(
        spec, monkeypatch):
    field = parse_field_spec(spec)
    rng = random.Random("fiber:" + spec)
    finite = field.size is not None
    draw = random_smooth_pair if finite else char0_pair
    configs = [PonceletConfig(*draw(field, rng))
               for _ in range(6 if finite else 12)]
    configs += tangent_configs(field, rng)
    cases, checked = set(), 0
    for cfg in configs:
        # every point of the outer conic over a finite field; over Q(sqrt 2)
        # most starts need a second square root
        num_starts = (field.size + 1 if finite else
                      1 if isinstance(field, QuadRationalField) else 4)
        seed = rng.randrange(100)
        try:
            cases |= fiber_start_cases(cfg, num_starts, seed, monkeypatch)
        except ExtensionOverflowError as exc:
            # over Q(sqrt 2), with start's message for the first start that
            # needs a second square root
            assert spec == "Qsqrt:2"
            with pytest.raises(ExtensionOverflowError) as want:
                for c1 in sample_starts(cfg, num_starts, seed):
                    start(cfg, c1)
            assert str(exc) == str(want.value)
            continue
        checked += 1
    assert checked >= 6
    assert cases == {"in field", "C = 0", "double root"} | (
        set() if spec == "Qsqrt:2" else {"lifted"})


@pytest.mark.parametrize("p", [3, 5])
def test_sample_starts_leaves_every_point_but_the_tangencies(p):
    field = PrimeField(p)
    rng = random.Random(p)
    types = set()
    for i in range(300):
        cfg = PonceletConfig(*random_smooth_pair(field, rng), seed=i)
        types.add(cfg.intersection_type)
        starts = sample_starts(cfg, p + 1, i)
        assert len(starts) == p + 1 - len(cfg.in_field_tangencies())
        assert len(set(starts)) == len(starts)
    assert types == {(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)}


def lifted_starts(cfg, num_starts, seed):
    """The lifted (E, raw (u, v)) pairs of both branches of the sampled
    starts, on E pulled back along the draw's parametrization."""
    import porism.process as process
    par = process._sample_starts(cfg, num_starts, seed)[0]
    out = []
    for c1 in sample_starts(cfg, num_starts, seed):
        for branch in ("min", "max"):
            lifted_cfg, initial, lifted = start(cfg, c1, branch)
            if lifted:
                E = process._Incidence(cfg, par).lift(lifted_cfg.field)
                c, d = _raw_state(initial)
                out.append((E, (E.outer[1](c), E.inner[1](d))))
    return out


def assert_fold_matches_the_full_walk(E, initial, budget):
    """The folded walk's verdict equals the full walk's at the budget and at
    n - 1, n and n + 1 for the period n; returns n."""
    import porism.process as process
    n = process._orbit(E, initial, budget, 0)[0]
    for max_steps in {budget, max(n - 1, 0), n, n + 1}:
        assert process._orbit(E, initial, max_steps, 0, (), True)[0] \
            == process._orbit(E, initial, max_steps, 0)[0]
    return n


@pytest.mark.parametrize("spec", ["Fp:3", "Fp:5", "Fp:7", "Fp:11", "Fp:13",
                                  "Fq:5^2:2,0,1", "Fq:3^3:1,2,0,1"])
def test_folded_walk_of_a_lifted_start_has_the_full_walks_period(spec):
    field = parse_field_spec(spec)
    rng = random.Random("fold:" + spec)
    hasse = field.size + 1 + isqrt(4 * field.size)
    configs = [PonceletConfig(*random_smooth_pair(field, rng)) for _ in range(6)]
    periods = []
    for cfg in configs + tangent_configs(field, rng):
        for E, initial in lifted_starts(cfg, 6, rng.randrange(100)):
            periods.append(assert_fold_matches_the_full_walk(
                E, initial, hasse))
    # every lifted orbit closes, with periods of both parities
    assert periods and all(periods)
    assert {n % 2 for n in periods} == {0, 1}


def test_folded_walk_over_q_has_the_full_walks_period(Q):
    euler = (Conic(Q, [1, 1, -16, 0, 0, 0]),
             Conic(Q, [1, 1, Q(Fraction(7, 4)), 0, -4, 0]))
    fuss = (Conic(Q, [1, 1, -49, 0, 0, 0]),      # R = 7, d = 1, r = 24/5
            Conic(Q, [1, 1, Q(Fraction(-551, 25)), 0, -2, 0]))
    circles = (Conic(Q, [1, 1, -16, 0, 0, 0]),
               Conic(Q, [1, 1, -1, 0, -2, 0]))
    periods = []
    for outer, inner in (euler, fuss, circles):
        for E, initial in lifted_starts(PonceletConfig(outer, inner), 2, 1):
            assert isinstance(E.field, QuadRationalField)
            periods.append(assert_fold_matches_the_full_walk(E, initial, 6))
    assert set(periods) == {3, 4, 0}


def test_folded_walk_stops_at_half_the_period():
    import porism.process as process
    calls = []
    walked = 0
    for spec in ("Fp:13", "Fq:3^3:1,2,0,1"):
        field = parse_field_spec(spec)
        rng = random.Random("half:" + spec)
        for _ in range(4):
            cfg = PonceletConfig(*random_smooth_pair(field, rng))
            for E, initial in lifted_starts(cfg, 4, rng.randrange(100)):
                n = process._orbit(E, initial, 2 * field.size, 0)[0]
                # count the involution's calls, two a step
                in_v, in_u, other, mono = E.fibers

                def counted(*args, _other=other):
                    calls.append(args)
                    return _other(*args)
                E.fibers = in_v, in_u, counted, mono
                calls.clear()
                folded = process._orbit(E, initial, 2 * field.size,
                                        0, (), True)[0]
                assert folded == n
                assert 2 * (n // 2) <= len(calls) <= 2 * (n // 2) + 2
                walked += 1
    assert walked >= 10


def start_by_binary_form_roots(cfg, c1):
    """The contact points of c1 and their field from ``binary_form_roots``
    on the contact quadratic F(t p0 + p1), sorted as ``start`` sorts them."""
    field = cfg.field
    grad, value = cfg.inner._forms()
    p0, p1 = _span(field, grad([v.value for v in c1.coords]))
    roots = binary_form_roots(field, [FieldElement(field, v) for v in (
        value(p1), field._dot(grad(p0), p1), value(p0))], 2)
    ext = roots.entries[0][0].field if roots.entries else field
    p0, p1 = ([ext(FieldElement(field, v)) for v in p] for p in (p0, p1))
    points = [ProjPoint(ext, [t * a + b for a, b in zip(p0, p1)])
              for t, _ in roots.entries]
    if roots.at_infinity:
        points.append(ProjPoint(ext, p0))
    return ext, sorted(points, key=lambda p: p.sort_key())


def assert_start_matches_binary_form_roots(cfg, c1):
    """start's contact points, field and radicand equal the reference's,
    or both overflow; returns the lifted flag or None."""
    try:
        ext, points = start_by_binary_form_roots(cfg, c1)
    except ExtensionOverflowError:
        with pytest.raises(ExtensionOverflowError):
            start(cfg, c1)
        return None
    for branch, want in (("min", points[0]), ("max", points[-1])):
        lifted_cfg, state, lifted = start(cfg, c1, branch)
        assert lifted_cfg.field == ext and lifted == (ext != cfg.field)
        assert lifted_cfg.field.spec_string() == ext.spec_string()
        if isinstance(ext, QuadRationalField):
            assert lifted_cfg.field.d == ext.d
        assert state.d == want
    return ext != cfg.field


@pytest.mark.parametrize("spec", ["Fp:11", "Fq:3^3:1,2,0,1", "Q", "Qsqrt:2"])
def test_closed_form_start_matches_binary_form_roots(spec):
    field = parse_field_spec(spec)
    rng = random.Random("closed-form:" + spec)
    draw = random_smooth_pair if field.size is not None else char0_pair
    configs = [PonceletConfig(*draw(field, rng)) for _ in range(8)]
    outcomes = set()
    for cfg in configs + tangent_configs(field, rng):
        for c1 in sample_starts(cfg, 4, rng.randrange(100)):
            outcomes.add(assert_start_matches_binary_form_roots(cfg, c1))
    assert outcomes == ({False, None} if spec == "Qsqrt:2" else {False, True})


def test_closed_form_start_matches_binary_form_roots_on_degree_drops(F11):
    inner = Conic(F11, [1, 0, 0, 0, 0, -1])
    # [0:0:1] lies on both conics and spans its own polar: alpha = beta = 0
    cfg = PonceletConfig(Conic(F11, [1, 1, 0, 8, 5, 3]), inner)
    assert assert_start_matches_binary_form_roots(cfg, ProjPoint(F11, [0, 0, 1])) is False
    # the polar of [1:0:1] is spanned first by [0:0:1] on the inner conic:
    # alpha = 0 and beta != 0
    cfg = PonceletConfig(Conic(F11, [1, 1, -1, 0, 0, 0]), inner)
    assert assert_start_matches_binary_form_roots(cfg, ProjPoint(F11, [1, 0, 1])) is False


def test_closed_form_start_overflows_where_the_reference_does():
    # over Q(sqrt 2) the contact points of [0:1:-3] need sqrt 3
    field = QuadRationalField(2)
    outer = Conic(field, [1, 3, field(Fraction(-1, 3)), 0, 0, 0])
    cfg = PonceletConfig(outer, Conic(field, [1, 0, 0, 0, 0, -1]))
    assert assert_start_matches_binary_form_roots(
        cfg, ProjPoint(field, [0, 1, -3])) is None


@pytest.mark.parametrize("t, a, want", [(1, 0, (3, 1)), (2, 3, (3, 1)),
                                        (0, 1, (4,)), (0, 2, (4,))])
def test_osculating_pairs_pass_below_and_at_the_default_budget(F5, t, a, want):
    cfg = make_config(F5, t, a, 1)
    assert cfg.intersection_type == want
    below = porism_check(cfg, num_starts=4, max_steps=4)
    assert below.periods == [0] * 4 and below.passed
    default = porism_check(cfg, num_starts=4)
    assert default.periods == [5] * 4 and default.passed


def test_osculating_law_fails_a_period_other_than_char(F5, monkeypatch):
    import porism.process
    cfg = make_config(F5, 0, 1, 1)
    monkeypatch.setattr(porism.process, "_orbit", lambda *args: (6, [], []))
    report = porism_check(cfg, num_starts=4)
    assert report.periods == [6] * 4 and not report.passed
    # with char steps in the budget no start may stay open
    monkeypatch.setattr(porism.process, "_orbit", lambda *args: (0, [], []))
    assert not porism_check(cfg, num_starts=4, max_steps=5).passed
    assert porism_check(cfg, num_starts=4, max_steps=4).passed


def test_porism_check_over_f11_lifts_the_pair_once(F11, monkeypatch):
    rng = random.Random("lift-once")
    while True:
        pair = random_smooth_pair(F11, rng)
        probe = PonceletConfig(*pair)
        if sum(start(probe, c1)[2] for c1 in sample_starts(probe, 10, 0)) >= 3:
            break
    cfg = PonceletConfig(*pair)
    calls = []
    wrapped = Conic.lift

    def counted(self, new_field):
        calls.append(new_field)
        return wrapped(self, new_field)
    monkeypatch.setattr(Conic, "lift", counted)
    report = porism_check(cfg, num_starts=10, seed=0)
    assert report.passed and all(report.periods)
    assert len(calls) <= 2


def every_point(cfg):
    """Every point of the outer conic over a finite field, by its
    parametrization."""
    field = cfg.field
    par = parametrize(cfg.outer, find_point(cfg.outer))
    params = [P1Point.infinity(field)] + [P1Point.affine(e) for e in field.elements()]
    return [par.point_at(t) for t in params]


def raw_start_cases(cfg, c1):
    """start on both branches matches the geometric reference; returns the
    cases met: roots in the field or lifted, a tangency point (a double
    contact), and a contact point at infinity (alpha = 0)."""
    field = cfg.field
    raw = _values(c1)
    ds = []
    for branch in ("min", "max"):
        _, state, lifted = assert_start_matches_reference(cfg, c1, branch)
        ds.append(state.d)
    cases = {"lifted" if lifted else "in field"}
    if c1 in cfg.in_field_tangencies():
        assert ds == [c1, c1] and not lifted
        cases.add("tangency")
    grad, value = cfg.inner._forms()
    if value(_span(field, grad(raw))[0]) == field.zero.value:
        cases.add("at infinity")
    return cases


@pytest.mark.parametrize("spec", ["Fp:11", "Fp:13", "Fq:3^3:1,2,0,1"])
def test_raw_start_matches_the_reference_from_every_point_of_the_outer_conic(spec):
    field = parse_field_spec(spec)
    rng = random.Random("every-point:" + spec)
    configs = [PonceletConfig(*random_smooth_pair(field, rng)) for _ in range(4)]
    cases = set()
    for cfg in configs + tangent_configs(field, rng):
        for c1 in every_point(cfg):
            cases |= raw_start_cases(cfg, c1)
    assert cases == {"in field", "lifted", "tangency", "at infinity"}


def test_raw_start_matches_the_reference_on_a_criterion_5_pair(Q):
    cfg = make_config(Q, 0, 2, 1)  # x^2 + 2y^2 - yz with x^2 - yz
    assert cfg.intersection_type in ((3, 1), (4,))
    cases = set()
    for c1 in sample_starts(cfg, 12, seed=1) + cfg.in_field_tangencies():
        cases |= raw_start_cases(cfg, c1)
    assert {"in field", "lifted", "tangency"} <= cases


def test_both_lifted_starts_of_a_criterion_5_pair_name_one_field(Q):
    # their discriminants differ by a square factor, -2 against
    # -42467328/21242881 = -2 (4608/4609)^2; both lift to Q(sqrt -2)
    cfg = make_config(Q, 0, 2, 1)
    fields = [start(cfg, c1) for c1 in sample_starts(cfg, 2, seed=1)]
    assert [(cfg2.field.spec_string(), lifted) for cfg2, _, lifted in fields] \
        == [("Qsqrt:-2", True)] * 2


def test_porism_check_builds_no_point_per_start(F13, monkeypatch):
    rng = random.Random("no-points")
    while True:
        cfg = PonceletConfig(*random_smooth_pair(F13, rng))
        if sum(start(cfg, c1)[2] for c1 in sample_starts(cfg, 10, 0)) >= 3:
            break
    cfg = PonceletConfig(cfg.outer, cfg.inner)  # no lift kept yet
    built = {ProjPoint: 0, P1Point: 0}
    for cls in built:
        def counted(self, *args, _cls=cls, _init=cls.__init__):
            built[_cls] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    report = porism_check(cfg, num_starts=10, seed=0)
    assert len(report.periods) == 10 and report.passed
    # find_point's point, the tangencies lifted with the config, and the
    # parameters of the tangencies the draw leaves out
    assert built[ProjPoint] <= 1 + len(cfg.tangencies)
    assert built[P1Point] <= len(cfg.in_field_tangencies())


@pytest.mark.parametrize("spec", ["Fp:13", "Fq:3^3:1,2,0,1"])
def test_run_on_a_lifted_config_matches_step(spec):
    # a lifted config keeps the inner parametrization of its base field,
    # which E is pulled back along after an embedding
    field = parse_field_spec(spec)
    rng = random.Random("lifted-config:" + spec)
    for _ in range(3):
        cfg = PonceletConfig(*random_smooth_pair(field, rng))
        ext = cfg.lift(_quadratic_extension(field))
        for c1 in sample_starts(cfg, 2, rng.randrange(100)):
            for branch in ("min", "max"):
                assert_run_matches_step(ext, c1.lift(ext.field), branch=branch,
                                        max_steps=4 * field.size)
