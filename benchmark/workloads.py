"""The three workloads: how each builds one round of operations from the
seed, how an operation calls porism, and how its output is checked.

A round is a fixed list of operations; a run repeats the same round until
its time is up, so every run attempts whole rounds and the share of failed
operations is the same in every run.
"""

import io
import json
import random
import sys
from fractions import Fraction

import inputs as gen
import oracles as orc
from gf import GF

# -- check ----------------------------------------------------------------------
CHECK_PRIMES = (11, 13)
# A check costs about its pair's period times ten starts, and periods of
# random pairs spread from 1 to p+1+2*sqrt(p); a few dozen freshly drawn
# pairs moved the median latency by a quarter from seed to seed.  So the
# pairs are fixed up to a change of coordinates: they are drawn once from
# CHECK_BASE_SEED, and --seed moves each by a random projective
# transformation and picks porism's --seed, which picks the starts.  Type,
# period and the share of starts that lift are projective invariants.
CHECK_BASE_SEED = "check-base"
# Random pairs per prime, drawn the way porism sweep draws them: twice as
# many are drawn, sorted by period, and every second one kept, so their
# periods follow the distribution closely.
CHECK_RANDOM_PER_PRIME = 24
# F_{3^3} pairs drawn from all field elements with a fixed seed, so the same
# pairs -- including those whose orbits outrun the 10*char step budget --
# are in every run whatever --seed is.
CHECK_F27_SEED = "check-f27"
CHECK_F27_PAIRS = 4

# -- structure -------------------------------------------------------------------
STRUCTURE_FIELDS = (GF(5), GF(7), GF(13), gen.F25, gen.F27)
# As for check, and for the same reason (freshly drawn pairs moved a round's
# cost by up to a sixth from seed to seed), the pairs are drawn once from
# STRUCTURE_BASE_SEED and --seed moves each by a random projective
# transformation; the intersection type and the fields of the intersection
# points, which set what classify and intersect_conics compute, are
# projective invariants.
STRUCTURE_BASE_SEED = "structure-base"
STRUCTURE_RANDOM_PER_FIELD = 8
STRUCTURE_CHAR2 = ((3, 3), (3, 4), (4, 3), (4, 4))   # (k, variables)
STRUCTURE_CHAR2_PER_KIND = 4

# -- orbit-q ---------------------------------------------------------------------
# (t, a) of the osculating normal-form pairs of acceptance criterion 5;
# D is x^2 - yz and b = 1 throughout.
OSCULATING = ((0, 1), (0, 2), (0, -1), (1, 1), (2, 3))
# Step budgets per family, so that operations stay within a small factor of
# one another: heights stay bounded on osculating pairs but grow
# quadratically on generic ones; the closed polygons stop at their period.
# The osculating pair (0, -1) has no start that lifts, and steps over Q
# cost a third of those over Q(sqrt d).
ORBIT_STEPS = {"osculating": 16, "osculating-q": 48, "generic": 6,
               "euler": 12, "fuss": 12}
ORBIT_PER_FAMILY = 18


class Op:
    """One operation: a porism CLI command on JSON text, or a library call
    to intersect_conics on a pair read from JSON, with its output check.
    ``obj`` is the input; ``text``, the JSON the program is given, is built
    from it by ``encode``."""

    __slots__ = ("kind", "argv", "obj", "text", "seed", "check", "label")

    def __init__(self, kind, obj, check, label, argv=None, seed=0):
        self.kind = kind
        self.obj = obj
        self.text = json.dumps(obj)
        self.check = check
        self.label = label
        self.argv = argv
        self.seed = seed


def encode(ops):
    """Build every operation's JSON input afresh (the part of input
    generation that set-up times; drawing and selecting the inputs, which
    use the oracles, is done once per run before it)."""
    for op in ops:
        op.text = json.dumps(op.obj)


def call_cli(main, argv, text):
    """Run porism's CLI in-process on stdin text; returns (code, stdout)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        code = main(argv)
        out = sys.stdout.getvalue() if code in (0, 2) else sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out


def execute(op, prog):
    """Perform one operation against the program; returns (code, output)."""
    if op.kind == "cli":
        return call_cli(prog.cli.main, op.argv, op.text)
    outer, inner = prog.cli.read_pair(json.loads(op.text))
    pts = prog.projective.intersect_conics(outer, inner, seed=op.seed)
    return 0, json.dumps([[p.field.spec_string(), [str(c) for c in p.coords], m]
                          for p, m in pts])


def _cli_op(command, obj, check, label, seed, extra=()):
    argv = [command, "-", "--json", "--seed", str(seed), *extra]
    return Op("cli", obj, check, label, argv=argv)


def _expect_ok(check):
    """Wrap a check of parsed JSON output: exit code 0 is required."""
    def run(code, out):
        if code != 0:
            return [f"exit code {code}: {out.strip()[:200]}"], False
        return check(json.loads(out))
    return run


def _stratified(draw, key, n):
    """n of 2n draws, systematically: sort the draws by key (a property the
    operation's cost follows) and keep every second one, in draw order.
    The kept set follows the key's distribution far more closely than n
    plain draws, so a round's cost varies less from seed to seed."""
    drawn = [draw() for _ in range(2 * n)]
    order = sorted(range(2 * n), key=lambda i: (key(drawn[i]), i))
    return [drawn[i] for i in sorted(order[1::2])]


# -- check workload ---------------------------------------------------------------

def _porism_op(F, outer, inner, seed, label, expected_type=None):
    budget = 10 * F.p

    def check(code, out):
        if code not in (0, 2):
            return [f"exit code {code}: {out.strip()[:200]}"], False
        report = json.loads(out)
        problems, failed = orc.check_porism(report, F, outer, inner, budget,
                                            expected_type)
        if code == 2 and not problems:
            problems.append("exit code 2 (theorem violation)")
        return problems, failed
    return _cli_op("porism-check", gen.pair_json(F, outer, inner), check,
                   label, seed)


def _check_base():
    """The check pairs before --seed moves them: per prime, random pairs
    stratified by period and one constructed pair of each tangent type."""
    rng = random.Random(CHECK_BASE_SEED)
    base = []
    for p in CHECK_PRIMES:
        F = GF(p)
        pairs = _stratified(
            lambda: gen.random_smooth_pair(F, rng),
            lambda pair: orc.poncelet_period(F, *pair, limit=4 * p + 8),
            CHECK_RANDOM_PER_PRIME)
        base += [(F, pair, f"F{p} random", None) for pair in pairs]
        base += [(F, gen.tangent_pair(F, rng, t), f"F{p} {t}", t)
                 for t in orc.TANGENT_TYPES]
    return base


def check_round(seed):
    rng = random.Random(f"check:{seed}")
    ops = []
    for F, (outer, inner), label, target in _check_base():
        g = gen.random_transform(F, rng)
        ops.append(_porism_op(F, orc.transform_conic(F, outer, g),
                              orc.transform_conic(F, inner, g),
                              rng.randrange(1000), label, expected_type=target))
    fixed = random.Random(CHECK_F27_SEED)
    for i in range(CHECK_F27_PAIRS):
        outer, inner = gen.random_smooth_pair(gen.F27, fixed)
        ops.append(_porism_op(gen.F27, outer, inner, i, f"F27 fixed #{i}"))
    return ops


# -- structure workload -------------------------------------------------------------

def _structure_ops(F, outer, inner, seed, label):
    obj = gen.pair_json(F, outer, inner)

    def check_points(code, out):
        if code != 0:
            return [f"exit code {code}"], False
        pts = json.loads(out)
        problems = orc.check_intersections([m for _, _, m in pts], F, outer,
                                           inner)
        problems += orc.check_points_on_pair(pts, F, outer, inner)
        problems += orc.check_point_fields(pts, F, outer, inner)
        return problems, False

    return [
        _cli_op("classify", obj, _expect_ok(
            lambda d: (orc.check_classify(d, F, outer, inner), False)),
            label + " classify", seed),
        _cli_op("ecurve", obj, _expect_ok(
            lambda d: (orc.check_ecurve(d, F, outer, inner), False)),
            label + " ecurve", seed),
        Op("intersect", obj, check_points, label + " intersect",
           seed=seed),
    ]


def _split_key(F, outer, inner):
    """Intersection type, and for (1,1,1,1) pairs the degrees of the
    intersection points' fields: intersect_conics works in those fields."""
    kind = orc.pencil_type(F, outer, inner)
    return (kind, orc.split_degrees(F, outer, inner) if kind == "(1,1,1,1)" else ())


def _structure_base():
    """The structure pairs before --seed moves them: per field, random pairs
    stratified by _split_key and one constructed pair of each tangent type."""
    rng = random.Random(STRUCTURE_BASE_SEED)
    base = []
    for F in STRUCTURE_FIELDS:
        name = F.spec()
        pairs = _stratified(lambda: gen.random_smooth_pair(F, rng),
                            lambda pair: _split_key(F, *pair),
                            STRUCTURE_RANDOM_PER_FIELD)
        base += [(F, pair, f"{name} random") for pair in pairs]
        base += [(F, gen.tangent_pair(F, rng, t), f"{name} {t}")
                 for t in orc.TANGENT_TYPES]
    return base


def structure_round(seed):
    rng = random.Random(f"structure:{seed}")
    ops = []
    for F, (outer, inner), label in _structure_base():
        g = gen.random_transform(F, rng)
        ops += _structure_ops(F, orc.transform_conic(F, outer, g),
                              orc.transform_conic(F, inner, g),
                              rng.randrange(1000), label)
    for k, n in STRUCTURE_CHAR2:
        F = gen.BINARY[k]
        forms = _stratified(lambda: gen.random_char2_form(F, n, rng),
                            lambda c: orc.polar_rank(F, n, c),
                            STRUCTURE_CHAR2_PER_KIND)
        for coeffs in forms:
            ops.append(_cli_op(
                "char2-normalize", gen.char2_json(F, k, n, coeffs),
                _expect_ok(lambda d, F=F, n=n, c=coeffs:
                           (orc.check_char2(d, F, n, c), False)),
                f"F2^{k} n={n} char2", rng.randrange(1000)))
    return ops


# -- orbit-q workload ---------------------------------------------------------------

def _orbit_op(family, outer, inner, c1, seed):
    steps = ORBIT_STEPS[family]
    label, family = family, family.split("-")[0]
    obj = {"outer": gen.q_json(outer), "inner": gen.q_json(inner),
           "c1": [str(Fraction(x)) for x in c1]}
    check = _expect_ok(lambda d: (orc.check_orbit(d, outer, inner, c1, family,
                                                  steps), False))
    return _cli_op("run", obj, check, label, seed,
                   extra=("--max-steps", str(steps)))


def _lifted_start(rng, inner, point_at, tries=50):
    """A start point_at(m) for random small m whose tangent points need
    Q(sqrt d), or the last one drawn when none of ``tries`` does."""
    for _ in range(tries):
        c1 = point_at(gen.small_fraction(rng, 9, 5))
        if gen.lifts(inner, c1):
            break
    return c1


def orbit_round(seed):
    rng = random.Random(f"orbit-q:{seed}")
    ops = []
    for i in range(ORBIT_PER_FAMILY):
        t, a = OSCULATING[i % len(OSCULATING)]
        outer, inner = (1, a, 0, t, 0, -1), (1, 0, 0, 0, 0, -1)
        c1 = _lifted_start(rng, inner, lambda x: (x, 1, x * x + t * x + a))
        family = "osculating" if gen.lifts(inner, c1) else "osculating-q"
        ops.append(_orbit_op(family, outer, inner, c1, rng.randrange(1000)))
    for _ in range(ORBIT_PER_FAMILY):
        while True:
            # porism finds a point of the inner conic by trying small y, so
            # the inner circle passes through (px, py) with such a y
            R = rng.randint(2, 9)
            cx, cy = gen.small_fraction(rng, 6, 3), gen.small_fraction(rng, 6, 3)
            px, py = gen.small_fraction(rng, 9, 4), gen.small_fraction(rng, 12, 4)
            r2 = (px - cx) ** 2 + (py - cy) ** 2
            gap = cx * cx + cy * cy - R * R - r2
            if (cx, cy) != (0, 0) and r2 and gap * gap != 4 * R * R * r2:
                break        # not concentric and not tangent: type (1,1,1,1)
        outer, inner = gen.circle(0, 0, R * R), gen.circle(cx, cy, r2)
        c1 = _lifted_start(rng, inner, lambda m: gen.circle_point(0, 0, R, m))
        ops.append(_orbit_op("generic", outer, inner, c1, rng.randrange(1000)))
    for family in ("euler", "fuss"):
        for _ in range(ORBIT_PER_FAMILY // 2):
            if family == "euler":
                # Euler: d^2 = R^2 - 2Rr closes triangles; r = (R^2 - d^2)/2R
                R = rng.randint(2, 12)
                d = rng.randint(1, R - 1)
                r = Fraction(R * R - d * d, 2 * R)
            else:
                # Fuss: (R^2 - d^2)^2 = 2r^2(R^2 + d^2) closes quadrilaterals;
                # R^2 + d^2 = 2m^2 from a, b as below
                a = rng.randint(2, 5)
                b = rng.randint(1, a - 1)
                R, d, m = a * a + 2 * a * b - b * b, abs(a * a - 2 * a * b - b * b), a * a + b * b
                r = Fraction(R * R - d * d, 2 * m)
            cx, cy = gen.small_fraction(rng, 3, 2), gen.small_fraction(rng, 3, 2)
            outer, inner = gen.circle(cx, cy, R * R), gen.circle(cx + d, cy, r * r)
            c1 = _lifted_start(rng, inner,
                               lambda m: gen.circle_point(cx, cy, R, m))
            ops.append(_orbit_op(family, outer, inner, c1, rng.randrange(1000)))
    return ops


WORKLOADS = {
    "check": (check_round, ("Fp:11", "Fp:13", gen.F27.spec())),
    "structure": (structure_round, tuple(F.spec() for F in STRUCTURE_FIELDS)
                  + ("F2k:3", "F2k:4")),
    "orbit-q": (orbit_round, ("Q",)),
}
