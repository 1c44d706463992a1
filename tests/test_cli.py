import json
import os
import subprocess
import sys

import pytest

import porism
from porism.cli import conic_json, main, read_conic
from porism.projective import Conic

from conftest import random_smooth_conic

PAIR_F5_TYPE4 = {
    "outer": {"field": "Fp:5",
              "coeffs": ["1", "1", "0", "0", "0", "4"]},  # x^2 + y^2 - yz
    "inner": {"field": "Fp:5",
              "coeffs": ["1", "0", "0", "0", "0", "4"]},  # x^2 - yz
}

PAIR_Q_TRIANGLE = {
    "outer": {"field": "Q", "coeffs": ["1", "1", "-16", "0", "0", "0"]},
    "inner": {"field": "Q", "coeffs": ["1", "1", "7/4", "0", "-4", "0"]},
    "c1": ["4", "0", "1"],
}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_conic_json_round_trip(F13):
    import random
    rng = random.Random(0)
    for _ in range(20):
        conic = random_smooth_conic(F13, rng)
        assert read_conic(conic_json(conic)) == conic


def test_classify_json(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", PAIR_F5_TYPE4)
    code, out, _ = run_cli(capsys, "classify", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "(4)"
    assert data["normal_form"] == {"t": "0", "a": "1", "b": "1", "delta": "0"}
    assert len(data["tangency_points"]) == 1
    assert data["tangency_points"][0]["coords"] == ["0", "0", "1"]


def test_normalize_identity_for_normal_pair(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", PAIR_F5_TYPE4)
    code, out, _ = run_cli(capsys, "normalize", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["matrix"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


NORMALIZE_GOLDEN = [
    # F_13, type (2,1,1)
    ({"outer": {"field": "Fp:13", "coeffs": ["-3", "2", "3", "2", "-2", "-1"]},
      "inner": {"field": "Fp:13", "coeffs": ["3", "-3", "2", "0", "3", "0"]}},
     {"t": "8", "a": "1", "b": "5", "delta": "2",
      "matrix": [["12", "8", "3"], ["12", "3", "1"], ["7", "11", "8"]]}),
    # F_13, type (2,2) with conjugate tangency points: the transform lies
    # over F_{13^2}
    ({"outer": {"field": "Fp:13", "coeffs": ["-2", "-1", "-3", "2", "3", "0"]},
      "inner": {"field": "Fp:13", "coeffs": ["1", "3", "-3", "-1", "3", "0"]}},
     {"t": "6,3", "a": "1,5", "b": "7,0", "delta": "0,0",
      "matrix": [["7,12", "2,2", "7,10"], ["6,6", "0,5", "1,0"],
                 ["10,8", "2,8", "12,8"]]}),
    # Q, type (3,1): x^2 + 2xy + 3y^2 - yz and x^2 - yz pulled back by the
    # integer matrix [[1, 1, 0], [0, 1, 2], [1, 0, 1]]
    ({"outer": {"field": "Q", "coeffs": ["1", "6", "10", "3", "2", "15"]},
      "inner": {"field": "Q", "coeffs": ["1", "1", "-2", "1", "-2", "-1"]}},
     {"t": "2", "a": "5/2", "b": "1", "delta": "4",
      "matrix": [["1/2", "5/8", "1/4"], ["0", "1/2", "1"],
                 ["3/4", "9/32", "9/16"]]}),
]


@pytest.mark.parametrize("pair,want", NORMALIZE_GOLDEN)
def test_normalize_golden_output(tmp_path, capsys, pair, want):
    path = write_json(tmp_path, "pair.json", pair)
    code, out, _ = run_cli(capsys, "normalize", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert {key: data[key] for key in want} == want


def test_run_closed_triangle(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", PAIR_Q_TRIANGLE)
    code, out, _ = run_cli(capsys, "run", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "closed"
    assert data["period"] == 3
    assert data["type"] == "(1,1,1,1)"
    assert len(data["orbit"]) == 3


def test_porism_check_pass_and_periods(tmp_path, capsys):
    obj = dict(PAIR_F5_TYPE4)
    obj["num_starts"] = 4
    path = write_json(tmp_path, "pair.json", obj)
    code, out, _ = run_cli(capsys, "porism-check", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["spectrum"] == [5]


def test_ecurve_reports_split(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", PAIR_F5_TYPE4)
    code, out, _ = run_cli(capsys, "ecurve", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["shape"] == "two components, double contact"
    assert data["reducible"] is True
    assert len(data["singular_points"]) == 1


def test_char2_normalize(tmp_path, capsys):
    obj = {"field": "F2k:2", "n": 3,
           "coeffs": {"0,1": "1", "2,2": "1"}}
    path = write_json(tmp_path, "form.json", obj)
    code, out, _ = run_cli(capsys, "char2-normalize", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["l"] == 1 and data["has_square_term"] is True
    assert data["lifted"] is False


def test_char2_strange_point(tmp_path, capsys):
    obj = {"field": "F2k:3", "coeffs": ["0", "0", "1", "1", "0", "0"]}
    path = write_json(tmp_path, "conic.json", obj)
    code, out, _ = run_cli(capsys, "char2-strange-point", path, "--json")
    assert code == 0
    data = json.loads(out)
    # coordinates of F8 elements render as comma lists over the prime field
    assert data["strange_point"]["coords"] == ["0,0,0", "0,0,0", "1,0,0"]
    assert data["transcript"]
    assert all(t["through_strange_point"] for t in data["transcript"])


def test_bad_input_exits_one(tmp_path, capsys):
    obj = dict(PAIR_F5_TYPE4)
    obj["inner"] = obj["outer"]  # same conic twice
    path = write_json(tmp_path, "pair.json", obj)
    code, out, err = run_cli(capsys, "classify", path)
    assert code == 1
    assert "error" in json.loads(err)


def test_usage_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "no-such-command")
    assert code == 1
    assert err


def test_finite_field_render_refused(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", PAIR_F5_TYPE4)
    code, _, err = run_cli(capsys, "render-svg", path)
    assert code == 1
    assert "embedding" in json.loads(err)["error"]


def test_render_svg_is_byte_deterministic(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", PAIR_Q_TRIANGLE)
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert main(["render-svg", path, "--output", str(out1)]) == 0
    assert main(["render-svg", path, "--output", str(out2)]) == 0
    svg = out1.read_text()
    assert svg == out2.read_text()
    assert svg.startswith("<?xml")
    # a closed triangle: three chords
    assert svg.count('class="chord"') == 3


def test_output_flag_writes_file(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", PAIR_F5_TYPE4)
    out = tmp_path / "result.json"
    code = main(["classify", path, "--json", "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["type"] == "(4)"


def test_sweep_deterministic_across_jobs(tmp_path, capsys):
    seq = tmp_path / "seq.jsonl"
    par = tmp_path / "par.jsonl"
    base = ["sweep", "--field", "Fp:11", "--count", "6", "--seed", "42",
            "--num-starts", "4"]
    assert main(base + ["--jobs", "1", "--output", str(seq)]) == 0
    assert main(base + ["--jobs", "3", "--output", str(par)]) == 0
    recs_seq = [json.loads(l) for l in seq.read_text().splitlines()]
    recs_par = [json.loads(l) for l in par.read_text().splitlines()]
    for rec in recs_seq + recs_par:
        rec.pop("elapsed_ms")  # wall-clock timing is the one nondeterminism
    assert recs_seq == recs_par
    assert all(r["pass"] for r in recs_seq)
    # and running the same sweep again reproduces the records byte-for-byte
    rerun = tmp_path / "rerun.jsonl"
    assert main(base + ["--jobs", "1", "--output", str(rerun)]) == 0
    recs2 = [json.loads(l) for l in rerun.read_text().splitlines()]
    for rec in recs2:
        rec.pop("elapsed_ms")
    assert recs2 == recs_seq


def test_extension_overflow_is_an_input_error(tmp_path, capsys):
    # the tangents from the start touch the inner circle only over a second
    # quadratic extension of Q, beyond the supported tower
    obj = {"outer": {"field": "Qsqrt:2", "coeffs": ["1", "1", "-16", "0", "0", "0"]},
           "inner": {"field": "Qsqrt:2", "coeffs": ["1", "1", "-1", "0", "0", "0"]}}
    path = write_json(tmp_path, "pair.json", obj)
    code, out, err = run_cli(capsys, "run", path, "--json")
    assert code == 1 and out == ""
    assert "quadratic step" in json.loads(err)["error"]


def test_successive_calls_match_fresh_processes(tmp_path, capsys):
    # main builds its parser once and reuses it: flags given to one call
    # must not carry over to the next
    pair = write_json(tmp_path, "pair.json", PAIR_F5_TYPE4)
    triangle = write_json(tmp_path, "triangle.json", PAIR_Q_TRIANGLE)
    calls = [["porism-check", pair, "--json", "--seed", "3"],
             ["--seed", "5", "run", triangle, "--max-steps", "2", "--json"],
             ["run", triangle],
             ["classify", pair, "--json"],
             ["no-such-command"],
             ["ecurve", pair]]
    src = os.path.dirname(os.path.dirname(porism.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in calls:
        got = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "porism.cli", *argv],
                               env=env, capture_output=True, text=True)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_bad_binary_field_degree_exits_one(tmp_path, capsys):
    for k in ("0", "-1"):
        pair = {name: {"field": f"F2k:{k}", "coeffs": ["1", "1", "1", "0", "0", "0"]}
                for name in ("outer", "inner")}
        path = write_json(tmp_path, "pair.json", pair)
        code, _, err = run_cli(capsys, "classify", path)
        assert code == 1
        assert "between 1 and 20" in json.loads(err)["error"]


def test_char2_strange_point_stops_at_its_limit(tmp_path, capsys):
    # 2^20 candidate points [x:y:1]; the first ten on the conic come early
    obj = {"field": "F2k:10", "coeffs": ["0", "0", "1", "1", "0", "0"]}
    path = write_json(tmp_path, "conic.json", obj)
    code, out, _ = run_cli(capsys, "char2-strange-point", path, "--json")
    assert code == 0
    transcript = json.loads(out)["transcript"]
    assert len(transcript) == 10
    assert all(t["through_strange_point"] for t in transcript)


def char2_points_by_enumeration(conic, limit):
    """Every candidate [x:y:1], [x:1:0], [1:0:0] in order, tested on the conic."""
    from itertools import chain, islice
    from porism.projective import ProjPoint
    field = conic.field
    one, zero = field.one, field.zero
    candidates = chain(
        (ProjPoint(field, [x, y, one])
         for x in field.elements() for y in field.elements()),
        (ProjPoint(field, [x, one, zero]) for x in field.elements()),
        [ProjPoint(field, [one, zero, zero])])
    return list(islice((p for p in candidates if conic.contains(p)), limit))


def test_char2_points_match_the_enumeration():
    import random
    from porism.cli import _char2_conic_points, point_json
    from porism.fields import parse_field_spec
    rng = random.Random(6)
    for k in (3, 4, 5, 6):
        field = parse_field_spec(f"F2k:{k}")
        conics = [[0, 0, 1, 1, 0, 0], [1, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0],
                  [0, 1, 0, 0, 1, 0], [1, 1, 1, 1, 1, 1]]
        for _ in range(6):
            coeffs = [field.element(rng.randrange(field.size)) for _ in range(6)]
            if rng.random() < 0.5:
                coeffs[1] = field.zero    # a11 = 0: linear in y
            conics.append(coeffs)
        for coeffs in conics:
            try:
                conic = Conic(field, coeffs)
            except ValueError:
                continue
            # every point of the conic on the smaller fields
            for limit in (10, 2 * field.size + 3)[:1 if k > 4 else 2]:
                got = [point_json(p) for p in _char2_conic_points(conic, limit)]
                want = [point_json(p)
                        for p in char2_points_by_enumeration(conic, limit)]
                assert json.dumps(got) == json.dumps(want)


def test_char2_strange_point_over_f2_20(tmp_path, capsys):
    obj = {"field": "F2k:20", "coeffs": ["0", "0", "1", "1", "0", "0"]}
    path = write_json(tmp_path, "conic.json", obj)
    code, out, _ = run_cli(capsys, "char2-strange-point", path, "--json")
    assert code == 0
    transcript = json.loads(out)["transcript"]
    assert len(transcript) == 10
    assert all(t["through_strange_point"] for t in transcript)


def test_theorem_violation_is_the_json_error_line(tmp_path, capsys, monkeypatch):
    import porism.process
    from porism.errors import TheoremViolation

    def broken(*args):
        raise TheoremViolation("orbit hit a tangency point")
    monkeypatch.setattr(porism.process, "_orbit", broken)
    path = write_json(tmp_path, "pair.json", PAIR_Q_TRIANGLE)
    code, out, err = run_cli(capsys, "run", path, "--json")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert "orbit hit a tangency point" in json.loads(err)["error"]


@pytest.mark.parametrize("command, obj", [
    ("char2-normalize", {"field": "F2k:2", "n": 3, "coeffs": [1, 2]}),
    ("porism-check", dict(PAIR_F5_TYPE4, num_starts=[1])),
    ("porism-check", dict(PAIR_F5_TYPE4, num_starts=None)),
    ("classify", [PAIR_F5_TYPE4]),
    ("classify", dict(PAIR_F5_TYPE4, outer={"field": 5, "coeffs": [1] * 6})),
    ("classify", {"outer": {"field": "Q", "coeffs": ["1/0", 1, 1, 0, 0, 0]},
                  "inner": PAIR_Q_TRIANGLE["inner"]}),
])
def test_malformed_json_is_an_input_error(tmp_path, capsys, command, obj):
    path = write_json(tmp_path, "input.json", obj)
    code, out, err = run_cli(capsys, command, path, "--json")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and json.loads(err)["error"]


def test_num_starts_below_one_is_an_input_error(tmp_path, capsys):
    for n in (0, -1):
        path = write_json(tmp_path, "pair.json", dict(PAIR_F5_TYPE4, num_starts=n))
        code, out, err = run_cli(capsys, "porism-check", path, "--json")
        assert code == 1 and out == ""
        assert "num_starts" in json.loads(err)["error"]
    code, out, err = run_cli(capsys, "sweep", "--field", "Fp:11", "--count", "1",
                             "--num-starts", "0")
    assert code == 1 and out == ""
    assert "num_starts" in json.loads(err)["error"]


def test_negative_max_steps_is_an_input_error(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", PAIR_Q_TRIANGLE)
    code, out, err = run_cli(capsys, "run", path, "--json", "--max-steps", "-5")
    assert code == 1 and out == ""
    assert "max_steps" in json.loads(err)["error"]
    code, out, _ = run_cli(capsys, "run", path, "--json", "--max-steps", "0")
    assert code == 0
    data = json.loads(out)
    assert (data["outcome"], data["steps"]) == ("open", 0)


def test_num_starts_over_q_is_bounded(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", dict(PAIR_Q_TRIANGLE, num_starts=177))
    code, out, _ = run_cli(capsys, "porism-check", path, "--json")
    assert code == 0 and json.loads(out)["periods"] == [3] * 177
    path = write_json(tmp_path, "pair.json", dict(PAIR_Q_TRIANGLE, num_starts=178))
    code, out, err = run_cli(capsys, "porism-check", path, "--json")
    assert code == 1 and out == ""
    assert "at most 177" in json.loads(err)["error"]


def test_char2_normalize_bounds_n(tmp_path, capsys):
    for n, want in ((-1, 1), (0, 1), (33, 1), (32, 0)):
        obj = {"field": "F2k:2", "n": n, "coeffs": {"0,1": "1"}}
        path = write_json(tmp_path, "form.json", obj)
        code, out, err = run_cli(capsys, "char2-normalize", path, "--json")
        assert code == want, n
        if want:
            assert out == "" and "between 1 and 32" in json.loads(err)["error"]
        else:
            assert len(json.loads(out)["matrix"]) == 32


def test_lifts_over_q_name_the_squarefree_radicand(tmp_path, capsys):
    # the concentric circles' tangency points need sqrt(-4), so Q(i); the
    # start (28:15:1) needs sqrt(63552/43681) = (8/209) sqrt(993)
    circles = {"outer": {"field": "Q", "coeffs": [1, 1, -16, 0, 0, 0]},
               "inner": {"field": "Q", "coeffs": [1, 1, -1, 0, 0, 0]}}
    code, out, _ = run_cli(capsys, "classify",
                           write_json(tmp_path, "circles.json", circles), "--json")
    assert code == 0
    assert {p["field"] for p in json.loads(out)["tangency_points"]} == {"Qsqrt:-1"}
    start = {"outer": {"field": "Q", "coeffs": [1, 1, -1009, 0, 0, 0]},
             "inner": {"field": "Q", "coeffs": [1, 1, -16, 0, 0, 0]},
             "c1": [28, 15, 1]}
    code, out, _ = run_cli(capsys, "run", write_json(tmp_path, "start.json", start),
                           "--json", "--max-steps", "2")
    result = json.loads(out)
    assert code == 0 and result["lifted"]
    assert {s[k]["field"] for s in result["orbit"] for k in "cd"} == {"Qsqrt:993"}


def test_classify_without_a_small_rational_point_is_an_input_error(tmp_path,
                                                                   capsys):
    # x^2 + y^2 - 1009 z^2 has the point (28:15:1), but none with
    # y = n/d, |n| <= 12, d <= 4, which is as far as the search goes
    obj = {"outer": {"field": "Q", "coeffs": [1, 1, -16, 0, 0, 0]},
           "inner": {"field": "Q", "coeffs": [1, 1, -1009, 0, 0, 0]}}
    path = write_json(tmp_path, "pair.json", obj)
    code, out, err = run_cli(capsys, "classify", path, "--json")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == (
        "no rational point [x : y : 1] with y = n/d, |n| <= 12, 1 <= d <= 4 "
        "on the conic")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-text digit limit")
def test_digit_limit_is_an_input_error_naming_max_steps(tmp_path, capsys):
    # an open pair over Q: the orbit's coordinates grow with every step
    obj = {"outer": {"field": "Q", "coeffs": [1, 1, -25, 0, 0, 0]},
           "inner": {"field": "Q", "coeffs": [1, 1, -3, 0, -2, 0]},
           "c1": [3, 4, 1]}
    path = write_json(tmp_path, "pair.json", obj)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for steps in (12, 24):
            code, out, _ = run_cli(capsys, "run", path, "--json",
                                   "--max-steps", str(steps))
            assert code == 0 and json.loads(out)["outcome"] == "open"
        code, out, err = run_cli(capsys, "run", path, "--json", "--max-steps", "30")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1 and out == ""
    message = json.loads(err)["error"]
    assert "640 digits" in message and "--max-steps" in message


PAIR_Q_OPEN = {"outer": {"field": "Q", "coeffs": [1, 1, -25, 0, 0, 0]},
               "inner": {"field": "Q", "coeffs": [1, 1, -3, 0, -2, 0]},
               "c1": [3, 4, 1]}


def test_render_svg_of_an_open_run_draws_its_first_eight_chords(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", PAIR_Q_OPEN)
    code, svg, _ = run_cli(capsys, "render-svg", path, "--max-steps", "12")
    assert code == 0
    assert svg.count('class="chord"') == 8 and svg.count("<circle") == 9
    assert run_cli(capsys, "render-svg", path, "--max-steps", "12")[1] == svg
    code, svg, _ = run_cli(capsys, "render-svg", path, "--max-steps", "6")
    assert code == 0 and svg.count('class="chord"') == 6


def test_truncated_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text('{"outer":')
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["error"].startswith("cannot read input: ")


@pytest.mark.parametrize("c1, message", [
    ([3, 5, 1], "start point is not on the outer conic"),
    (["x", 4, 1], "bad start point: "),
], ids=["off-the-conic", "malformed"])
def test_run_refuses_a_bad_start_point(tmp_path, capsys, c1, message):
    path = write_json(tmp_path, "pair.json", dict(PAIR_Q_OPEN, c1=c1))
    code, out, err = run_cli(capsys, "run", path, "--max-steps", "2")
    assert code == 1 and out == ""
    assert json.loads(err)["error"].startswith(message)


def test_run_without_a_start_point_samples_one(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", PAIR_F5_TYPE4)
    code, out, _ = run_cli(capsys, "run", path, "--json")
    assert code == 0
    assert json.loads(out)["outcome"] == "closed"


@pytest.mark.parametrize("obj, message", [
    ({"field": "Fp:7", "coeffs": [1, 1, 1, 0, 0, 0]},
     "char2-strange-point needs a characteristic-2 field"),
    ({"field": "F2k:2", "coeffs": [0, 0, 0, 1, 0, 0]},
     "reducible conic has no strange point"),
], ids=["odd-characteristic", "reducible"])
def test_char2_strange_point_refuses(tmp_path, capsys, obj, message):
    path = write_json(tmp_path, "conic.json", obj)
    code, out, err = run_cli(capsys, "char2-strange-point", path)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == message


@pytest.fixture
def digit_limit_640():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-text digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


BIG = "-" + "7" * 701  # past a digit limit of 640
DIGITS = "a number has more than 640 digits, Python's int-to-text limit"


@pytest.mark.parametrize("command, obj, quoted, prefix", [
    ("classify", {"outer": {"field": "Q", "coeffs": [1, 1, "BIG", 0, 0, 0]},
                  "inner": PAIR_Q_OPEN["inner"]}, False, "cannot read input"),
    ("classify", {"outer": {"field": "Q", "coeffs": [1, 1, "BIG", 0, 0, 0]},
                  "inner": PAIR_Q_OPEN["inner"]}, True, "bad conic JSON"),
    ("classify", dict(PAIR_F5_TYPE4, outer={"field": "Fp:5",
                                            "coeffs": [1, 1, "BIG", 0, 0, 4]}),
     False, "cannot read input"),
    ("classify", dict(PAIR_F5_TYPE4, outer={"field": "Fp:5",
                                            "coeffs": [1, 1, "BIG", 0, 0, 4]}),
     True, "bad conic JSON"),
    ("run", dict(PAIR_Q_OPEN, c1=[3, 4, "BIG"]), True, "bad start point"),
    ("porism-check", dict(PAIR_F5_TYPE4, num_starts="BIG"), False,
     "cannot read input"),
    ("char2-normalize", {"field": "F2k:2", "n": 2, "coeffs": {"0,1": "BIG"}},
     True, "bad quadratic form JSON"),
    ("porism-check", dict(PAIR_F5_TYPE4, num_starts="BIG"), True,
     "bad num_starts"),
    ("char2-normalize", {"field": "F2k:2", "n": "BIG", "coeffs": {}}, True,
     "bad quadratic form JSON"),
    ("char2-normalize", {"field": "F2k:2", "n": 2, "coeffs": {"BIG": 1}}, True,
     "bad quadratic form JSON"),
], ids=["q-number", "q-string", "fp-number", "fp-string", "c1", "num-starts",
        "char2-coefficient", "num-starts-string", "char2-n", "char2-key"])
def test_a_number_past_the_digit_limit_is_an_input_error(
        tmp_path, capsys, digit_limit_640, command, obj, quoted, prefix):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj).replace('"BIG"', f'"{BIG}"' if quoted else BIG))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == f"{prefix}: {DIGITS}"


def test_extension_overflow_names_the_missing_square_root(tmp_path, capsys):
    # over Q(sqrt 2) the tangency points of these concentric circles need
    # sqrt(-4), a second quadratic step above Q
    obj = {"outer": {"field": "Qsqrt:2", "coeffs": ["1", "1", "-16", "0", "0", "0"]},
           "inner": {"field": "Qsqrt:2", "coeffs": ["1", "1", "-1", "0", "0", "0"]}}
    path = write_json(tmp_path, "pair.json", obj)
    code, out, err = run_cli(capsys, "run", path, "--json")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == (
        "the square root of -4+0*sqrt(2) needs a second quadratic step above "
        "Q; only one is supported")


@pytest.mark.parametrize("spec", ["Q", "Qsqrt:2"])
def test_sweep_refuses_an_infinite_field(capsys, spec):
    code, out, err = run_cli(capsys, "sweep", "--field", spec, "--count", "2")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "sweep draws random conics and needs a finite field"}


@pytest.mark.parametrize("flag, value", [("--count", "-3"), ("--count", "0"),
                                         ("--jobs", "-2"), ("--jobs", "0")])
def test_sweep_refuses_a_count_or_jobs_below_one(capsys, flag, value):
    code, out, err = run_cli(capsys, "sweep", "--field", "Fp:11",
                             "--num-starts", "3", flag, value)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": f"{flag} must be at least 1"}


def test_sweep_starts_no_more_workers_than_tasks(capsys, monkeypatch):
    import multiprocessing
    asked = []

    class FakePool:
        """Records the worker count asked for and runs in this process."""

        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    base = ["sweep", "--field", "Fp:11", "--count", "2", "--num-starts", "3"]

    def records(jobs):
        code, out, _ = run_cli(capsys, *base, "--jobs", jobs)
        recs = [json.loads(line) for line in out.splitlines()]
        for rec in recs:
            rec.pop("elapsed_ms")
        return code, recs

    many = records("100000")
    assert all(n <= 2 for n in asked) and not multiprocessing.active_children()
    assert len(many[1]) == 2 and many == records("1")


def test_sweep_below_char_steps_passes_osculating_pairs(capsys):
    # within 2 < char steps every start of an osculating pair stays open,
    # as the osculating law (period exactly char) requires
    code, out, _ = run_cli(capsys, "sweep", "--field", "Fp:3", "--count", "300",
                           "--num-starts", "2", "--max-steps", "2")
    recs = [json.loads(line) for line in out.splitlines()]
    osculating = [r for r in recs if r["type"] in ("(3,1)", "(4)")]
    assert code == 0 and osculating
    assert all(r["periods"] == [0, 0] and r["pass"] for r in osculating)


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith("cannot read input: ")


@pytest.mark.parametrize("raw", ["1e400", "2.5", "true"])
@pytest.mark.parametrize("command, obj, prefix", [
    ("porism-check", dict(PAIR_F5_TYPE4, num_starts="X"), "bad num_starts"),
    ("char2-normalize", {"field": "F2k:2", "n": "X", "coeffs": {"0,1": 1}},
     "bad quadratic form JSON"),
    ("char2-normalize", {"field": "F2k:2", "n": 2, "coeffs": {"X,1": 1}},
     "bad quadratic form JSON"),
], ids=["num-starts", "char2-n", "char2-key"])
def test_a_json_integer_field_takes_only_integers(tmp_path, capsys, command,
                                                  obj, prefix, raw):
    text = json.dumps(obj)
    # a key part is always text; a value is the raw JSON number or literal
    text = text.replace('"X,1"', f'"{raw},1"').replace('"X"', raw)
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith(prefix + ": ")


def test_ecurve_reports_a_split_whose_components_need_a_second_root(tmp_path, capsys):
    # x^2 - 3yz with x^2 - yz, type (2,2): the components need sqrt(24),
    # one quadratic step above Q but a second one above Q(sqrt 2)
    for spec, factored in (("Qsqrt:2", False), ("Q", True)):
        obj = {"outer": {"field": spec, "coeffs": [1, 0, 0, 0, 0, -3]},
               "inner": {"field": spec, "coeffs": [1, 0, 0, 0, 0, -1]}}
        path = write_json(tmp_path, "pair.json", obj)
        code, out, err = run_cli(capsys, "ecurve", path, "--json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["shape"] == "two components, transversal"
        assert data["reducible"] is True and len(data["singular_points"]) == 2
        assert ("factors" in data) is ("split_lifted" in data) is factored
        if factored:
            assert data["split_lifted"] is True


@pytest.mark.parametrize("command, obj, message", [
    ("classify", dict(PAIR_F5_TYPE4, outer={"field": "Fp:5", "coeffs": "110004"}),
     "bad conic JSON: coeffs must be an array"),
    ("run", dict(PAIR_F5_TYPE4, c1="001"), "bad start point: c1 must be an array"),
    ("char2-strange-point", {"field": "F2k:3", "coeffs": "001100"},
     "bad conic JSON: coeffs must be an array"),
], ids=["classify", "run-c1", "char2-strange-point"])
def test_a_json_string_is_not_a_list_of_coordinates(tmp_path, capsys, command,
                                                    obj, message):
    # a string of six digits is not six one-digit coefficients
    path = write_json(tmp_path, "input.json", obj)
    code, out, err = run_cli(capsys, command, path)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and json.loads(err)["error"] == message


def test_an_inner_conic_over_another_field_is_an_input_error(tmp_path, capsys):
    obj = {"outer": {"field": "Fp:13", "coeffs": [1, 1, 0, 0, 0, -1]},
           "inner": {"field": "Fp:7", "coeffs": [1, 0, 0, 0, 0, -1]}}
    code, out, err = run_cli(capsys, "classify", write_json(tmp_path, "a.json", obj))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "conics over different fields"}
    # another spelling of the outer conic's field, or none, is that field
    for named in ({"field": "Fp:013"}, {}):
        obj["inner"] = dict(named, coeffs=[1, 0, 0, 0, 0, -1])
        code, out, err = run_cli(capsys, "classify",
                                 write_json(tmp_path, "b.json", obj))
        assert (code, err) == (0, "") and out.startswith("type: (4)\n")
