"""Theorem canaries raise TheoremViolation, which survives ``python -O``."""

import ast
import io
import json
import os
import subprocess
import sys

import pytest

import porism
from porism import cli, ecurve, process, projective
from porism.errors import TheoremViolation

SRC = os.path.dirname(porism.__file__)


def test_no_assert_statements_in_the_library():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


def test_every_private_helper_is_used_in_the_library():
    # a _-prefixed function or class (dunders aside) is dead unless some
    # name or attribute in the library reads it outside its own definition
    trees = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                trees.append((name, ast.parse(fh.read(), name)))

    def reads(node):
        return [n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    everywhere = [r for _, tree in trees for r in reads(tree)]
    dead = [f"{name}:{node.lineno} {node.name}" for name, tree in trees
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and everywhere.count(node.name) == reads(node).count(node.name)]
    assert dead == []


CANARY = """
import porism.projective as projective
from porism.errors import TheoremViolation
from porism.fields import PrimeField

assert False, "asserts are stripped under -O"
F5 = PrimeField(5)
outer = projective.Conic(F5, [1, 1, 0, 0, 0, 4])   # x^2 + y^2 - yz
inner = projective.Conic(F5, [1, 0, 0, 0, 0, 4])   # x^2 - yz, type (4,)
projective.classify_normalized = lambda t, a, b: (1, 1, 1, 1)
try:
    projective.classify(outer, inner)
except TheoremViolation as exc:
    print("TheoremViolation:", exc)
"""


def test_a_canary_fires_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    got = subprocess.run([sys.executable, "-O", "-c", CANARY], env=env,
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr
    assert got.stdout.startswith("TheoremViolation: normal form disagrees")


PAIR = ('{"outer": {"field": "Fp:5", "coeffs": [1, 1, 0, 0, 0, 4]}, '
        '"inner": {"field": "Fp:5", "coeffs": [1, 0, 0, 0, 0, 4]}}')

CLI_CANARY = """
import io, sys
import porism.cli as cli
import porism.projective as projective

assert False, "asserts are stripped under -O"
projective.classify_normalized = lambda t, a, b: (1, 1, 1, 1)
sys.stdin = io.StringIO(sys.argv[1])
sys.exit(cli.main(["classify", "-", "--json"]))
"""


def test_classify_through_the_cli_fires_its_canary(monkeypatch, capsys):
    monkeypatch.setattr(projective, "classify_normalized",
                        lambda t, a, b: (1, 1, 1, 1))
    monkeypatch.setattr("sys.stdin", io.StringIO(PAIR))
    assert cli.main(["classify", "-", "--json"]) == cli.EXIT_VIOLATION
    err = capsys.readouterr().err
    assert "theorem violation: normal form disagrees" in err


def test_normalize_through_the_cli_fires_its_canary(monkeypatch, capsys):
    monkeypatch.setattr(projective, "classify_normalized",
                        lambda t, a, b: (1, 1, 1, 1))
    monkeypatch.setattr("sys.stdin", io.StringIO(PAIR))
    assert cli.main(["normalize", "-", "--json"]) == cli.EXIT_VIOLATION
    err = capsys.readouterr().err
    assert "theorem violation: normal form disagrees" in err


def test_classify_through_the_cli_fires_its_canary_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    got = subprocess.run([sys.executable, "-O", "-c", CLI_CANARY, PAIR],
                         env=env, capture_output=True, text=True, timeout=60)
    assert got.returncode == 2, got.stderr
    assert "theorem violation: normal form disagrees" in got.stderr
    assert got.stdout == ""


# x^2 + 3xy + y^2 - 5yz and x^2 - yz over F_13: type (2,1,1), so E has a node
NODE_PAIR = ('{"outer": {"field": "Fp:13", "coeffs": [1, 1, 0, 3, 0, 8]}, '
             '"inner": {"field": "Fp:13", "coeffs": [1, 0, 0, 0, 0, 12]}}')

ECURVE_CANARY = """
import io, sys
import porism.cli as cli
import porism.ecurve as ecurve

assert False, "asserts are stripped under -O"
ecurve._repeated_params = lambda field, at_inf, parts: []
sys.stdin = io.StringIO(sys.argv[1])
sys.exit(cli.main(["ecurve", "-", "--json"]))
"""


def test_ecurve_singular_count_canary_fires(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(NODE_PAIR))
    assert cli.main(["ecurve", "-", "--json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["shape"] == ecurve.SHAPE_NODE
    monkeypatch.setattr(ecurve, "_repeated_params",
                        lambda field, at_inf, parts: [])
    monkeypatch.setattr("sys.stdin", io.StringIO(NODE_PAIR))
    assert cli.main(["ecurve", "-", "--json"]) == cli.EXIT_VIOLATION
    err = capsys.readouterr().err
    assert "theorem violation: node curve with 0 singular points" in err


def test_ecurve_singular_count_canary_fires_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    got = subprocess.run(
        [sys.executable, "-O", "-c", ECURVE_CANARY, NODE_PAIR],
        env=env, capture_output=True, text=True, timeout=60)
    assert got.returncode == 2, got.stderr
    assert "theorem violation: node curve with 0 singular points" in got.stderr
    assert got.stdout == ""


KERNEL_CANARY = """
import json, sys
import porism.cli as cli
import porism.process as process
from porism.errors import NotOnConicError, TheoremViolation

assert False, "asserts are stripped under -O"
cfg = process.PonceletConfig(*cli.read_pair(json.loads(sys.argv[1])))
field = cfg.field
par, params = process._sample_starts(cfg, field.size + 1, 0)
E = process._Incidence(cfg, par)
in_v, _, other, mono = E.fibers
u, v = next((u, (1, t)) for u in params for t in range(field.size)
            if not field._dot(in_v(u), mono((1, t))))
off = next((u, (1, t)) for t in range(field.size)
           if field._dot(in_v(u), mono((1, t))))
try:
    process._orbit(E, off, 10, 0)
except NotOnConicError as exc:
    print("NotOnConicError:", exc)
# the state after one step of (u, v) made a singular point of E
u2, mu2 = other(0, mono(v), u, mono(u))
E.singular = E.singular | {(u2, other(1, mu2, v, mono(v))[0])}
try:
    process._orbit(E, (u, v), 10 * field.size, 0)
except TheoremViolation as exc:
    print("TheoremViolation:", exc)
"""


def test_the_walk_kernels_canaries_fire_under_python_O():
    # a state off E fails the kernel's incidence check, and an orbit forced
    # through a singular point of E fires the tangency canary
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    got = subprocess.run([sys.executable, "-O", "-c", KERNEL_CANARY, NODE_PAIR],
                         env=env, capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr
    assert got.stdout.splitlines() == [
        "NotOnConicError: point does not lie on the incidence curve",
        "TheoremViolation: orbit of a non-tangency start hit a tangency "
        "point; this contradicts invertibility of the step map"]


# the Euler triangle pair over Q, from (4 : 0 : 1): period 3
TRIANGLE = ('{"outer": {"field": "Q", "coeffs": [1, 1, -16, 0, 0, 0]}, '
            '"inner": {"field": "Q", "coeffs": [1, 1, "7/4", 0, -4, 0]}, '
            '"c1": [4, 0, 1]}')


def force_a_tangency_hit(monkeypatch):
    """Put the state of each walk's first step into E's singular set."""
    wrapped = process._orbit

    def forced(E, initial, *args):
        other, mono = E.fibers[2:]
        (u, v), (mu, mv) = initial, map(mono, initial)
        u, mu = other(0, mv, u, mu)
        E.singular = E.singular | {(u, other(1, mu, v, mv)[0])}
        return wrapped(E, initial, *args)
    monkeypatch.setattr(process, "_orbit", forced)


def test_a_walk_onto_a_singular_point_of_e_fires_its_canary(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(TRIANGLE))
    assert cli.main(["run", "-", "--json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["period"] == 3
    outer, inner = cli.read_pair(json.loads(NODE_PAIR))
    cfg = process.PonceletConfig(outer, inner)
    assert process.porism_check(cfg).passed
    force_a_tangency_hit(monkeypatch)
    message = "orbit of a non-tangency start hit a tangency point"
    with pytest.raises(TheoremViolation, match=message):
        process.porism_check(cfg)
    monkeypatch.setattr("sys.stdin", io.StringIO(TRIANGLE))
    assert cli.main(["run", "-", "--json"]) == cli.EXIT_VIOLATION
    assert f"theorem violation: {message}" in capsys.readouterr().err


CHAR2_CANARY = """
import porism.char2 as char2
from porism.errors import TheoremViolation
from porism.fields import binary_field

assert False, "asserts are stripped under -O"
F8 = binary_field(3)
q = char2.QuadraticForm2(F8, 2, {(0, 0): 1, (0, 1): 1})   # x0^2 + x0 x1
print(char2.symplectic_normalize(q))
# a corrupted basis: the pair (v, w) kept as it is, q(v) = 1 not split off
char2._inv2 = lambda m, field: ((field.one, field.zero), (field.zero, field.one))
try:
    char2.symplectic_normalize(q)
except TheoremViolation as exc:
    print("TheoremViolation:", exc)
"""


def test_a_corrupted_char2_basis_fires_its_canary_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    got = subprocess.run([sys.executable, "-O", "-c", CHAR2_CANARY], env=env,
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr
    assert got.stdout.splitlines() == [
        "CanonicalForm2(l=1, lifted=False)",
        "TheoremViolation: basis does not give the canonical form"]
