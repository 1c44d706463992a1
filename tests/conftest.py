import random

import pytest

from porism.fields import PrimeField, RationalField
from porism.projective import Conic, ProjPoint


@pytest.fixture
def F5():
    return PrimeField(5)


@pytest.fixture
def F7():
    return PrimeField(7)


@pytest.fixture
def F11():
    return PrimeField(11)


@pytest.fixture
def F13():
    return PrimeField(13)


@pytest.fixture
def Q():
    return RationalField()


def random_smooth_conic(field, rng):
    """A uniformly random smooth conic over a finite field: coefficients
    are drawn from all its elements (over F_p, residue n is element n)."""
    elems = list(field.elements())
    while True:
        coeffs = [elems[rng.randrange(field.size)] for _ in range(6)]
        try:
            conic = Conic(field, coeffs)
        except ValueError:
            continue
        if conic.is_smooth():
            return conic


def random_smooth_pair(field, rng):
    outer = random_smooth_conic(field, rng)
    inner = random_smooth_conic(field, rng)
    while inner == outer:
        inner = random_smooth_conic(field, rng)
    return outer, inner


def plane_points(field):
    """All points of the projective plane over a finite field."""
    pts = [ProjPoint(field, [1, 0, 0])]
    for y in field.elements():
        pts.append(ProjPoint(field, [y, field.one, field.zero]))
        for x in field.elements():
            pts.append(ProjPoint(field, [x, y, field.one]))
    return pts
