from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from spherefield import certify_membership, exact, space_from_sq


@pytest.fixture
def eliminations(monkeypatch):
    """Counts the runs of the library's one bordering loop,
    `spherefield.exact._eliminate`, and the rows they border, from the
    fixture's set-up on."""
    counter = SimpleNamespace(calls=0, rows=0)
    eliminate = exact._eliminate

    def counting(rows, new, steps=None):
        counter.calls += 1
        counter.rows += len(new)
        return eliminate(rows, new, steps)

    monkeypatch.setattr(exact, "_eliminate", counting)
    return counter


@pytest.fixture
def stored_pivots(eliminations):
    """Reads the pivots stored on a space; fails when reading them has to
    run an elimination, that is, when no certificate was stored."""
    def read(space):
        before = eliminations.calls
        pivots = list(certify_membership(space).pd_certificate)
        assert eliminations.calls == before, "no certificate was stored on the space"
        return pivots

    return read


@pytest.fixture
def equilateral():
    """Three points pairwise at squared distance 1 (certified)."""
    return space_from_sq([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


@pytest.fixture
def isoceles():
    """d^2(1,2) = 2, d^2(1,3) = d^2(2,3) = 1: swapping the first two points
    is a self-isometry, but the order distribution is not uniform."""
    return space_from_sq([[0, 2, 1], [2, 0, 1], [1, 1, 0]])


@pytest.fixture
def scalene():
    """All three squared distances different (certified)."""
    return space_from_sq(
        [[0, 1, F(3, 2)], [1, 0, F(1, 2)], [F(3, 2), F(1, 2), 0]]
    )


@pytest.fixture
def orthogonal_pair():
    return space_from_sq([[0, 2], [2, 0]])
