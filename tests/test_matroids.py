"""Matroid oracles: axioms, ranks, bases, polytope membership."""

import itertools

import numpy as np
import pytest

from matprophet import (EnumerationCapError, GraphicMatroid, PartitionMatroid,
                        UniformMatroid)
from matprophet.matroids import POLYTOPE_CAP


def k3():
    return GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])


def k4():
    edges = list(itertools.combinations(range(4), 2))
    return GraphicMatroid(4, edges)


def check_axioms(m):
    """Exhaustively check downward closure and the exchange property."""
    subsets = [frozenset(s) for r in range(m.n + 1)
               for s in itertools.combinations(range(m.n), r)]
    indep = {s for s in subsets if m.is_independent(s)}
    assert frozenset() in indep
    for s in indep:
        for e in s:
            assert s - {e} in indep, f"downward closure fails at {s}"
    for small in indep:
        for big in indep:
            if len(big) != len(small) + 1:
                continue
            assert any(small | {e} in indep for e in big - small), \
                f"exchange fails for {small} into {big}"


def test_axioms_graphic_k4():
    check_axioms(k4())


def test_axioms_graphic_parallel():
    check_axioms(GraphicMatroid(3, [(0, 1), (0, 1), (1, 2), (0, 2)]))


def test_axioms_uniform():
    check_axioms(UniformMatroid(5, 2))


def test_axioms_partition():
    check_axioms(PartitionMatroid([(0, 1, 2), (3, 4)], [2, 1]))


def test_graphic_validation():
    with pytest.raises(ValueError):
        GraphicMatroid(2, [(0, 0)])  # self loop
    with pytest.raises(ValueError):
        GraphicMatroid(2, [(0, 2)])  # endpoint out of range
    g = GraphicMatroid(2, [(0, 1), (0, 1)])  # parallel edges are fine
    assert g.rank([0, 1]) == 1
    assert not g.is_independent([0, 1])


def test_element_validation():
    m = k3()
    with pytest.raises(ValueError):
        m.rank([0, 0])
    with pytest.raises(ValueError):
        m.rank([3])
    with pytest.raises(ValueError):
        m.rank([-1])


def test_graphic_rank_and_span():
    m = k3()
    assert m.rank([]) == 0
    assert m.rank([0]) == 1
    assert m.rank([0, 1]) == 2
    assert m.rank([0, 1, 2]) == 2


def test_partition_validation():
    with pytest.raises(ValueError):
        PartitionMatroid([(0, 1), (1, 2)], [1, 1])  # overlap
    with pytest.raises(ValueError):
        PartitionMatroid([(0,), (2,)], [1, 1])  # gap
    m = PartitionMatroid([(0, 2), (1,)], [1, 1])
    assert m.is_independent([0, 1])
    assert not m.is_independent([0, 2])


def test_uniform_rank():
    m = UniformMatroid(4, 2)
    assert m.rank([0, 1, 2]) == 2
    assert m.is_independent([1, 3])
    assert not m.is_independent([0, 1, 2])


def test_max_weight_basis_ties_and_zeros():
    m = k3()
    # tie between edges 0 and 1 goes to the lower index
    basis = m.max_weight_basis([2.0, 2.0, 1.0])
    assert basis == (0, 1)
    # zero-weight items are never picked, negatives are rejected outright
    assert m.max_weight_basis([0.0, 0.0, 3.0]) == (2,)
    assert m.max_weight_basis([0.0, 0.0, 0.0]) == ()
    with pytest.raises(ValueError):
        m.max_weight_basis([0.0, -1.0, 3.0])


def test_max_weight_basis_matches_bruteforce():
    rng = np.random.default_rng(11)
    m = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 2)])
    for _ in range(60):
        w = np.round(rng.random(m.n) * 3.0, 3)
        w[rng.random(m.n) < 0.3] = 0.0
        best = 0.0
        for r in range(m.n + 1):
            for s in itertools.combinations(range(m.n), r):
                if m.is_independent(s):
                    best = max(best, float(sum(w[e] for e in s)))
        got = sum(w[e] for e in m.max_weight_basis(w))
        assert got == pytest.approx(best, abs=1e-12)


def test_polytope_membership_k3():
    m = k3()
    p = np.array([2 / 3, 2 / 3, 2 / 3])
    assert m.in_polytope(p)
    assert m.polytope_slack(p) == pytest.approx(0.0, abs=1e-12)
    assert not m.in_polytope(p + 0.05)
    assert m.polytope_slack(np.array([1.0, 1.0, 0.0])) == pytest.approx(0.0)
    assert not m.in_polytope([1.0, 1.0, 0.1])


def test_polytope_slack_bruteforce():
    rng = np.random.default_rng(5)
    m = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    for _ in range(40):
        p = rng.random(m.n)
        want = min(
            m.rank(s) - sum(p[e] for e in s)
            for r in range(1, m.n + 1)
            for s in itertools.combinations(range(m.n), r))
        assert m.polytope_slack(p) == pytest.approx(want, abs=1e-12)


def test_polytope_cap():
    n = POLYTOPE_CAP + 1
    m = UniformMatroid(n, 2)
    with pytest.raises(EnumerationCapError):
        m.polytope_slack(np.full(n, 0.01))


def test_polytope_rejects_negative_and_big():
    m = UniformMatroid(3, 2)
    with pytest.raises(ValueError):
        m.in_polytope([-0.01, 0.5, 0.5])
    assert not m.in_polytope([1.01, 0.0, 0.0])
    assert m.in_polytope([1.0, 1.0, 0.0])
