"""Matroid oracles: axioms, ranks, bases, polytope membership."""

import itertools

import numpy as np
import pytest

from matprophet import (EnumerationCapError, GraphicMatroid, PartitionMatroid,
                        UniformMatroid)
from matprophet.generate import (random_graph, random_partition_instance,
                                 random_polytope_point)
from matprophet.matroids import POLYTOPE_CAP


def k3():
    return GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])


def k4():
    edges = list(itertools.combinations(range(4), 2))
    return GraphicMatroid(4, edges)


def random_matroids(rng, max_n):
    """One random graphic, uniform and partition matroid, each with at
    most max_n elements."""
    nv = int(rng.integers(2, 7))
    n = int(rng.integers(max_n // 2, max_n + 1))
    part = random_partition_instance(rng, max_blocks=4,
                                     max_block_size=max_n // 4).matroid
    return [random_graph(rng, nv, n, allow_parallel=True),
            UniformMatroid(n, int(rng.integers(0, n + 1))), part]


def greedy_rank(m, elements):
    """Rank through the is_independent oracle alone."""
    picked = []
    for e in elements:
        if m.is_independent(picked + [e]):
            picked.append(e)
    return len(picked)


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


def test_rank_matches_bruteforce():
    rng = np.random.default_rng(8)
    mats = [k4(), GraphicMatroid(3, [(0, 1), (0, 1), (1, 2)])]
    for _ in range(3):
        mats += random_matroids(rng, 8)
    for m in mats:
        for _ in range(15):
            s = rng.permutation(m.n)[:rng.integers(0, m.n + 1)].tolist()
            best = max(len(c) for r in range(len(s) + 1)
                       for c in itertools.combinations(s, r)
                       if m.is_independent(c))
            assert m.rank(s) == best


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
    # the brute force adds p(S) left to right in index order, as the
    # sweep does, so the two agree exactly
    rng = np.random.default_rng(5)
    cases = [(GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
              40)]
    for _ in range(4):
        cases += [(m, 4) for m in random_matroids(rng, 12)]
    for m, count in cases:
        subsets = [s for r in range(1, m.n + 1)
                   for s in itertools.combinations(range(m.n), r)]
        ranks = [greedy_rank(m, s) for s in subsets]
        for j in range(count):
            p = random_polytope_point(m, rng) if j % 2 else rng.random(m.n)
            want = min(r - sum(p[e] for e in s)
                       for r, s in zip(ranks, subsets))
            assert m.polytope_slack(p) == want
    for m in (GraphicMatroid(3, []), UniformMatroid(0, 0)):
        assert m.polytope_slack(np.zeros(0)) == np.inf


def loop_polytope_point(matroid, rng, mixtures=8):
    """random_polytope_point through a loop over is_independent."""
    indicators = []
    for _ in range(mixtures):
        order = rng.permutation(matroid.n)
        picked = []
        for e in order:
            if matroid.is_independent(picked + [int(e)]):
                picked.append(int(e))
        row = np.zeros(matroid.n)
        row[picked] = 1.0
        indicators.append(row)
    weights = rng.dirichlet(np.ones(mixtures))
    return np.einsum("m,mn->n", weights, np.array(indicators))


def test_random_polytope_point_matches_loop():
    rng = np.random.default_rng(12)
    mats = [k4(), GraphicMatroid(3, []), UniformMatroid(0, 0)]
    for _ in range(3):
        mats += random_matroids(rng, 12)
    for seed, m in enumerate(mats):
        got = random_polytope_point(m, np.random.default_rng(seed))
        want = loop_polytope_point(m, np.random.default_rng(seed))
        assert np.array_equal(got, want)
        assert m.in_polytope(got)


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
