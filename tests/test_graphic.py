"""Orientation, cuts, blocking probabilities, and the cut lower bound."""

import itertools

import numpy as np
import pytest

from matprophet import (Cut, GraphicMatroid, ProphetInstance,
                        blocking_probability, build_thresholds,
                        consideration_set, cut_bound_exact, cut_objective,
                        derandomize_cut, ex_ante_reduce, orient_low_indegree,
                        sample_cut)
from matprophet.distributions import DiscreteDistribution
from matprophet.generate import random_graphic_instance
from matprophet.graphic import GraphicRandomCut
from matprophet.matroids import scale


def test_orientation_path():
    g = GraphicMatroid(3, [(0, 1), (1, 2)])
    o = orient_low_indegree(g, [0.25, 0.25])
    # vertex 0 peels first and takes its edge; vertex 1 takes the other
    assert o.heads.tolist() == [0, 1]
    assert o.tails.tolist() == [1, 2]
    assert o.in_mass([0.25, 0.25]).tolist() == [0.25, 0.25, 0.0]
    assert o.incoming(0) == (0,)
    assert o.outgoing(1) == (0,)


def test_orientation_star():
    # the center qualifies immediately at mass 3/8, so everything points in
    g = GraphicMatroid(4, [(0, 1), (0, 2), (0, 3)])
    o = orient_low_indegree(g, [0.125, 0.125, 0.125])
    assert o.heads.tolist() == [0, 0, 0]
    assert o.in_mass([0.125, 0.125, 0.125]).tolist() == [0.375, 0, 0, 0]


def test_orientation_heavy_vector_fails():
    g = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        orient_low_indegree(g, [2 / 3, 2 / 3, 2 / 3])


def test_orientation_mass_bound_randomized():
    rng = np.random.default_rng(17)
    for _ in range(25):
        inst = random_graphic_instance(rng, max_vertices=5, max_edges=7)
        p4 = scale(ex_ante_reduce(inst).p, 0.25)
        o = orient_low_indegree(inst.matroid, p4)
        assert o.in_mass(p4).max() <= 0.5 + 1e-12


def test_consideration_set():
    g = GraphicMatroid(3, [(0, 1), (1, 2)])
    o = orient_low_indegree(g, [0.25, 0.25])  # heads [0, 1]
    # A = {1, 2}: edge 0 has tail 1 in A and head 0 in B, edge 1 has both
    # endpoints in A
    cut = Cut(np.array([False, True, True]))
    assert consideration_set(o, cut).tolist() == [0]
    # A = {2}: only edge 1 crosses
    cut = Cut(np.array([False, False, True]))
    assert consideration_set(o, cut).tolist() == [1]
    assert consideration_set(o, Cut(np.ones(3, bool))).tolist() == []


def test_triangle_consideration_sets_are_forests():
    g = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    p4 = np.full(3, 0.375 / 4)
    o = orient_low_indegree(g, p4)
    for bits in itertools.product([False, True], repeat=3):
        s = consideration_set(o, Cut(np.array(bits)))
        assert g.is_independent(s)


def test_blocking_probability_parallel():
    g = GraphicMatroid(2, [(0, 1), (0, 1)])
    b = blocking_probability(g, [0.9, 0.3], [0, 1], 0)
    assert b == pytest.approx(0.3, abs=1e-12)
    # the item itself never blocks itself
    assert blocking_probability(g, [0.9, 0.3], [0], 0) == 0.0


def test_blocking_probability_path_pair():
    # edge 0 = (0,1) is spanned only when both 1 and 2 are active
    g = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    b = blocking_probability(g, [0.5, 0.4, 0.25], [0, 1, 2], 0)
    assert b == pytest.approx(0.4 * 0.25, abs=1e-12)


def test_blocking_probability_mc_agrees():
    rng = np.random.default_rng(8)
    inst = random_graphic_instance(rng, max_vertices=5, max_edges=7)
    g = inst.matroid
    p4 = scale(ex_ante_reduce(inst).p, 0.25)
    subset = list(range(g.n))
    for i in (0, g.n - 1):
        exact = blocking_probability(g, p4, subset, i)
        approx = blocking_probability(g, p4, subset, i, mode="mc",
                                      trials=60_000, seed=5)
        assert approx == pytest.approx(exact, abs=0.01)


def test_blocking_probability_mc_needs_trials():
    g = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    for trials in (0, -5):
        with pytest.raises(ValueError, match="positive trial count"):
            blocking_probability(g, [0.5, 0.5, 0.5], [0, 1, 2], 0,
                                 mode="mc", trials=trials)


def test_single_edge_cut_bound():
    # lone edge crosses one cut in four; no blocking ever happens
    g = GraphicMatroid(2, [(0, 1)])
    o = orient_low_indegree(g, [0.1])
    bound = cut_bound_exact(g, [0.1], [5.0], o)
    assert bound == pytest.approx(0.25 * 0.1 * 5.0, abs=1e-12)


def test_cut_bound_dominates_eighth():
    rng = np.random.default_rng(23)
    for _ in range(20):
        inst = random_graphic_instance(rng, max_vertices=5, max_edges=7)
        red = ex_ante_reduce(inst)
        p4 = scale(red.p, 0.25)
        o = orient_low_indegree(inst.matroid, p4)
        bound = cut_bound_exact(inst.matroid, p4, red.t, o)
        assert bound >= float(p4 @ red.t) / 8.0 - 1e-9


def test_cut_bound_is_average_of_cut_objectives():
    rng = np.random.default_rng(31)
    inst = random_graphic_instance(rng, max_vertices=4, max_edges=6)
    g = inst.matroid
    red = ex_ante_reduce(inst)
    p4 = scale(red.p, 0.25)
    o = orient_low_indegree(g, p4)
    total = 0.0
    for bits in itertools.product([False, True], repeat=g.num_vertices):
        total += cut_objective(g, p4, red.t, o, Cut(np.array(bits)))
    avg = total / 2 ** g.num_vertices
    assert cut_bound_exact(g, p4, red.t, o) == pytest.approx(avg, abs=1e-9)


def test_derandomized_cut_beats_average():
    rng = np.random.default_rng(37)
    for _ in range(15):
        inst = random_graphic_instance(rng, max_vertices=5, max_edges=7)
        g = inst.matroid
        red = ex_ante_reduce(inst)
        p4 = scale(red.p, 0.25)
        o = orient_low_indegree(g, p4)
        bound = cut_bound_exact(g, p4, red.t, o)
        cut = derandomize_cut(g, p4, red.t, o)
        assert cut_objective(g, p4, red.t, o, cut) >= bound - 1e-9


def test_rule_for_cut_opens_only_crossing_edges():
    rng = np.random.default_rng(41)
    inst = random_graphic_instance(rng, max_vertices=5, max_edges=7)
    algo = GraphicRandomCut(inst)
    cut = sample_cut(inst.matroid, rng)
    rule = algo.design.rule_for_cut(cut, inst.matroid)
    considered = consideration_set(algo.design.orientation, cut)
    open_mask = np.isfinite(rule.thresholds)
    assert sorted(np.flatnonzero(open_mask)) == sorted(considered)
    # every open item passes with probability exactly p_i / 4
    for i in considered:
        d = inst.dists[i]
        r = (d.prob_above(rule.thresholds[i])
             + rule.atom_pass[i] * d.prob_at(rule.thresholds[i]))
        assert r == pytest.approx(algo.design.p_scaled[i], abs=1e-12)


def test_build_thresholds_diagnostics():
    rng = np.random.default_rng(43)
    coin = DiscreteDistribution([0.0, 4.0], [0.5, 0.5])
    inst = ProphetInstance(GraphicMatroid(2, [(0, 1)]), [coin])
    rule, diag = build_thresholds(inst, rng)
    assert set(diag) == {"design", "cut", "considered"}
    assert rule.thresholds.shape == (1,)
