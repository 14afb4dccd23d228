"""Orientation, cuts, blocking probabilities, and the cut lower bound."""

import itertools

import numpy as np
import pytest

from matprophet import (ArrivalOrder, FixedRuleAlgorithm, GraphicMatroid,
                        Orientation, blocking_probability, cut_bound_exact,
                        cut_objective, derandomize_cut, ex_ante_reduce,
                        expected_rule_value, expected_value_exact,
                        monte_carlo_ratio, orient_low_indegree,
                        worst_case_order)
from matprophet import engine, kernels
from matprophet.generate import random_graph, random_graphic_instance
from matprophet.graphic import GraphicDerandomizedCut, GraphicRandomCut
from matprophet.matroids import scale


def test_orientation_path():
    g = GraphicMatroid(3, [(0, 1), (1, 2)])
    o = orient_low_indegree(g, [0.25, 0.25])
    # vertex 0 peels first and takes its edge; vertex 1 takes the other
    assert o.heads.tolist() == [0, 1]
    assert o.tails.tolist() == [1, 2]
    assert o.in_mass([0.25, 0.25]).tolist() == [0.25, 0.25, 0.0]
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
    assert np.flatnonzero(o.crossing([False, True, True])).tolist() == [0]
    # A = {2}: only edge 1 crosses
    assert np.flatnonzero(o.crossing([False, False, True])).tolist() == [1]
    assert np.flatnonzero(o.crossing(np.ones(3, bool))).tolist() == []


def test_triangle_consideration_sets_are_forests():
    g = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    p4 = np.full(3, 0.375 / 4)
    o = orient_low_indegree(g, p4)
    for bits in itertools.product([False, True], repeat=3):
        s = np.flatnonzero(o.crossing(np.array(bits)))
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
        total += cut_objective(g, p4, red.t, o, np.array(bits))
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


def per_cut_expected_objective(g, heads, p, t, assign):
    """Reference: the cut objective averaged over the completions of a
    partial assignment, one cut at a time, skipping empty crossing sets."""
    tails = np.where(heads == g.ev, g.eu, g.ev)
    free = np.flatnonzero(assign < 0)
    total = 0.0
    for bits in kernels.subset_rows(free.size):
        in_a = np.repeat((assign == 1)[None], len(bits), axis=0)
        in_a[:, free] = bits
        for cross in map(np.flatnonzero, in_a[:, tails] & ~in_a[:, heads]):
            k = cross.size
            if k:
                others = np.broadcast_to(cross, (k, k))[~np.eye(k, dtype=bool)]
                b = kernels._spanned(g, cross, others.reshape(k, k - 1), p)
                total += kernels.running_sum(0.0,
                                             p[cross] * t[cross] * (1.0 - b))
    return total / (1 << free.size)


def per_vertex_derandomized_cut(g, p, t, orientation):
    """Reference: conditional expectations recomputed for every vertex."""
    assign = np.full(g.num_vertices, -1, dtype=np.int8)
    for v in range(g.num_vertices):
        assign[v] = 1
        with_a = per_cut_expected_objective(g, orientation.heads, p, t, assign)
        assign[v] = 0
        with_b = per_cut_expected_objective(g, orientation.heads, p, t, assign)
        assign[v] = 1 if with_a >= with_b else 0
    return assign == 1


def cut_cases():
    """Graphs with random orientations: edgeless, 0- and 1-vertex, parallel
    edges, isolated vertices, then random multigraphs. Every other graph
    has equal weights on all edges, so the derandomised cut meets exact
    ties that only the summation order breaks."""
    rng = np.random.default_rng(71)
    graphs = [GraphicMatroid(0, []), GraphicMatroid(1, []),
              GraphicMatroid(4, []), GraphicMatroid(2, [(0, 1)] * 3),
              GraphicMatroid(5, [(0, 1), (0, 1), (1, 2), (0, 2), (1, 2)])]
    for _ in range(30):
        nv = int(rng.integers(2, 7))
        graphs.append(random_graph(rng, nv, int(rng.integers(1, 10)),
                                   allow_parallel=True))
    for i, g in enumerate(graphs):
        heads = np.where(rng.random(g.n) < 0.5, g.eu, g.ev)
        o = Orientation(g.num_vertices, g.eu, g.ev, heads)
        if i % 2:
            yield g, o, np.full(g.n, 0.3), np.full(g.n, 1.7)
        else:
            yield g, o, rng.uniform(0.0, 0.5, g.n), rng.uniform(0, 10, g.n)


def test_crossing_set_reuse_is_bit_identical():
    for g, o, p, t in cut_cases():
        nv = g.num_vertices
        undecided = np.full(nv, -1, dtype=np.int8)
        assert cut_bound_exact(g, p, t, o) == \
            per_cut_expected_objective(g, o.heads, p, t, undecided)
        for bits in itertools.product((0, 1), repeat=nv):
            assign = np.array(bits, dtype=np.int8)
            assert cut_objective(g, p, t, o, assign == 1) == \
                per_cut_expected_objective(g, o.heads, p, t, assign)
        cut = derandomize_cut(g, p, t, o)
        assert not cut.flags.writeable
        assert cut.tolist() == per_vertex_derandomized_cut(g, p, t, o).tolist()


def test_rule_for_cut_opens_only_crossing_edges():
    rng = np.random.default_rng(41)
    inst = random_graphic_instance(rng, max_vertices=5, max_edges=7)
    algo = GraphicRandomCut(inst)
    in_a = rng.random(inst.matroid.num_vertices) < 0.5
    rule = algo.design.rule_for_cut(in_a)
    considered = np.flatnonzero(algo.design.orientation.crossing(in_a))
    open_mask = np.isfinite(rule.thresholds)
    assert sorted(np.flatnonzero(open_mask)) == sorted(considered)
    # every open item passes with probability exactly p_i / 4
    for i in considered:
        d = inst.dists[i]
        r = (d.prob_above(rule.thresholds[i])
             + rule.atom_pass[i] * d.prob_at(rule.thresholds[i]))
        assert r == pytest.approx(algo.design.p_scaled[i], abs=1e-12)


def rule_bytes(rule):
    return rule.thresholds.tobytes(), rule.atom_pass.tobytes()


def test_exact_value_averages_every_cut_rule(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return expected_rule_value(*args, **kwargs)

    monkeypatch.setattr(engine, "expected_rule_value", counted)
    rng = np.random.default_rng(59)
    cuts = distinct = 0
    for _ in range(30):
        inst = random_graphic_instance(rng, max_vertices=5, max_edges=7)
        algo = GraphicRandomCut(inst)
        nv = inst.matroid.num_vertices
        order = ArrivalOrder(worst_case_order(algo.reduction.t), "worst-case")
        want = 0.0
        crossing_sets = set()
        for bits in itertools.product((False, True), repeat=nv):
            in_a = np.array(bits[::-1])  # vertex 0 is the low bit
            rule = algo.design.rule_for_cut(in_a)
            want += 0.5 ** nv * expected_rule_value(inst, rule, order)
            crossing_sets.add(algo.design.orientation.crossing(
                in_a).tobytes())
        calls.clear()
        assert expected_value_exact(inst, algo) == want
        # one rule value per distinct crossing set, not one per cut
        assert len(calls) == len(crossing_sets)
        cuts += 2 ** nv
        distinct += len(crossing_sets)
    assert distinct < cuts


def test_build_draws_the_cut_sample_cut_draws():
    rng = np.random.default_rng(61)
    for seed in range(10):
        inst = random_graphic_instance(rng, max_vertices=6, max_edges=9)
        algo = GraphicRandomCut(inst)
        draw = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        for _ in range(5):
            rule = algo.build(draw)
            in_a = twin.random(inst.matroid.num_vertices) < 0.5
            assert rule_bytes(rule) == rule_bytes(
                algo.design.rule_for_cut(in_a))
        assert draw.bit_generator.state == twin.bit_generator.state


def test_derandomized_cut_is_its_fixed_rule():
    rng = np.random.default_rng(67)
    for case in range(6):
        inst = random_graphic_instance(rng, max_vertices=5, max_edges=7)
        algo = GraphicDerandomizedCut(inst)
        fixed = FixedRuleAlgorithm(inst, algo.rule)
        assert expected_value_exact(inst, algo) == \
            expected_value_exact(inst, fixed)
        for order in ("worst_case", "random"):
            with pytest.warns(UserWarning):
                a = monte_carlo_ratio(inst, algo, 600, seed=case, order=order)
                b = monte_carlo_ratio(inst, fixed, 600, seed=case,
                                      order=order)
            assert a == b
