"""Ex-ante reduction: offline expectations, membership probabilities,
prices, feasibility, the coupled Bernoulli view and the enumeration cap."""

import itertools
import math

import numpy as np
import pytest

from matprophet import (GraphicMatroid, GraphicRandomCut, ProphetInstance,
                        ThresholdRule, UniformMatroid, bernoulli_to_dict,
                        blocking_probability, cut_bound_exact, cut_objective,
                        derandomize_cut, ex_ante_reduce, expected_rule_value,
                        expected_value_exact, orient_low_indegree,
                        parse_instance, prophet_value_exact, worst_case_order)
from matprophet import kernels
from matprophet.distributions import DiscreteDistribution
from matprophet.errors import EnumerationCapError
from matprophet.generate import (random_graph, random_graphic_instance,
                                 random_partition_instance,
                                 random_uniform_instance)
from matprophet.matroids import Matroid
from matprophet.reduction import sample_value_matrix, values_from_uniform

coin = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])


def best_of_two():
    return ProphetInstance(UniformMatroid(2, 1), [coin, coin])


def k3_coins():
    g = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    return ProphetInstance(g, [coin, coin, coin])


def brute_force_opt(inst):
    """Expected max-weight independent set by direct enumeration."""
    total = 0.0
    supports = [list(zip(d.values, d.probs)) for d in inst.dists]
    for combo in itertools.product(*supports):
        w = [v for v, _ in combo]
        pr = float(np.prod([p for _, p in combo]))
        basis = inst.matroid.max_weight_basis(w)
        total += pr * sum(w[e] for e in basis)
    return total


def test_best_of_two_coins():
    # ties break toward the lower index and zeros are never selected, so
    # item 0 wins on (1, 1) and nothing is picked on (0, 0)
    red = ex_ante_reduce(best_of_two())
    assert red.p.tolist() == pytest.approx([0.5, 0.25], abs=1e-12)
    assert red.t.tolist() == pytest.approx([1.0, 1.0], abs=1e-12)
    assert red.bound() == pytest.approx(0.75, abs=1e-12)
    assert prophet_value_exact(best_of_two()) == pytest.approx(0.75)
    # equality: the selected slice is exactly the top slice here
    assert red.bound() == pytest.approx(prophet_value_exact(best_of_two()))


def test_k3_coins():
    red = ex_ante_reduce(k3_coins())
    assert red.p.tolist() == pytest.approx([0.5, 0.5, 0.375], abs=1e-12)
    assert red.t.tolist() == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    assert red.bound() == pytest.approx(1.375, abs=1e-12)
    assert prophet_value_exact(k3_coins()) == pytest.approx(1.375)
    assert red.feasibility_slack == pytest.approx(0.5, abs=1e-12)


def test_exact_opt_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(10):
        inst = random_graphic_instance(rng, max_vertices=4, max_edges=5)
        assert prophet_value_exact(inst) == pytest.approx(
            brute_force_opt(inst), abs=1e-9)


def test_bound_dominates_opt():
    rng = np.random.default_rng(13)
    for _ in range(15):
        inst = random_graphic_instance(rng, max_vertices=5, max_edges=6)
        red = ex_ante_reduce(inst)
        opt = prophet_value_exact(inst)
        assert red.bound() >= opt - 1e-9
        assert red.feasibility_slack >= -1e-9
        assert inst.matroid.polytope_slack(red.p) >= -1e-9


def test_membership_is_selection_frequency():
    # p_i must equal the average membership indicator over all outcomes
    inst = k3_coins()
    red = ex_ante_reduce(inst)
    counts = np.zeros(inst.n)
    supports = [list(zip(d.values, d.probs)) for d in inst.dists]
    for combo in itertools.product(*supports):
        w = [v for v, _ in combo]
        pr = float(np.prod([p for _, p in combo]))
        for e in inst.matroid.max_weight_basis(w):
            counts[e] += pr
    assert counts == pytest.approx(red.p, abs=1e-12)


def test_mc_reduce_close_to_exact():
    rng = np.random.default_rng(3)
    inst = random_graphic_instance(rng, max_vertices=4, max_edges=5)
    exact = ex_ante_reduce(inst, mode="exact")
    mc = ex_ante_reduce(inst, mode="mc", trials=200_000, seed=4)
    assert mc.mode == "mc"
    assert mc.p == pytest.approx(exact.p, abs=0.01)
    # an empirical membership frequency is an average of polytope points,
    # so it is feasible without any tolerance games
    assert mc.feasibility_slack >= -1e-9
    assert mc.bound() == pytest.approx(exact.bound(), abs=0.05)


def test_prophet_value_mc():
    red = ex_ante_reduce(k3_coins(), mode="mc", trials=200_000, seed=9)
    assert red.prophet_value == pytest.approx(1.375,
                                              abs=4 * red.prophet_stderr)
    assert red.trials == 200_000
    assert red.prophet_stderr > 0.0


def test_bernoulli_on_triangle():
    # on a cycle the declared p is only a feasible target: the induced
    # instance's own optimum drops the cheap edge when both others are
    # active, so membership of edge 2 falls to 0.375 * 3/4 = 0.28125
    g = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    p, t = [0.5, 0.5, 0.375], [2.0, 1.5, 1.0]
    inst = parse_instance(bernoulli_to_dict(g, p, t)).instance
    red = ex_ante_reduce(inst)
    assert red.p == pytest.approx([0.5, 0.5, 0.28125], abs=1e-12)
    # positive two-point items are their own top slice, so prices survive
    assert red.t == pytest.approx(t, abs=1e-12)
    assert red.bound() == pytest.approx(0.5 * 2 + 0.5 * 1.5 + 0.28125 * 1.0)
    assert red.bound() >= prophet_value_exact(inst) - 1e-9
    assert g.polytope_slack(p) >= -1e-9
    with pytest.raises(ValueError):
        parse_instance(bernoulli_to_dict(g, [0.5, 0.5, 1.5], [1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        parse_instance(bernoulli_to_dict(g, [0.5, 0.5], [1.0, 1.0]))


def test_bernoulli_round_trip_on_forest():
    # no cycles, so every active edge is selected and the reduction
    # recovers the declared vectors exactly
    g = GraphicMatroid(3, [(0, 1), (1, 2)])
    p, t = [0.5, 0.375], [2.0, 1.0]
    inst = parse_instance(bernoulli_to_dict(g, p, t)).instance
    red = ex_ante_reduce(inst)
    assert red.p == pytest.approx(p, abs=1e-12)
    assert red.t == pytest.approx(t, abs=1e-12)
    assert red.bound() == pytest.approx(prophet_value_exact(inst), abs=1e-12)
    for a in (red.p, red.t):
        with pytest.raises(ValueError):
            a[0] = 0.0  # frozen after construction


def test_worst_case_order_is_stable_ascending():
    order = worst_case_order(np.array([3.0, 1.0, 2.0, 1.0]))
    assert order.tolist() == [1, 3, 2, 0]


def test_coupled_sample_matches_quantile():
    # the coupled Bernoulli view: item i is active exactly when its value
    # clears the quantile event of mass p_i, i.e. passes the quantile rule
    rng = np.random.default_rng(21)
    instances = [random_uniform_instance(rng, max_n=4), k3_coins(),
                 random_uniform_instance(rng, max_n=6, k=2),
                 random_partition_instance(rng)]
    trials = 200_000
    for inst in instances:
        red = ex_ante_reduce(inst)
        thr = np.empty(inst.n)
        atom = np.empty(inst.n)
        for i, d in enumerate(inst.dists):
            thr[i], atom[i] = d.quantile_threshold(red.p[i])
        values = values_from_uniform(inst, rng.random((trials, inst.n)))
        active = ThresholdRule(thr, atom).passes(
            values, rng.random((trials, inst.n)))
        hits = active.mean(axis=0)
        gains = np.where(active, values, 0.0).mean(axis=0)
        # an item is active with probability p_i, and its value on active
        # trials averages to t_i, so the coupled view prices items fairly
        assert hits == pytest.approx(red.p, abs=0.01)
        assert gains == pytest.approx(red.p * red.t, abs=0.02)


def test_outcome_cap(monkeypatch):
    rng = np.random.default_rng(0)
    inst = random_graphic_instance(rng, max_vertices=4, max_edges=4)
    assert inst.outcome_count() > 2
    uniform = random_uniform_instance(rng, max_n=4)
    assert uniform.outcome_count() > 2
    want = prophet_value_exact(uniform)
    monkeypatch.setenv("MATPROPHET_ENUM_CAP", "2")
    with pytest.raises(EnumerationCapError):
        prophet_value_exact(inst)
    # a uniform instance is counted, not enumerated: the cap does not
    # reach it
    assert prophet_value_exact(uniform) == want


def test_values_from_uniform_is_the_sampler():
    rng = np.random.default_rng(59)
    makers = (random_graphic_instance, random_uniform_instance,
              random_partition_instance)
    for case in range(9):
        inst = makers[case % 3](rng)
        trials = 1 + 37 * case
        u = np.random.default_rng(case).random((trials, inst.n))
        got = values_from_uniform(inst, u)
        assert got.shape == (trials, inst.n)
        assert np.array_equal(
            got, sample_value_matrix(inst, np.random.default_rng(case),
                                     trials))


def test_reduction_keeps_its_prophet_value():
    rng = np.random.default_rng(53)
    makers = (random_graphic_instance, random_uniform_instance,
              random_partition_instance)
    for case in range(12):
        inst = makers[case % 3](rng)
        red = ex_ante_reduce(inst)
        assert red.prophet_value == prophet_value_exact(inst)
        assert red.prophet_stderr is None
        # the mc reduction against one block of 3000 draws, worked here
        mc = ex_ante_reduce(inst, mode="mc", trials=3000, seed=case)
        values = sample_value_matrix(inst, np.random.default_rng(case), 3000)
        opts, best = kernels.mc_max_weight(inst, values)
        mean = float(opts.sum()) / 3000
        var = max(float(opts @ opts) / 3000 - mean ** 2, 0.0)
        assert mc.prophet_value == mean
        assert mc.prophet_stderr == math.sqrt(var / 3000)
        assert np.array_equal(mc.p, np.clip(best.sum(axis=0) / 3000, 0, 1))


def test_feasibility_slack_is_computed_when_read(monkeypatch):
    calls = []
    slack = Matroid.polytope_slack

    def counted(self, p):
        calls.append(1)
        return slack(self, p)

    monkeypatch.setattr(Matroid, "polytope_slack", counted)
    red = ex_ante_reduce(k3_coins())
    assert calls == []
    first = red.feasibility_slack
    assert calls == [1]
    assert red.feasibility_slack == first == slack(red.matroid, red.p)
    assert calls == [1]
    # past the cap (2^21 subsets) the slack stays None, and nothing is
    # enumerated
    monkeypatch.delenv("MATPROPHET_ENUM_CAP", raising=False)

    def never(*args, **kwargs):
        raise AssertionError("a subset row was built past the cap")

    monkeypatch.setattr(kernels, "subset_rows", never)
    big = ProphetInstance(random_graph(np.random.default_rng(0), 8, 21),
                          [DiscreteDistribution.constant(1.0)] * 21)
    assert ex_ante_reduce(big).feasibility_slack is None
    assert calls == [1, 1]


def test_every_exact_enumeration_checks_one_cap(monkeypatch):
    inst = k3_coins()
    g = inst.matroid
    orientation = orient_low_indegree(g, np.full(3, 0.125))
    algo = GraphicRandomCut(inst)
    monkeypatch.setenv("MATPROPHET_ENUM_CAP", "2")
    sites = [
        (lambda: prophet_value_exact(inst), "8 product outcomes"),
        (lambda: expected_rule_value(inst, ThresholdRule(np.ones(3),
                                                         np.ones(3)),
                                     [0, 1, 2]), "2\\^3 pass patterns"),
        # the triangle's frontier widths are 1, 2, 3: an unsided run counts
        # Bell(1) + Bell(2) + Bell(3) = 1 + 2 + 5 states
        (lambda: blocking_probability(g, np.full(3, 0.5), [0, 1, 2], 2),
         "8 connection states"),
        # the triangle's frontier widths are 1, 2, 3: 2*1 + 4*2 + 8*5 states
        (lambda: cut_bound_exact(g, np.full(3, 0.125), np.ones(3),
                                 orientation), "50 cut states"),
        (lambda: expected_value_exact(inst, algo), "2\\^3 coin patterns"),
        # its 2V = 6 runs, counted together
        (lambda: derandomize_cut(g, np.full(3, 0.125), np.ones(3),
                                 orientation), "300 cut states"),
        (lambda: cut_objective(g, np.full(3, 0.125), np.ones(3), orientation,
                               np.array([False, False, True])),
         "50 cut states"),
        (lambda: g.polytope_slack(np.full(3, 0.5)), "2\\^3 polytope subsets"),
    ]
    for call, what in sites:
        with pytest.raises(EnumerationCapError,
                           match=f"^{what} exceed the enumeration cap 2$"):
            call()
