"""Online execution, exact expectations, Monte Carlo estimation, and the
adversarial order search."""

import itertools

import numpy as np
import pytest

from matprophet import kernels
from matprophet import (ArrivalOrder, FixedRuleAlgorithm, GraphicMatroid,
                        GraphicRandomCut, ProphetInstance, ThresholdRule,
                        UniformMatroid, adversarial_order_search,
                        ex_ante_reduce, execute_online, expected_rule_value,
                        expected_value_exact, monte_carlo_ratio,
                        prophet_value_exact, safe_ratio)
from matprophet.distributions import DiscreteDistribution
from matprophet.errors import EnumerationCapError
from matprophet.generate import random_graphic_instance
from matprophet.reduction import sample_value_matrix, values_from_uniform

coin = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])


def k3_coins():
    g = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    return ProphetInstance(g, [coin, coin, coin])


def test_threshold_rule_validation():
    with pytest.raises(ValueError):
        ThresholdRule([np.nan], [0.0])
    with pytest.raises(ValueError):
        ThresholdRule([-np.inf], [0.0])
    with pytest.raises(ValueError):
        ThresholdRule([1.0], [1.5])
    with pytest.raises(ValueError):
        ThresholdRule([1.0, 2.0], [0.5])
    rule = ThresholdRule([1.0, np.inf], [0.5, 0.0])
    with pytest.raises(ValueError):
        rule.thresholds[0] = 9.0  # frozen after construction


def test_threshold_rule_passes():
    rule = ThresholdRule([1.0, 1.0, np.inf], [0.5, 0.5, 0.0])
    got = rule.passes(np.array([2.0, 1.0, 9.0]), np.array([0.9, 0.49, 0.0]))
    assert got.tolist() == [True, True, False]
    got = rule.passes(np.array([2.0, 1.0, 9.0]), np.array([0.9, 0.5, 0.0]))
    assert got.tolist() == [True, False, False]


def test_arrival_order_validation():
    with pytest.raises(ValueError):
        ArrivalOrder([0, 0, 1])
    with pytest.raises(ValueError):
        ArrivalOrder([1, 2])
    assert ArrivalOrder([2, 0, 1]).n == 3


def test_execute_online_greedy_trace():
    inst = k3_coins()
    rule = ThresholdRule(np.full(3, 0.5), np.zeros(3))
    rep = execute_online(inst, rule, [0, 1, 2], [1.0, 1.0, 1.0],
                         atom_coins=np.zeros(3))
    # the third edge closes the triangle and is refused
    assert rep.accepted == (0, 1)
    assert rep.alg_value == 2.0
    rep = execute_online(inst, rule, [2, 1, 0], [1.0, 1.0, 1.0],
                         atom_coins=np.zeros(3))
    assert rep.accepted == (2, 1)


def test_execute_online_atom_coin():
    inst = ProphetInstance(UniformMatroid(1, 1), [coin])
    rule = ThresholdRule([1.0], [0.5])
    hit = execute_online(inst, rule, [0], [1.0], atom_coins=[0.49])
    miss = execute_online(inst, rule, [0], [1.0], atom_coins=[0.50])
    assert hit.accepted == (0,) and hit.alg_value == 1.0
    assert miss.accepted == () and miss.alg_value == 0.0


def test_expected_rule_value_hand_examples():
    # lone coin at threshold 1 with an open atom passes half the time
    inst = ProphetInstance(UniformMatroid(1, 1), [coin])
    rule = ThresholdRule([1.0], [1.0])
    assert expected_rule_value(inst, rule, [0]) == pytest.approx(0.5)
    # three coins on a triangle: at most two fit, E = 11/8
    inst = k3_coins()
    rule = ThresholdRule(np.ones(3), np.ones(3))
    assert expected_rule_value(inst, rule, [0, 1, 2]) == pytest.approx(1.375)


def test_expected_rule_value_matches_simulation():
    rng = np.random.default_rng(3)
    inst = random_graphic_instance(rng, max_vertices=4, max_edges=5)
    red = ex_ante_reduce(inst)
    thr = np.empty(inst.n)
    atom = np.empty(inst.n)
    for i, d in enumerate(inst.dists):
        thr[i], atom[i] = d.quantile_threshold(red.p[i] / 4.0)
    rule = ThresholdRule(thr, atom)
    order = ArrivalOrder(np.arange(inst.n))
    exact = expected_rule_value(inst, rule, order)
    trials = 200_000
    sim_rng = np.random.default_rng(11)
    values = values_from_uniform(inst, sim_rng.random((trials, inst.n)))
    passing = rule.passes(values, sim_rng.random((trials, inst.n)))
    totals, _ = kernels.batched_greedy(inst.matroid, order.perm, passing,
                                       values)
    assert totals.mean() == pytest.approx(exact, abs=0.02)


def test_exact_value_matches_mc_ratio():
    rng = np.random.default_rng(5)
    inst = random_graphic_instance(rng, max_vertices=4, max_edges=5)
    algo = GraphicRandomCut(inst)
    exact_ratio = expected_value_exact(inst, algo) / prophet_value_exact(inst)
    res = monte_carlo_ratio(inst, algo, trials=60_000, seed=7)
    assert res.ratio == pytest.approx(exact_ratio,
                                      abs=max(2 * res.ci_half_width, 1e-3))


class OpaqueGraphic(GraphicMatroid):
    """Same matroid, no kernel encoding; forces the generic paths."""

    def kernel_args(self):
        return None


def test_generic_paths_agree_with_kernels():
    rng = np.random.default_rng(9)
    inst = random_graphic_instance(rng, max_vertices=4, max_edges=5)
    slow = ProphetInstance(OpaqueGraphic(inst.matroid.num_vertices,
                                         inst.matroid.edges), inst.dists)
    red = ex_ante_reduce(inst)
    thr = np.empty(inst.n)
    atom = np.empty(inst.n)
    for i, d in enumerate(inst.dists):
        thr[i], atom[i] = d.quantile_threshold(red.p[i] / 2.0)
    rule = ThresholdRule(thr, atom)
    order = ArrivalOrder(np.arange(inst.n))
    fast_val = expected_rule_value(inst, rule, order)
    slow_val = expected_rule_value(slow, rule, order)
    assert slow_val == pytest.approx(fast_val, abs=1e-12)
    assert prophet_value_exact(slow) == pytest.approx(
        prophet_value_exact(inst), abs=1e-12)
    # the reductions agree too
    slow_red = ex_ante_reduce(slow)
    assert slow_red.p == pytest.approx(red.p, abs=1e-12)


def test_mc_generic_path_agrees_with_fast():
    rng = np.random.default_rng(13)
    inst = random_graphic_instance(rng, max_vertices=4, max_edges=4)
    slow = ProphetInstance(OpaqueGraphic(inst.matroid.num_vertices,
                                         inst.matroid.edges), inst.dists)
    fast_algo = GraphicRandomCut(inst)
    slow_algo = GraphicRandomCut(slow)
    a = monte_carlo_ratio(inst, fast_algo, trials=40_000, seed=3)
    b = monte_carlo_ratio(slow, slow_algo, trials=40_000, seed=3)
    # same sampling stream, and the oracle fallback selects the same sets
    assert (b.ratio, b.ci_half_width) == (a.ratio, a.ci_half_width)


def rule_bytes(rule):
    return rule.thresholds.tobytes(), rule.atom_pass.tobytes()


def test_rules_are_fixed_before_arrivals():
    rng = np.random.default_rng(17)
    inst = random_graphic_instance(rng, max_vertices=5, max_edges=6)
    algo = GraphicRandomCut(inst)
    # the builder's output depends only on its rng stream, never on values
    fps_a = [rule_bytes(algo.build(np.random.default_rng(s)))
             for s in range(20)]
    sample_value_noise = inst.dists[0].sample(np.random.default_rng(99), 50)
    assert sample_value_noise.shape == (50,)
    fps_b = [rule_bytes(algo.build(np.random.default_rng(s)))
             for s in range(20)]
    assert fps_a == fps_b
    # and the shared base arrays cannot be rewritten mid-run
    with pytest.raises(ValueError):
        algo.rule.thresholds[0] = -1.0


def test_accepted_sets_are_independent():
    rng = np.random.default_rng(19)
    inst = random_graphic_instance(rng, max_vertices=5, max_edges=7)
    algo = GraphicRandomCut(inst)
    for _ in range(200):
        rule = algo.build(rng)
        values = np.array([d.sample(rng) for d in inst.dists])
        coins = rng.random(inst.n)
        rep = execute_online(inst, rule, np.arange(inst.n), values, coins)
        assert inst.matroid.is_independent(rep.accepted)
        passing = rule.passes(values, coins)
        assert all(passing[e] for e in rep.accepted)


def test_adversarial_search_exhaustive():
    inst = k3_coins()
    algo = FixedRuleAlgorithm(inst, ThresholdRule(np.ones(3), np.ones(3)))
    order, val = adversarial_order_search(inst, algo)
    want = min(expected_value_exact(inst, algo, ArrivalOrder(np.array(p)))
               for p in itertools.permutations(range(3)))
    assert val == pytest.approx(want, abs=1e-12)
    assert order.tag == "adversarial-search"
    local_order, local_val = adversarial_order_search(inst, algo, mode="local")
    assert local_val >= val - 1e-12


def test_adversarial_search_size_guard():
    inst = ProphetInstance(UniformMatroid(9, 2), [coin] * 9)
    algo = FixedRuleAlgorithm(inst, ThresholdRule(np.ones(9), np.ones(9)))
    with pytest.raises(EnumerationCapError):
        adversarial_order_search(inst, algo)


def test_safe_ratio_degenerate():
    assert safe_ratio(0.0, 0.0) == (1.0, True)
    assert safe_ratio(1.0, 2.0) == (0.5, False)
    zero = DiscreteDistribution.constant(0.0)
    inst = ProphetInstance(UniformMatroid(1, 1), [zero])
    algo = FixedRuleAlgorithm(inst, ThresholdRule([np.inf], [0.0]))
    with pytest.warns(UserWarning):
        res = monte_carlo_ratio(inst, algo, trials=64, seed=0)
    assert res.degenerate
    assert res.ratio == 1.0
    assert res.low_sample_warning


def test_monte_carlo_validation():
    inst = k3_coins()
    algo = FixedRuleAlgorithm(inst, ThresholdRule(np.ones(3), np.ones(3)))
    with pytest.raises(ValueError):
        monte_carlo_ratio(inst, algo, trials=0)
    for level in (0.0, 1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="level"):
            monte_carlo_ratio(inst, algo, trials=10, level=level)
    with pytest.raises(ValueError):
        expected_value_exact(inst, algo, order="no-such-policy")


def test_worst_case_mc_draws_apart_from_the_reduction():
    """An mc reduction samples default_rng(seed); the worst-case blocks
    draw from a child stream of the seed, so the evaluation never runs on
    the values the thresholds were calibrated on."""
    inst = random_graphic_instance(np.random.default_rng(5), max_vertices=6,
                                   max_edges=9)
    seed, trials = 3, 3000
    red = ex_ante_reduce(inst, mode="mc", trials=trials, seed=seed)
    res, _, pro, _ = monte_carlo_ratio(inst, GraphicRandomCut(inst, red),
                                       trials, seed=seed, return_trials=True)
    reused, _ = kernels.mc_max_weight(inst.matroid, sample_value_matrix(
        inst, np.random.default_rng(seed), trials))
    assert not np.array_equal(pro, reused)
    assert res.mean_prophet != red.prophet_value
    child = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    drawn, _ = kernels.mc_max_weight(inst.matroid, sample_value_matrix(
        inst, child, trials))
    assert pro.tolist() == drawn.tolist()


def test_mc_random_order_runs():
    inst = k3_coins()
    algo = FixedRuleAlgorithm(inst, ThresholdRule(np.ones(3), np.ones(3)))
    res = monte_carlo_ratio(inst, algo, trials=2000, seed=1, order="random")
    assert res.trials == 2000
    assert 0.0 < res.ratio < 2.0


def test_random_order_mc_replays_per_trial_streams():
    """Random-order trial tr draws its cut, values, atom coins and arrival
    order, in that order, from SeedSequence((seed, tr)); the batched
    evaluation must reproduce the trial-by-trial replay exactly."""
    rng = np.random.default_rng(23)

    def full_precision():
        return DiscreteDistribution(np.sort(rng.random(3)) * 10.0,
                                    rng.dirichlet(np.ones(3)))

    # unrounded values, so a sum taken in another order shows
    g = GraphicMatroid(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3),
                           (2, 4), (0, 4)])
    inst = ProphetInstance(g, [full_precision() for _ in range(g.n)])
    uniform = ProphetInstance(UniformMatroid(5, 3),
                              [full_precision() for _ in range(5)])
    cases = [(inst, GraphicRandomCut(inst)),
             (uniform, FixedRuleAlgorithm(uniform, ThresholdRule(
                 np.full(5, 3.0), np.full(5, 0.5))))]
    trials, seed = 400, 11
    for inst, algo in cases:
        with pytest.warns(UserWarning):
            _, alg, pro, acc = monte_carlo_ratio(
                inst, algo, trials, seed=seed, order="random",
                return_trials=True)
        for tr in range(trials):
            trial_rng = np.random.default_rng(
                np.random.SeedSequence((seed, tr)))
            rule = algo.build(trial_rng)
            values = sample_value_matrix(inst, trial_rng, 1)[0]
            coins = trial_rng.random(inst.n)
            order = ArrivalOrder(trial_rng.permutation(inst.n), "random")
            rep = execute_online(inst, rule, order, values, coins)
            basis = inst.matroid.max_weight_basis(values)
            assert alg[tr] == rep.alg_value
            assert pro[tr] == sum(values[e] for e in basis)
            assert acc[tr].tolist() == [e in rep.accepted
                                        for e in range(inst.n)]
