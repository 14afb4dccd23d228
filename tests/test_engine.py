"""Online execution, exact expectations and Monte Carlo estimation."""

import math

import numpy as np
import pytest

from matprophet import engine, kernels
from matprophet import (FixedRuleAlgorithm, GraphicMatroid, GraphicRandomCut,
                        ProphetInstance, ThresholdRule, UniformMatroid,
                        as_permutation, ex_ante_reduce, execute_online,
                        expected_rule_value, expected_value_exact,
                        monte_carlo_ratio, prophet_value_exact, safe_ratio)
from matprophet.distributions import DiscreteDistribution
from matprophet.generate import (random_dists, random_graph,
                                 random_graphic_instance)
from matprophet.reduction import sample_value_matrix, values_from_uniform
from oracles import is_independent

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
    perm = as_permutation([2, 0, 1], 3)
    assert perm.dtype == np.int64 and perm.tolist() == [2, 0, 1]
    with pytest.raises(ValueError):
        perm[0] = 1  # frozen after the check
    inst = k3_coins()
    rule = ThresholdRule(np.ones(3), np.ones(3))
    algo = FixedRuleAlgorithm(inst, rule)
    entry_points = [
        lambda order: as_permutation(order, 3),
        lambda order: execute_online(inst, rule, order, np.ones(3),
                                     np.zeros(3)),
        lambda order: expected_rule_value(inst, rule, order),
        lambda order: expected_value_exact(inst, algo, order),
        lambda order: monte_carlo_ratio(inst, algo, 10, order=order),
    ]
    # A short order used to drop item 2: 1.0 where the full order gives 11/8.
    for bad in ([0, 1], [0, 1, 2, 3], [0, 0, 1], [0, 1, 2.5], [[0, 1, 2]]):
        for call in entry_points:
            with pytest.raises(ValueError, match="not a permutation"):
                call(bad)


def test_execute_online_greedy_trace():
    inst = k3_coins()
    rule = ThresholdRule(np.full(3, 0.5), np.zeros(3))
    # the third edge closes the triangle and is refused
    assert execute_online(inst, rule, [0, 1, 2], [1.0, 1.0, 1.0],
                          atom_coins=np.zeros(3)) == ((0, 1), 2.0)
    assert execute_online(inst, rule, [2, 1, 0], [1.0, 1.0, 1.0],
                          atom_coins=np.zeros(3)) == ((2, 1), 2.0)


def test_execute_online_atom_coin():
    inst = ProphetInstance(UniformMatroid(1, 1), [coin])
    rule = ThresholdRule([1.0], [0.5])
    assert execute_online(inst, rule, [0], [1.0],
                          atom_coins=[0.49]) == ((0,), 1.0)
    assert execute_online(inst, rule, [0], [1.0],
                          atom_coins=[0.50]) == ((), 0.0)


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
    order = np.arange(inst.n)
    exact = expected_rule_value(inst, rule, order)
    trials = 200_000
    sim_rng = np.random.default_rng(11)
    values = values_from_uniform(inst, sim_rng.random((trials, inst.n)))
    passing = rule.passes(values, sim_rng.random((trials, inst.n)))
    totals, _ = kernels.batched_greedy(inst.matroid, order, passing,
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


def test_mc_interval_covers_the_exact_ratio():
    # worst-case order on the exact-run shape: 300 seeds per instance, each
    # a 99% interval, so at most 19 of 900 miss the exact ratio
    # (P[Bin(900, 0.01) >= 20] is about 1.0e-3)
    misses = 0
    for s in (1000, 7, 3):
        rng = np.random.default_rng(s)
        g = random_graph(rng, 6, 9, allow_parallel=True)
        inst = ProphetInstance(g, random_dists(rng, 9, support_size=3))
        red = ex_ante_reduce(inst)
        algo = GraphicRandomCut(inst, red)
        exact = expected_value_exact(inst, algo) / red.prophet_value
        for seed in range(300):
            res = monte_carlo_ratio(inst, algo, trials=2000, seed=seed,
                                    level=0.99)
            misses += abs(res.ratio - exact) > res.ci_half_width
    assert misses <= 19


def test_confidence_quantile_matches_scipy():
    # scipy.stats.norm.ppf(0.5 + level / 2), written in so that no test
    # imports scipy
    for level, want in ((0.9, 1.6448536269514722),
                        (0.95, 1.959963984540054),
                        (0.99, 2.5758293035489004)):
        assert abs(engine._two_sided_z(level) - want) <= 2 * math.ulp(want)
    # the largest level below 1 rounds 1/2 + level/2 up to 1
    assert engine._two_sided_z(math.nextafter(1.0, 0.0)) == math.inf


def test_ci_half_width_is_z_times_the_ratio_deviation():
    # dyadic pairs: means 3 and 4, ratio 3/4, sample variances 2 and 4,
    # covariance 2, so var_r = (2 - 2*(3/4)*2 + (3/4)^2*4) / (5 * 4^2)
    # = 1/64 and every step is exact
    alg = np.array([1.0, 3.0, 3.0, 3.0, 5.0])
    pro = np.array([2.0, 2.0, 4.0, 6.0, 6.0])
    for level in (0.9, 0.95, 0.99):
        with pytest.warns(UserWarning, match="only 5 trials"):
            got = engine._ratio_summary(alg, pro, level, 5)
        assert got.ratio == 0.75
        assert got.ci_half_width == engine._two_sided_z(level) * 0.125


def test_worst_case_mc_needs_no_reduction():
    # the worst order comes from the rule itself, so a plain algorithm on
    # the 14v/28e bench shape never reduces its 3^28 outcomes
    rng = np.random.default_rng(1000)
    g = random_graph(rng, 14, 28, allow_parallel=True)
    inst = ProphetInstance(g, random_dists(rng, 28, support_size=3))
    red = ex_ante_reduce(inst, mode="mc", trials=2000, seed=1)
    algo = FixedRuleAlgorithm(inst, GraphicRandomCut(inst, red).rule)
    res = monte_carlo_ratio(inst, algo, trials=2000, seed=1)
    assert 0.0 < res.ratio <= 1.0


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
        accepted, _ = execute_online(inst, rule, np.arange(inst.n), values,
                                     coins)
        assert is_independent(inst.matroid, accepted)
        passing = rule.passes(values, coins)
        assert all(passing[e] for e in accepted)


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
    reused, _ = kernels.mc_max_weight(inst, sample_value_matrix(
        inst, np.random.default_rng(seed), trials))
    assert not np.array_equal(pro, reused)
    assert res.mean_prophet != red.prophet_value
    child = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    drawn, _ = kernels.mc_max_weight(inst, sample_value_matrix(
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
            order = trial_rng.permutation(inst.n)
            accepted, value = execute_online(inst, rule, order, values, coins)
            basis = inst.matroid.max_weight_basis(values)
            assert alg[tr] == value
            # the prophet's basis is summed in greedy (acceptance) order
            assert pro[tr] == sum(values[e] for e in sorted(
                basis, key=lambda e: (-values[e], e)))
            assert acc[tr].tolist() == [e in accepted for e in range(inst.n)]
