"""Single-threshold baselines and their half guarantee."""

import math

import numpy as np
import pytest

from matprophet import (PartitionMatroid, ProphetInstance, UniformMatroid,
                        ex_ante_reduce, kuniform_opt_fraction_threshold,
                        kuniform_probabilistic_threshold, make_baseline,
                        partition_thresholds, prophet_value_exact,
                        samuel_cahn_threshold)
from matprophet import kernels
from matprophet.baselines import _below_k_probability
from matprophet.distributions import DiscreteDistribution
from matprophet.engine import expected_value_exact
from matprophet.generate import (random_partition_instance,
                                 random_uniform_instance)

coin = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
zero = DiscreteDistribution.constant(0.0)


def one_of(dists):
    return ProphetInstance(UniformMatroid(len(dists), 1), list(dists))


def test_below_k_probability():
    dists = [coin, coin, coin]
    # fewer than 2 of three fair passes at threshold 0 (strict)
    assert _below_k_probability(dists, 2, 0.0, 0.0) == pytest.approx(0.5)
    assert _below_k_probability(dists, 1, 0.0, 0.0) == pytest.approx(0.125)
    # at threshold 1 nothing passes unless the atom coin is open
    assert _below_k_probability(dists, 1, 1.0, 0.0) == pytest.approx(1.0)
    assert _below_k_probability(dists, 1, 1.0, 1.0) == pytest.approx(0.125)


def test_two_coins_threshold():
    ut = samuel_cahn_threshold(one_of([coin, coin]))
    assert ut.threshold == 1.0
    # (1 - q/2)^2 = 1/2 picks q = 2 (1 - sqrt(1/2))
    assert ut.atom_pass == pytest.approx(2.0 * (1.0 - math.sqrt(0.5)),
                                         abs=1e-12)
    assert not ut.degenerate
    assert ut.method == "samuel-cahn"


def test_single_two_point_threshold():
    d = DiscreteDistribution([0.0, 2.0], [0.5, 0.5])
    ut = samuel_cahn_threshold(one_of([d]))
    # the atom itself carries exactly half the mass
    assert (ut.threshold, ut.atom_pass) == (2.0, 1.0)


def test_deterministic_item_gets_fair_coin():
    ut = samuel_cahn_threshold(one_of([DiscreteDistribution.constant(3.0)]))
    assert ut.threshold == 3.0
    assert ut.atom_pass == pytest.approx(0.5, abs=1e-12)


def test_all_zero_is_degenerate():
    ut = samuel_cahn_threshold(one_of([zero, zero]))
    assert ut.degenerate
    assert math.isinf(ut.threshold)


def test_calibration_solves_exactly():
    rng = np.random.default_rng(19)
    for _ in range(30):
        inst = random_uniform_instance(rng, max_n=5)
        k = inst.matroid.k
        ut = kuniform_probabilistic_threshold(inst)
        if ut.degenerate:
            continue
        got = _below_k_probability(inst.dists, k, ut.threshold, ut.atom_pass)
        assert got == pytest.approx(0.5, abs=1e-9)


def test_capacity_validation():
    inst = one_of([coin, coin])
    with pytest.raises(ValueError):
        kuniform_probabilistic_threshold(inst, k=3)
    ut = kuniform_probabilistic_threshold(inst, k=0)
    assert math.isinf(ut.threshold)


def test_opt_fraction_threshold():
    inst = one_of([coin, coin])
    ut = kuniform_opt_fraction_threshold(inst)
    assert ut.threshold == pytest.approx(0.75 / 2.0)
    assert ut.atom_pass == 1.0
    assert ut.method == "opt-fraction"


def test_opt_fraction_reuses_an_exact_reduction(monkeypatch):
    calls = []
    exact_reduce = kernels.exact_reduce

    def counted(*args):
        calls.append(1)
        return exact_reduce(*args)

    monkeypatch.setattr(kernels, "exact_reduce", counted)
    rng = np.random.default_rng(31)
    for case in range(6):
        inst = random_uniform_instance(rng, max_n=5)
        own = make_baseline(inst, "kuniform-optfrac")
        calls.clear()
        exact = make_baseline(inst, "kuniform-optfrac",
                              reduction=ex_ante_reduce(inst))
        assert len(calls) == 1  # the reduction's enumeration, no second
        mc = make_baseline(inst, "kuniform-optfrac", reduction=ex_ante_reduce(
            inst, mode="mc", trials=500, seed=case))
        assert len(calls) == 2  # an mc reduction holds no exact value
        for algo in (exact, mc):
            assert algo.info == own.info
            assert algo.rule.thresholds.tobytes() == \
                own.rule.thresholds.tobytes()


def test_half_guarantee_uniform_exact():
    rng = np.random.default_rng(29)
    for _ in range(20):
        inst = random_uniform_instance(rng, max_n=5)
        opt = prophet_value_exact(inst)
        for name in ("kuniform-prob", "kuniform-optfrac"):
            algo = make_baseline(inst, name)
            val = expected_value_exact(inst, algo)
            assert val >= opt / 2.0 - 1e-9, (name, val, opt)


def test_half_guarantee_partition_exact():
    rng = np.random.default_rng(31)
    for _ in range(12):
        inst = random_partition_instance(rng)
        opt = prophet_value_exact(inst)
        for name in ("partition", "partition-optfrac"):
            algo = make_baseline(inst, name)
            val = expected_value_exact(inst, algo)
            assert val >= opt / 2.0 - 1e-9, (name, val, opt)


def test_partition_blocks_and_fallback():
    m = PartitionMatroid([(0, 1), (2,)], [1, 1])
    inst = ProphetInstance(m, [coin, coin, zero])
    rule, per_block = partition_thresholds(inst)
    assert per_block[0].method == "probabilistic"
    # the all-zero block cannot be calibrated and falls back
    assert per_block[1].method == "opt-fraction"
    assert rule.thresholds[0] == rule.thresholds[1] == 1.0
    assert rule.thresholds[2] == 0.0


def test_make_baseline_validation():
    inst = one_of([coin, coin])
    with pytest.raises(ValueError):
        make_baseline(inst, "no-such-baseline")
    with pytest.raises(ValueError):
        # samuel-cahn needs capacity one
        make_baseline(ProphetInstance(UniformMatroid(2, 2), [coin, coin]),
                      "samuel-cahn")
    with pytest.raises(ValueError):
        make_baseline(inst, "partition")


def test_tight_two_item_example():
    # constant 1 plus a long shot worth 1/eps: the single-threshold rule
    # cannot beat one half by much on this family
    eps = 0.01
    long_shot = DiscreteDistribution([0.0, 1.0 / eps], [1.0 - eps, eps])
    inst = one_of([DiscreteDistribution.constant(1.0), long_shot])
    ut = samuel_cahn_threshold(inst)
    assert ut.threshold == 1.0
    assert ut.atom_pass == pytest.approx(49.0 / 99.0, abs=1e-12)
    assert prophet_value_exact(inst) == pytest.approx(1.99)
