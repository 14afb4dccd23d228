"""Classical single-threshold baselines for uniform and partition matroids.

Two calibrations per capacity k: set T so that fewer than k items pass with
probability exactly one half (discrete atoms handled by a pass coin), or set
T to half the offline expectation spread over k slots. Either rule earns at
least half the offline expectation; the partition rule applies one of them
per block.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .engine import FixedRuleAlgorithm, ThresholdRule
from .matroids import PartitionMatroid, UniformMatroid
from .reduction import ProphetInstance, prophet_value_exact

HALF = 0.5


@dataclass(frozen=True)
class UniformThreshold:
    """One shared threshold: pass when X > threshold, or X == threshold with
    probability atom_pass. The degenerate flag marks instances with no value
    anywhere (the threshold is then infinite)."""

    threshold: float
    atom_pass: float
    k: int
    method: str
    degenerate: bool = False

    def to_rule(self, n):
        return ThresholdRule(np.full(n, self.threshold),
                             np.full(n, self.atom_pass))


def _candidate_values(dists):
    vals = sorted({float(v) for d in dists for v in d.values}, reverse=True)
    return vals


def _below_k_probability(dists, k, threshold, atom_pass):
    """Pr[fewer than k items pass] for independent items."""
    dp = np.zeros(k + 1)
    dp[0] = 1.0
    for d in dists:
        r = d.prob_above(threshold) + atom_pass * d.prob_at(threshold)
        ndp = np.zeros(k + 1)
        for j in range(k + 1):
            if dp[j] == 0.0:
                continue
            stay = min(j + 1, k)  # k bucket absorbs everything at or past k
            ndp[stay] += dp[j] * r
            ndp[j] += dp[j] * (1.0 - r)
        dp = ndp
    return float(dp[:k].sum())


def kuniform_probabilistic_threshold(inst, k=None):
    """Threshold (plus atom coin) making Pr[fewer than k pass] exactly 1/2.

    Sweeping the threshold down through the support values while opening the
    atom coin makes that probability continuous from 1 to 0, so a solution
    always exists unless the instance carries no value at all.
    """
    if k is None:
        k = _uniform_capacity(inst)
    if k < 1:
        return UniformThreshold(math.inf, 0.0, k, "probabilistic")
    if k > inst.n:
        raise ValueError(f"capacity {k} exceeds the {inst.n} items")
    if max(d.max_value() for d in inst.dists) == 0.0:
        return UniformThreshold(math.inf, 0.0, k, "probabilistic",
                                degenerate=True)
    for v in _candidate_values(inst.dists):
        closed = _below_k_probability(inst.dists, k, v, 0.0)  # coin never passes
        open_ = _below_k_probability(inst.dists, k, v, 1.0)   # coin always passes
        # closed equals the previous candidate's open_, so the sweep is
        # continuous; the target is crossed inside the first segment whose
        # open_ end dips to 1/2.
        if open_ <= HALF:
            if closed <= HALF:
                return UniformThreshold(v, 0.0, k, "probabilistic")
            if open_ == HALF:
                return UniformThreshold(v, 1.0, k, "probabilistic")
            q = brentq(
                lambda q: _below_k_probability(inst.dists, k, v, q) - HALF,
                0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
            return UniformThreshold(v, float(q), k, "probabilistic")
    raise AssertionError("threshold sweep failed to bracket 1/2")


def samuel_cahn_threshold(inst):
    """Single-choice case: Pr[any item passes] = 1/2."""
    out = kuniform_probabilistic_threshold(inst, k=1)
    return UniformThreshold(out.threshold, out.atom_pass, 1, "samuel-cahn",
                            out.degenerate)


def kuniform_opt_fraction_threshold(inst, k=None, cap=None, opt=None):
    """T = offline expectation / (2k), plain comparison (ties pass). `opt`
    is that expectation when the caller already holds it exactly; otherwise
    it is enumerated."""
    if k is None:
        k = _uniform_capacity(inst)
    if k < 1:
        return UniformThreshold(math.inf, 0.0, k, "opt-fraction")
    if opt is None:
        opt = prophet_value_exact(inst, cap=cap)
    return UniformThreshold(opt / (2.0 * k), 1.0, k, "opt-fraction")


def _uniform_capacity(inst):
    if not isinstance(inst.matroid, UniformMatroid):
        raise ValueError("needs a uniform matroid or an explicit capacity k")
    return inst.matroid.k


def partition_thresholds(inst, method="probabilistic", cap=None):
    """Per-block uniform thresholds assembled into one rule.

    A block that degenerates under the probabilistic calibration falls back
    to its opt-fraction threshold.
    """
    m = inst.matroid
    if not isinstance(m, PartitionMatroid):
        raise ValueError("needs a partition matroid")
    thr = np.full(inst.n, math.inf)
    atom = np.zeros(inst.n)
    per_block = []
    for block, capacity in zip(m.blocks, m.capacities):
        if not block:
            per_block.append(None)
            continue
        k = min(capacity, len(block))
        sub = ProphetInstance(UniformMatroid(len(block), k),
                              [inst.dists[e] for e in block])
        if method == "probabilistic":
            ut = kuniform_probabilistic_threshold(sub, k)
            if ut.degenerate:
                ut = kuniform_opt_fraction_threshold(sub, k, cap=cap)
        elif method == "opt-fraction":
            ut = kuniform_opt_fraction_threshold(sub, k, cap=cap)
        else:
            raise ValueError(f"unknown method {method!r}")
        for e in block:
            thr[e] = ut.threshold
            atom[e] = ut.atom_pass
        per_block.append(ut)
    return ThresholdRule(thr, atom), per_block


class BaselineAlgorithm(FixedRuleAlgorithm):
    def __init__(self, inst, rule, name, info, reduction=None):
        super().__init__(inst, rule, reduction)
        self.name = name
        self.info = info


def make_baseline(inst, name, cap=None, reduction=None):
    """Build a baseline by CLI name. `reduction` is the ex-ante reduction
    its worst-case order comes from (by default the exact one, computed
    when first read)."""
    if name == "samuel-cahn":
        if not isinstance(inst.matroid, UniformMatroid) or inst.matroid.k != 1:
            raise ValueError("samuel-cahn runs on 1-uniform instances")
        ut = samuel_cahn_threshold(inst)
    elif name == "kuniform-prob":
        ut = kuniform_probabilistic_threshold(inst)
    elif name == "kuniform-optfrac":
        # an exact reduction already holds the prophet value
        exact = reduction is not None and reduction.mode == "exact"
        ut = kuniform_opt_fraction_threshold(
            inst, cap=cap, opt=reduction.prophet_value if exact else None)
    elif name in ("partition", "partition-optfrac"):
        method = "opt-fraction" if name.endswith("optfrac") else "probabilistic"
        rule, per_block = partition_thresholds(inst, method, cap=cap)
        return BaselineAlgorithm(inst, rule, name, per_block, reduction)
    else:
        raise ValueError(f"unknown baseline {name!r}")
    return BaselineAlgorithm(inst, ut.to_rule(inst.n), name, ut, reduction)
