"""Online execution of threshold rules, exact expectations, and Monte Carlo
ratio estimation.

A rule is a per-item threshold plus a per-item coin for realizations that
land exactly on the threshold. Rules are frozen before the first arrival;
execution never mutates them. The expected value of a fixed rule is computed
by enumerating pass patterns: acceptance depends only on which items pass,
so each accepted item contributes its conditional value given a pass.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from . import kernels
from .errors import EnumerationCapError
from .reduction import (check_enum_cap, ex_ante_reduce, sample_value_matrix,
                        values_from_uniform, worst_case_order)

LOW_SAMPLE_FLOOR = 1000


@dataclass(frozen=True, eq=False)
class ThresholdRule:
    """Non-adaptive per-item thresholds, fixed before any arrival."""

    thresholds: np.ndarray
    atom_pass: np.ndarray

    def __post_init__(self):
        thr = np.asarray(self.thresholds, dtype=float)
        ap = np.asarray(self.atom_pass, dtype=float)
        if thr.shape != ap.shape or thr.ndim != 1:
            raise ValueError("thresholds and atom_pass must match in shape")
        # an infinite threshold closes its item (pass_profile prices it at
        # zero), so -inf would pass in simulation but not in exact mode
        if np.any(np.isnan(thr)) or np.any(thr == -np.inf):
            raise ValueError("thresholds must not be NaN or -inf")
        if np.any(ap < 0) or np.any(ap > 1):
            raise ValueError("atom pass probabilities must lie in [0, 1]")
        thr.flags.writeable = False
        ap.flags.writeable = False
        object.__setattr__(self, "thresholds", thr)
        object.__setattr__(self, "atom_pass", ap)

    @property
    def n(self):
        return self.thresholds.size

    def passes(self, values, coins):
        values = np.asarray(values, dtype=float)
        at = values == self.thresholds
        return (values > self.thresholds) | (at & (coins < self.atom_pass))

    def opened_on(self, consider):
        """This rule on the considered items; every other item gets an
        infinite threshold and never passes."""
        return ThresholdRule(np.where(consider, self.thresholds, np.inf),
                             np.where(consider, self.atom_pass, 0.0))


@dataclass(frozen=True)
class ArrivalOrder:
    perm: np.ndarray
    tag: str = "explicit"

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(perm.size)):
            raise ValueError("not a permutation of 0..n-1")
        perm.flags.writeable = False
        object.__setattr__(self, "perm", perm)

    @property
    def n(self):
        return self.perm.size


@dataclass(frozen=True)
class TrialReport:
    accepted: tuple
    alg_value: float
    order_tag: str


@dataclass(frozen=True)
class RatioSummary:
    trials: int
    mean_alg: float
    mean_prophet: float
    ratio: float
    ci_half_width: float
    level: float
    degenerate: bool
    low_sample_warning: bool


def safe_ratio(alg, opt):
    """(ratio, degenerate flag); a 0/0 instance counts as ratio 1."""
    if opt == 0.0:
        return 1.0, True
    return alg / opt, False


class FixedRuleAlgorithm:
    """A non-adaptive algorithm: one base rule, fixed before any arrival,
    opened on a considered set of items (`ThresholdRule.opened_on`).

    The only randomness is `coins` fair coins; `considered(bits)` maps rows
    of coin bits to masks of considered items. The engine draws the coins
    in Monte Carlo and enumerates them in exact mode. This class flips no
    coin and considers every item. `reduction` is the ex-ante reduction the
    worst-case order comes from; without one, the instance is reduced
    exactly when it is first read.
    """

    coins = 0

    def __init__(self, instance, rule, reduction=None):
        if rule.n != instance.n:
            raise ValueError("rule size does not match the instance")
        self.instance = instance
        self.rule = rule
        self._reduction = reduction

    def considered(self, bits):
        """(rows, n) masks of considered items, one per row of coin bits."""
        return np.ones((len(bits), self.instance.n), dtype=bool)

    def consider_matrix(self, rng, trials):
        """(trials, n) considered masks, from `coins` fair coins per trial
        drawn from rng; with no coins, rng is not advanced."""
        return self.considered(rng.random((trials, self.coins)) < 0.5)

    def build(self, rng):
        """The rule of one draw of the considered set."""
        return self.rule.opened_on(self.consider_matrix(rng, 1)[0])

    @property
    def reduction(self):
        if self._reduction is None:
            self._reduction = ex_ante_reduce(self.instance)
        return self._reduction


def execute_online(inst, rule, order, values, atom_coins):
    """Run one arrival sequence: accept an item when it passes its threshold
    and stays independent alongside everything accepted so far."""
    if not isinstance(order, ArrivalOrder):
        order = ArrivalOrder(order)
    perm = order.perm
    values = np.asarray(values, dtype=float)
    if values.shape != (inst.n,):
        raise ValueError("realization size does not match the instance")
    passing = rule.passes(values, np.asarray(atom_coins, dtype=float))
    totals, accepted = kernels.batched_greedy(inst.matroid, perm,
                                              passing[None], values[None])
    picked = tuple(int(e) for e in perm if accepted[0, e])
    return TrialReport(picked, float(totals[0]), order.tag)


def rule_pass_profile(inst, rule):
    """Per-item pass probability and conditional value given a pass."""
    r = np.zeros(inst.n)
    tau = np.zeros(inst.n)
    for i, d in enumerate(inst.dists):
        r[i], tau[i] = d.pass_profile(rule.thresholds[i], rule.atom_pass[i])
    return r, tau


def expected_rule_value(inst, rule, order, cap=None):
    """Exact expected online value of one fixed rule under one fixed order."""
    perm = order.perm if isinstance(order, ArrivalOrder) else \
        ArrivalOrder(order).perm
    r, tau = rule_pass_profile(inst, rule)
    cons = perm[r[perm] > 0.0]
    check_enum_cap(2 ** len(cons), f"2^{len(cons)} pass patterns", cap)
    return kernels.rule_value_exact(inst.matroid, cons, r, tau)


def resolve_order(inst, order, algo=None):
    """Normalize a fixed order argument: ArrivalOrder, permutation array or
    'worst_case' (priced values ascending)."""
    if isinstance(order, ArrivalOrder):
        return order
    if isinstance(order, str):
        if order == "worst_case":
            red = algo.reduction if algo is not None else ex_ante_reduce(inst)
            return ArrivalOrder(worst_case_order(red.t), "worst-case")
        raise ValueError(f"unknown order policy {order!r}")
    return ArrivalOrder(np.asarray(order))


def expected_value_exact(inst, algo, order="worst_case", cap=None):
    """Exact expected online value, averaging over every row of the
    algorithm's coins (e.g. every cut) and all pass patterns. A considered
    set's rule value is computed once, however many coin rows produce it."""
    order = resolve_order(inst, order, algo)
    k = algo.coins
    check_enum_cap(2 ** k, f"2^{k} coin patterns", cap)
    weight = 0.5 ** k
    values = {}
    total = 0.0
    for bits in kernels.subset_rows(k):
        for consider in algo.considered(bits):
            key = consider.tobytes()
            if key not in values:
                values[key] = expected_rule_value(
                    inst, algo.rule.opened_on(consider), order, cap)
            total += weight * values[key]
    return total


def _ratio_summary(alg_vals, pro_vals, level, trials):
    mean_alg = float(alg_vals.mean())
    mean_pro = float(pro_vals.mean())
    ratio, degenerate = safe_ratio(mean_alg, mean_pro)
    if degenerate or trials < 2:
        half = 0.0
    else:
        var_a = float(alg_vals.var(ddof=1))
        var_p = float(pro_vals.var(ddof=1))
        cov = float(np.cov(alg_vals, pro_vals, ddof=1)[0, 1])
        var_r = (var_a - 2.0 * ratio * cov + ratio * ratio * var_p) \
            / (trials * mean_pro * mean_pro)
        z = norm.ppf(0.5 + level / 2.0)
        half = float(z * math.sqrt(max(var_r, 0.0)))
    low = trials < LOW_SAMPLE_FLOOR
    if low:
        warnings.warn(f"only {trials} trials; confidence interval is crude",
                      stacklevel=3)
    return RatioSummary(trials, mean_alg, mean_pro, ratio, half, level,
                        degenerate, low)


def _draw_trials(inst, algo, seed, trial_ids):
    """Trial tr draws from SeedSequence((seed, tr)), in this order: its
    considered set (e.g. a cut), the uniforms behind its values, atom coins
    and an arrival permutation. The uniforms of all trials go through the
    inverse cdfs in one pass. Returns the per-trial rows (perm, consider,
    values, coins)."""
    rows = (len(trial_ids), inst.n)
    perm = np.empty(rows, dtype=np.int64)
    consider = np.empty(rows, dtype=bool)
    u, coins = np.empty(rows), np.empty(rows)
    for r, tr in enumerate(trial_ids):
        trial_rng = np.random.default_rng(np.random.SeedSequence((seed, tr)))
        consider[r] = algo.consider_matrix(trial_rng, 1)[0]
        u[r] = trial_rng.random(inst.n)
        coins[r] = trial_rng.random(inst.n)
        perm[r] = trial_rng.permutation(inst.n)
    return perm, consider, values_from_uniform(inst, u), coins


def monte_carlo_ratio(inst, algo, trials, seed=0, order="worst_case",
                      level=0.99, return_trials=False):
    """Paired Monte Carlo estimate of online value / offline value.

    Re-draws the algorithm's considered set every trial. The half-width is
    a normal approximation for the ratio of paired means.
    """
    if trials <= 0:
        raise ValueError("need a positive trial count")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level {level} outside (0, 1)")
    # a random order draws every trial from its own stream; a fixed order
    # draws whole blocks from one stream, a child of the seed, so that they
    # never repeat the values an mc reduction drew from default_rng(seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    per_trial = isinstance(order, str) and order == "random"
    if not per_trial:
        perm = resolve_order(inst, order, algo).perm
    thr, atom = algo.rule.thresholds, algo.rule.atom_pass
    alg_vals = np.empty(trials)
    pro_vals = np.empty(trials)
    accepted = np.zeros((trials, inst.n), dtype=bool) if return_trials \
        else None
    # per-trial streams do not depend on the block size: small blocks keep
    # their stacked rows small
    step = 1 << 9 if per_trial else kernels.BLOCK
    for done in range(0, trials, step):
        batch = min(step, trials - done)
        if per_trial:
            perm, consider, values, coins = _draw_trials(
                inst, algo, seed, range(done, done + batch))
        else:
            values = sample_value_matrix(inst, rng, batch)
            coins = rng.random((batch, inst.n))
            consider = algo.consider_matrix(rng, batch)
        a, acc = kernels.mc_online_graphic(inst.matroid, perm, thr, atom,
                                           values, coins, consider)
        p, best = kernels.mc_max_weight(inst.matroid, values)
        if per_trial:
            # per-trial streams sum the prophet's basis in index order
            p = np.zeros(batch)
            for e in range(inst.n):
                np.add(p, values[:, e], out=p, where=best[:, e])
        alg_vals[done:done + batch] = a
        pro_vals[done:done + batch] = p
        if accepted is not None:
            accepted[done:done + batch] = acc

    summary = _ratio_summary(alg_vals, pro_vals, level, trials)
    if return_trials:
        return summary, alg_vals, pro_vals, accepted
    return summary


def adversarial_order_search(inst, algo, mode="exhaustive", start=None,
                             cap=None):
    """Look for the arrival order minimizing the exact expected value.

    Exhaustive mode tries every permutation (guarded to small n); local mode
    descends by adjacent transpositions from the given start order.
    """
    n = inst.n
    if mode == "exhaustive":
        if n > 8:
            raise EnumerationCapError(
                f"exhaustive order search over {n}! permutations refused")
        best_perm, best_val = None, math.inf
        for perm in itertools.permutations(range(n)):
            val = expected_value_exact(
                inst, algo, ArrivalOrder(np.array(perm, dtype=np.int64)), cap)
            if val < best_val - 1e-15:
                best_perm, best_val = perm, val
        return (ArrivalOrder(np.array(best_perm, dtype=np.int64),
                             "adversarial-search"), best_val)
    if mode != "local":
        raise ValueError(f"unknown search mode {mode!r}")
    order = resolve_order(inst, "worst_case" if start is None else start, algo)
    perm = order.perm.copy()
    best_val = expected_value_exact(inst, algo, ArrivalOrder(perm), cap)
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            cand = perm.copy()
            cand[i], cand[i + 1] = cand[i + 1], cand[i]
            val = expected_value_exact(inst, algo, ArrivalOrder(cand), cap)
            if val < best_val - 1e-12:
                perm, best_val = cand, val
                improved = True
    return ArrivalOrder(perm, "adversarial-search"), best_val
