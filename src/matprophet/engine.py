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
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from . import kernels
from .errors import EnumerationCapError
from .reduction import (ex_ante_reduce, resolve_enum_cap, sample_value_matrix,
                        worst_case_order)

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
        if np.any(np.isnan(thr)):
            raise ValueError("thresholds must not be NaN")
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
    values: np.ndarray = field(repr=False, default=None)
    atom_coins: np.ndarray = field(repr=False, default=None)
    prophet_value: float | None = None


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
    """Adapter presenting one fixed rule as a (trivially) randomized builder."""

    def __init__(self, instance, rule):
        if rule.n != instance.n:
            raise ValueError("rule size does not match the instance")
        self.instance = instance
        self.rule = rule
        self._reduction = None

    def rule_distribution(self):
        return [(1.0, self.rule)]

    def build(self, rng):
        return self.rule

    def consider_matrix(self, rng, trials):
        r, _ = rule_pass_profile(self.instance, self.rule)
        return np.broadcast_to(r > 0, (trials, self.instance.n)).copy()

    def mc_rule_arrays(self):
        return self.rule.thresholds, self.rule.atom_pass

    @property
    def reduction(self):
        if self._reduction is None:
            self._reduction = ex_ante_reduce(self.instance)
        return self._reduction


def execute_online(inst, rule, order, values, atom_coins=None, rng=None):
    """Run one arrival sequence: accept an item when it passes its threshold
    and stays independent alongside everything accepted so far."""
    if isinstance(order, ArrivalOrder):
        perm, tag = order.perm, order.tag
    else:
        order = ArrivalOrder(order)
        perm, tag = order.perm, order.tag
    values = np.asarray(values, dtype=float)
    if values.shape != (inst.n,):
        raise ValueError("realization size does not match the instance")
    if atom_coins is None:
        if rng is None:
            raise ValueError("need atom coins or an rng to draw them")
        atom_coins = rng.random(inst.n)
    atom_coins = np.asarray(atom_coins, dtype=float)
    passing = rule.passes(values, atom_coins)
    totals, accepted = kernels.batched_greedy(inst.matroid, perm,
                                              passing[None], values[None])
    picked = tuple(int(e) for e in perm if accepted[0, e])
    return TrialReport(picked, float(totals[0]), tag,
                       values=values, atom_coins=atom_coins)


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
    limit = resolve_enum_cap(cap)
    if 2 ** len(cons) > limit:
        raise EnumerationCapError(
            f"2^{len(cons)} pass patterns exceed the enumeration cap {limit}")
    return kernels.rule_value_exact(inst.matroid, cons, r, tau)


def resolve_order(inst, order, algo=None, rng=None):
    """Normalize an order argument: ArrivalOrder, permutation array,
    'worst_case' (priced values ascending), or 'random'."""
    if isinstance(order, ArrivalOrder):
        return order
    if isinstance(order, str):
        if order == "worst_case":
            if algo is not None and getattr(algo, "reduction", None) is not None:
                t = algo.reduction.t
            else:
                t = ex_ante_reduce(inst).t
            return ArrivalOrder(worst_case_order(t), "worst-case")
        if order == "random":
            if rng is None:
                raise ValueError("random order needs an rng")
            return ArrivalOrder(rng.permutation(inst.n), "random")
        raise ValueError(f"unknown order policy {order!r}")
    return ArrivalOrder(np.asarray(order))


def expected_value_exact(inst, algo, order="worst_case", cap=None):
    """Exact expected online value, averaging over the algorithm's own
    randomness (e.g. its cut) and all pass patterns."""
    order = resolve_order(inst, order, algo)
    total = 0.0
    for prob, rule in algo.rule_distribution():
        if prob == 0.0:
            continue
        total += prob * expected_rule_value(inst, rule, order, cap)
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


def _draw_trials(inst, algo, seed, trial_ids, fixed_order):
    """Trial tr draws from SeedSequence((seed, tr)), in this order: its
    rule (e.g. a cut), values, atom coins, and, without a fixed order, an
    arrival permutation. Returns the per-trial rows (perm, thresholds,
    atom_pass, values, coins)."""
    rows = (len(trial_ids), inst.n)
    perm = np.empty(rows, dtype=np.int64)
    thr, atom, values, coins = (np.empty(rows) for _ in range(4))
    for r, tr in enumerate(trial_ids):
        trial_rng = np.random.default_rng(np.random.SeedSequence((seed, tr)))
        rule = algo.build(trial_rng)
        thr[r], atom[r] = rule.thresholds, rule.atom_pass
        values[r] = sample_value_matrix(inst, trial_rng, 1)[0]
        coins[r] = trial_rng.random(inst.n)
        perm[r] = fixed_order.perm if fixed_order is not None else \
            trial_rng.permutation(inst.n)
    return perm, thr, atom, values, coins


def monte_carlo_ratio(inst, algo, trials, seed=0, order="worst_case",
                      level=0.99, return_trials=False):
    """Paired Monte Carlo estimate of online value / offline value.

    Re-draws the algorithm's builder randomness every trial. The half-width
    is a normal approximation for the ratio of paired means.
    """
    if trials <= 0:
        raise ValueError("need a positive trial count")
    rng = np.random.default_rng(seed)
    fixed_order = None
    if not (isinstance(order, str) and order == "random"):
        fixed_order = resolve_order(inst, order, algo)
    # a random order, or a builder without batch arrays, draws every trial
    # from its own stream; otherwise whole blocks come from one stream
    per_trial = fixed_order is None or not (
        hasattr(algo, "consider_matrix") and hasattr(algo, "mc_rule_arrays"))
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
            perm, thr, atom, values, coins = _draw_trials(
                inst, algo, seed, range(done, done + batch), fixed_order)
            consider = True
        else:
            perm = fixed_order.perm
            thr, atom = algo.mc_rule_arrays()
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


def adversarial_order_search(inst, algo, mode="exhaustive", seed=0,
                             start=None, cap=None):
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
