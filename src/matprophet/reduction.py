"""Prophet instances and the ex-ante relaxation.

The reduction computes, per item, the probability p_i that the item appears
in the offline max-weight selection, then prices the item at the tail
expectation of its top p_i mass. The vector p always lies in the matroid
polytope (it is a mixture of independent-set indicators) and the priced sum
upper-bounds the offline expectation.
"""

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .distributions import DiscreteDistribution
from .errors import EnumerationCapError
from .matroids import Matroid, POLYTOPE_CAP

DEFAULT_ENUM_CAP = 1 << 20


def check_enum_cap(count, what, cap=None):
    """Refuse an exact computation of `count` states (`what` names them)
    above the enumeration cap: the explicit cap, else MATPROPHET_ENUM_CAP,
    else the default."""
    if cap is None:
        cap = os.environ.get("MATPROPHET_ENUM_CAP", "").strip() \
            or DEFAULT_ENUM_CAP
    limit = int(cap)
    if count > limit:
        raise EnumerationCapError(
            f"{what} exceed the enumeration cap {limit}")


@dataclass(frozen=True, eq=False)
class ProphetInstance:
    matroid: Matroid
    dists: tuple

    def __post_init__(self):
        object.__setattr__(self, "dists", tuple(self.dists))
        if len(self.dists) != self.matroid.n:
            raise ValueError("need one distribution per matroid element")
        for d in self.dists:
            if not isinstance(d, DiscreteDistribution):
                raise ValueError("distributions must be DiscreteDistribution")

    @property
    def n(self):
        return self.matroid.n

    def outcome_count(self):
        return math.prod(d.size for d in self.dists)


@dataclass(frozen=True, eq=False)
class BernoulliInstance:
    """Each item is worth t_i with probability p_i, else nothing."""

    matroid: Matroid
    p: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        t = np.asarray(self.t, dtype=float)
        n = self.matroid.n
        if p.shape != (n,) or t.shape != (n,):
            raise ValueError(f"p and t must both have shape ({n},)")
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise ValueError("activation probabilities must lie in [0, 1]")
        if not np.all(np.isfinite(t)) or np.any(t < 0):
            raise ValueError("values must be finite and nonnegative")
        p = np.clip(p, 0.0, 1.0)
        p.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", t)

    @property
    def n(self):
        return self.matroid.n

    def bound(self):
        """The priced sum over items."""
        return float(self.p @ self.t)

    def to_prophet_instance(self):
        dists = tuple(DiscreteDistribution.two_point(pi, ti)
                      for pi, ti in zip(self.p, self.t))
        return ProphetInstance(self.matroid, dists)


@dataclass(frozen=True)
class ReductionResult:
    """The ex-ante form, plus the prophet value its enumeration or sampling
    measured on the way (stderr only in mc mode)."""

    instance: BernoulliInstance
    mode: str
    trials: int
    prophet_value: float
    prophet_stderr: float | None

    @cached_property
    def feasibility_slack(self):
        """Matroid-polytope slack of p; None above POLYTOPE_CAP items."""
        if self.instance.n > POLYTOPE_CAP:
            return None
        return self.instance.matroid.polytope_slack(self.p)

    @property
    def p(self):
        return self.instance.p

    @property
    def t(self):
        return self.instance.t

    def bound(self):
        return self.instance.bound()


def _support_arrays(inst):
    offsets = np.zeros(inst.n + 1, dtype=np.int64)
    for i, d in enumerate(inst.dists):
        offsets[i + 1] = offsets[i] + d.size
    values = np.concatenate([d.values for d in inst.dists]) if inst.n \
        else np.zeros(0)
    probs = np.concatenate([d.probs for d in inst.dists]) if inst.n \
        else np.zeros(0)
    return offsets, values, probs


def _exact_opt_and_membership(inst, cap=None):
    count = inst.outcome_count()
    check_enum_cap(count, f"{count} product outcomes", cap)
    offsets, values, probs = _support_arrays(inst)
    return kernels.exact_reduce(inst.matroid, offsets, values, probs)


def values_from_uniform(inst, u):
    """Realizations from a (rows, n) matrix of uniform [0,1) draws: each
    column goes through its item's inverse cdf."""
    out = np.empty(u.shape)
    for i, d in enumerate(inst.dists):
        out[:, i] = d.sample_from_uniform(u[:, i])
    return out


def sample_value_matrix(inst, rng, trials):
    """(trials, n) realization matrix, one column per item."""
    return values_from_uniform(inst, rng.random((trials, inst.n)))


def _mc_opt_and_membership(inst, trials, seed):
    """(prophet value mean, its stderr, membership counts) over `trials`
    draws."""
    if trials <= 0:
        raise ValueError("need a positive trial count")
    rng = np.random.default_rng(seed)
    counts = np.zeros(inst.n, dtype=np.int64)
    total = 0.0
    total_sq = 0.0
    for done in range(0, trials, kernels.BLOCK):
        values = sample_value_matrix(inst, rng,
                                     min(kernels.BLOCK, trials - done))
        opts, best = kernels.mc_max_weight(inst.matroid, values)
        counts += best.sum(axis=0)
        total += float(opts.sum())
        total_sq += float(opts @ opts)
    mean = total / trials
    var = max(total_sq / trials - mean ** 2, 0.0)
    return mean, math.sqrt(var / trials), counts


def prophet_value_exact(inst, cap=None):
    """Expected offline max-weight value, by outcome enumeration."""
    opt, _ = _exact_opt_and_membership(inst, cap)
    return opt


def ex_ante_reduce(inst, mode="exact", trials=100_000, seed=0, cap=None):
    """Reduce a prophet instance to its ex-ante Bernoulli form.

    Exact mode enumerates the outcome product (cap-guarded); mc mode samples
    realizations and uses membership frequencies, which stay inside the
    matroid polytope by construction. The prophet value comes from the same
    enumeration or sample; the feasibility slack is computed when read.
    """
    if mode == "exact":
        opt, p = _exact_opt_and_membership(inst, cap)
        stderr, used_trials = None, 0
    elif mode == "mc":
        opt, stderr, counts = _mc_opt_and_membership(inst, trials, seed)
        used_trials = trials
        p = counts / trials
    else:
        raise ValueError(f"unknown mode {mode!r}")
    p = np.clip(p, 0.0, 1.0)
    t = np.array([d.tail_expectation(pi) if pi > 0 else 0.0
                  for d, pi in zip(inst.dists, p)])
    bern = BernoulliInstance(inst.matroid, p, t)
    return ReductionResult(bern, mode, used_trials, opt, stderr)


def worst_case_order(t):
    """Arrival order sorting priced values ascending, ties by index; this is
    the minimizing order for greedy selection on Bernoulli instances."""
    if isinstance(t, BernoulliInstance):
        t = t.t
    t = np.asarray(t, dtype=float)
    return np.argsort(t, kind="mergesort")
