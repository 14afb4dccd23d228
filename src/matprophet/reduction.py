"""Prophet instances and the ex-ante relaxation.

The reduction computes, per item, the probability p_i that the item appears
in the offline max-weight selection, then prices the item at the tail
expectation of its top p_i mass. The vector p always lies in the matroid
polytope (it is a mixture of independent-set indicators) and the priced sum
upper-bounds the offline expectation.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .distributions import DiscreteDistribution
from .errors import EnumerationCapError, check_enum_cap
from .matroids import Matroid


def capped_slack(matroid, p):
    """matroid.polytope_slack(p), or None when its subset sweep is past the
    enumeration cap."""
    try:
        return matroid.polytope_slack(p)
    except EnumerationCapError:
        return None


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
class ReductionResult:
    """The ex-ante form: item i is worth t[i] with probability p[i], else
    nothing (read-only arrays). It also carries the prophet value its
    enumeration or sampling measured on the way (stderr only in mc mode)."""

    matroid: Matroid
    p: np.ndarray
    t: np.ndarray
    mode: str
    trials: int
    prophet_value: float
    prophet_stderr: float | None

    def __post_init__(self):
        for name in ("p", "t"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @cached_property
    def feasibility_slack(self):
        """Matroid-polytope slack of p; None past the enumeration cap."""
        return capped_slack(self.matroid, self.p)

    def bound(self):
        """The priced sum over items."""
        return float(self.p @ self.t)


def _support_arrays(inst):
    offsets = np.zeros(inst.n + 1, dtype=np.int64)
    for i, d in enumerate(inst.dists):
        offsets[i + 1] = offsets[i] + d.size
    values = np.concatenate([d.values for d in inst.dists]) if inst.n \
        else np.zeros(0)
    probs = np.concatenate([d.probs for d in inst.dists]) if inst.n \
        else np.zeros(0)
    return offsets, values, probs


def _exact_opt_and_membership(inst):
    offsets, values, probs = _support_arrays(inst)
    blocks = kernels.partition_args(inst.matroid)
    if blocks is not None:
        return kernels.counting_reduce(*blocks, offsets, values, probs)
    count = inst.outcome_count()
    check_enum_cap(count, f"{count} product outcomes")
    return kernels.exact_reduce(inst.matroid, offsets, values, probs)


def values_from_uniform(inst, u):
    """Realizations from a (rows, n) matrix of uniform [0,1) draws: each
    column goes through its item's inverse cdf. The matrix is laid out
    column by column, as the greedy passes read it, one item at a time."""
    out = np.empty(u.shape, order="F")
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
        opts, best = kernels.mc_max_weight(inst, values)
        counts += best.sum(axis=0)
        total += float(opts.sum())
        total_sq += float(opts @ opts)
    mean = total / trials
    var = max(total_sq / trials - mean ** 2, 0.0)
    return mean, math.sqrt(var / trials), counts


def prophet_value_exact(inst):
    """Expected offline max-weight value, exact (as in ex_ante_reduce)."""
    opt, _ = _exact_opt_and_membership(inst)
    return opt


def ex_ante_reduce(inst, mode="exact", trials=100_000, seed=0):
    """Reduce a prophet instance to its ex-ante Bernoulli form.

    Exact mode enumerates the outcome product (cap-guarded) or counts on a
    uniform or partition matroid; mc mode samples realizations and uses
    membership frequencies, inside the matroid polytope by construction. The
    prophet value comes from the same run; the slack is computed when read.
    """
    if mode == "exact":
        opt, p = _exact_opt_and_membership(inst)
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
    return ReductionResult(inst.matroid, p, t, mode, used_trials, opt, stderr)


def worst_case_order(t):
    """Arrival order sorting priced values ascending, ties by index; this is
    the minimizing order for greedy selection on Bernoulli instances."""
    return np.argsort(np.asarray(t, dtype=float), kind="mergesort")
