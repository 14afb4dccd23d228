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

from . import kernels
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
        above = np.array([d.prob_above(v) for d in inst.dists])
        at = np.array([d.prob_at(v) for d in inst.dists])
        # Pr[fewer than k pass] when the atom coin never or always passes
        closed, open_ = kernels.below_cap(above + np.outer([0.0, 1.0], at), k)
        # closed equals the previous candidate's open_, so the sweep is
        # continuous; the target is crossed inside the first segment whose
        # open_ end dips to 1/2.
        if open_ <= HALF:
            if closed <= HALF:
                return UniformThreshold(v, 0.0, k, "probabilistic")
            if open_ == HALF:
                return UniformThreshold(v, 1.0, k, "probabilistic")
            q = _brentq(lambda q: kernels.below_cap(above + q * at, k) - HALF,
                        0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
            return UniformThreshold(v, float(q), k, "probabilistic")
    raise AssertionError("threshold sweep failed to bracket 1/2")


def _brentq(f, xa, xb, xtol, rtol, maxiter=100):
    """A root of f between xa and xb, where f changes sign, by Brent's
    method (Brent 1973, ch. 4) step for step as scipy.optimize.brentq
    takes it: the same iterates, so the same float, without loading scipy.
    It stops when f hits 0 or the bracket is under xtol + rtol * |x|."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f must have different signs at the bracket ends")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} steps")


def samuel_cahn_threshold(inst):
    """Single-choice case: Pr[any item passes] = 1/2."""
    out = kuniform_probabilistic_threshold(inst, k=1)
    return UniformThreshold(out.threshold, out.atom_pass, 1, "samuel-cahn",
                            out.degenerate)


def kuniform_opt_fraction_threshold(inst, k=None):
    """T = offline expectation / (2k), plain comparison (ties pass)."""
    if k is None:
        k = _uniform_capacity(inst)
    if k < 1:
        return UniformThreshold(math.inf, 0.0, k, "opt-fraction")
    opt = prophet_value_exact(inst)
    return UniformThreshold(opt / (2.0 * k), 1.0, k, "opt-fraction")


def _uniform_capacity(inst):
    if not isinstance(inst.matroid, UniformMatroid):
        raise ValueError("needs a uniform matroid or an explicit capacity k")
    return inst.matroid.k


def partition_thresholds(inst, method="probabilistic"):
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
                ut = kuniform_opt_fraction_threshold(sub, k)
        elif method == "opt-fraction":
            ut = kuniform_opt_fraction_threshold(sub, k)
        else:
            raise ValueError(f"unknown method {method!r}")
        for e in block:
            thr[e] = ut.threshold
            atom[e] = ut.atom_pass
        per_block.append(ut)
    return ThresholdRule(thr, atom), per_block


class BaselineAlgorithm(FixedRuleAlgorithm):
    def __init__(self, inst, rule, name, info):
        super().__init__(inst, rule)
        self.name = name
        self.info = info


# the matroids each baseline runs on: (their name, a test of the matroid)
FAMILIES = {
    "samuel-cahn": ("1-uniform matroids",
                    lambda m: isinstance(m, UniformMatroid) and m.k == 1),
    "kuniform-prob": ("uniform matroids",
                      lambda m: isinstance(m, UniformMatroid)),
    "kuniform-optfrac": ("uniform matroids",
                         lambda m: isinstance(m, UniformMatroid)),
    "partition": ("partition matroids",
                  lambda m: isinstance(m, PartitionMatroid)),
    "partition-optfrac": ("partition matroids",
                          lambda m: isinstance(m, PartitionMatroid)),
}


def require_family(inst, name):
    """Refuse an unknown baseline, or one on a matroid it does not run on."""
    if name not in FAMILIES:
        raise ValueError(f"unknown baseline {name!r}")
    family, fits = FAMILIES[name]
    if not fits(inst.matroid):
        raise ValueError(f"{name} runs on {family}")


def make_baseline(inst, name):
    """Build a baseline by CLI name."""
    require_family(inst, name)
    if name == "samuel-cahn":
        ut = samuel_cahn_threshold(inst)
    elif name == "kuniform-prob":
        ut = kuniform_probabilistic_threshold(inst)
    elif name == "kuniform-optfrac":
        ut = kuniform_opt_fraction_threshold(inst)
    else:
        method = "opt-fraction" if name.endswith("optfrac") else "probabilistic"
        rule, per_block = partition_thresholds(inst, method)
        return BaselineAlgorithm(inst, rule, name, per_block)
    return BaselineAlgorithm(inst, ut.to_rule(inst.n), name, ut)
