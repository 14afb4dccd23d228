"""Matroids: three families (graphic, uniform, partition), greedy
optimization, and the slack of the independent-set polytope.

Elements are integers 0..n-1. A family is its kernel_args encoding, the
one that kernels.batched_greedy runs; greedy in any order accepts every
item of a set exactly when the set is independent, so the encoding alone
decides independence. Bases and the polytope slack run the primitive (the
slack of a uniform or partition matroid sorts instead).
"""

import itertools
import operator

import numpy as np

from . import kernels
from .errors import check_enum_cap


def scale(p, factor):
    """Scale a vector by factor in [0, 1] (keeps polytope membership)."""
    if not 0.0 <= factor <= 1.0:
        raise ValueError(f"scale factor must lie in [0, 1], got {factor}")
    return np.asarray(p, dtype=float) * factor


def _integer(x, what):
    """x as an int; anything that is not an integer (3.5, but also 3.0 or
    "3") is refused instead of truncated. numpy integers pass."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


class Matroid:
    """n elements plus what every family derives from its kernel_args."""

    def __init__(self, n):
        n = _integer(n, "n")
        if n < 0:
            raise ValueError("ground set size must be nonnegative")
        self.n = n

    def max_weight_basis(self, weights):
        """Greedy max-weight independent set.

        Items are scanned by decreasing weight with ties broken toward the
        lower index; zero-weight items are never taken.
        """
        w = self._check_weights(weights)
        _, accepted = kernels._max_weight_rows(self, w[None])
        return tuple(np.flatnonzero(accepted[0]).tolist())

    def _check_weights(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.n,):
            raise ValueError(f"expected {self.n} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        return w

    def polytope_slack(self, p):
        """min over nonempty subsets S of rank(S) - p(S); nonnegative (up to
        float noise) exactly when p lies in the independent-set polytope,
        and inf when there is no element.

        Each subset is one greedy row in index order, so its rank is the
        number of items the row accepts; p(S) adds left to right in index
        order, once the 2^n rows pass the enumeration cap. Uniform and
        partition matroids sort (_partition_slack), at any size."""
        pv = np.asarray(p, dtype=float)
        if pv.shape != (self.n,):
            raise ValueError(f"expected {self.n} entries, got shape {pv.shape}")
        if not np.all(np.isfinite(pv)) or np.any(pv < 0):
            raise ValueError("vector must be finite and nonnegative")
        blocks = kernels.partition_args(self)
        if blocks is not None:
            return _partition_slack(pv, *blocks)
        check_enum_cap(2 ** self.n, f"2^{self.n} polytope subsets")
        best = np.inf
        for bits in kernels.subset_rows(self.n):
            _, accepted = kernels.batched_greedy(self, np.arange(self.n),
                                                 bits, 0.0)
            mass = kernels.running_sum(np.zeros(len(bits)),
                                        np.where(bits, pv, 0.0))
            # the empty subset is left out
            slack = np.where(bits.any(axis=1), accepted.sum(axis=1) - mass,
                             np.inf)
            best = min(best, slack.min())
        return float(best)

    def kernel_args(self):
        """(kind, num_vertices, eu, ev, block_id, caps) for
        kernels.batched_greedy; every family supplies it."""
        raise NotImplementedError


def _partition_slack(p, block_id, caps):
    """polytope_slack of a capacitated partition. In block b the s largest
    entries leave the least slack among s-subsets: its minimum is m_b = min
    over s of min(s, cap_b) - (top-s sum). A subset joins block parts, one
    nonempty: the slack is the sum of the negative m_b, else the least."""
    tops = [np.cumsum(np.sort(p[block_id == b])[::-1])
            for b in range(caps.size)]
    mins = [float(np.min(np.minimum(np.arange(1, top.size + 1), cap) - top))
            for top, cap in zip(tops, caps.tolist()) if top.size]
    negative = [m for m in mins if m < 0.0]
    return sum(negative) if negative else min(mins, default=np.inf)


class GraphicMatroid(Matroid):
    """Forests of a multigraph. Parallel edges are fine; self-loops are not
    (a self-loop is never independent, reject it up front)."""

    def __init__(self, num_vertices, edges):
        num_vertices = _integer(num_vertices, "num_vertices")
        edges = [(_integer(u, "edge endpoint"), _integer(v, "edge endpoint"))
                 for u, v in edges]
        super().__init__(len(edges))
        if num_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        self.num_vertices = num_vertices
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) has an endpoint out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
        self.edges = tuple(edges)
        self.eu = np.array([u for u, _ in edges], dtype=np.int64)
        self.ev = np.array([v for _, v in edges], dtype=np.int64)

    def kernel_args(self):
        return (0, self.num_vertices, self.eu, self.ev,
                np.zeros(self.n, np.int64), np.array([self.n], np.int64))


class UniformMatroid(Matroid):
    """Any set of at most k elements is independent."""

    def __init__(self, n, k):
        super().__init__(n)
        k = _integer(k, "k")
        if not 0 <= k <= self.n:
            raise ValueError(f"capacity k={k} must satisfy 0 <= k <= n={n}")
        self.k = k

    def kernel_args(self):
        return (1, 0, np.zeros(self.n, np.int64), np.zeros(self.n, np.int64),
                np.zeros(self.n, np.int64), np.array([self.k], np.int64))


class PartitionMatroid(Matroid):
    """Per-block capacities over a partition of the ground set."""

    def __init__(self, blocks, capacities):
        blocks = tuple(tuple(_integer(e, "block member") for e in b)
                       for b in blocks)
        n = sum(len(b) for b in blocks)
        super().__init__(n)
        seen = sorted(itertools.chain.from_iterable(blocks))
        if seen != list(range(n)):
            raise ValueError("blocks must partition 0..n-1 exactly")
        caps = [_integer(c, "capacity") for c in capacities]
        if len(caps) != len(blocks):
            raise ValueError("need one capacity per block")
        if any(c < 0 for c in caps):
            raise ValueError("capacities must be nonnegative")
        self.blocks = blocks
        self.capacities = tuple(caps)
        self.block_id = np.zeros(n, dtype=np.int64)
        for b, block in enumerate(blocks):
            for e in block:
                self.block_id[e] = b

    def kernel_args(self):
        return (1, 0, np.zeros(self.n, np.int64), np.zeros(self.n, np.int64),
                self.block_id, np.array(self.capacities, np.int64))
