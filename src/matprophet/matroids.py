"""Matroid oracles: independence, rank, greedy optimization, and
membership in the independent-set polytope.

Elements are integers 0..n-1. Three concrete families are provided (graphic,
uniform, partition); anything else can subclass Matroid and only supply
is_independent. Each family defines itself by is_independent; rank, bases
and polytope slack all run kernels.batched_greedy.
"""

import itertools
import operator

import numpy as np

from . import kernels
from .errors import EnumerationCapError

POLYTOPE_CAP = 20


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
    """Independence oracle plus the derived operations every matroid gets."""

    def __init__(self, n):
        n = _integer(n, "n")
        if n < 0:
            raise ValueError("ground set size must be nonnegative")
        self.n = n

    def is_independent(self, elements):
        raise NotImplementedError

    def _check_elements(self, elements):
        elems = [int(e) for e in elements]
        for e in elems:
            if not 0 <= e < self.n:
                raise ValueError(f"element index {e} out of range")
        if len(set(elems)) != len(elems):
            raise ValueError("duplicate element index")
        return elems

    def rank(self, elements):
        """Size of a maximal independent subset (greedy is exact here)."""
        elems = np.array(self._check_elements(elements), dtype=np.int64)
        _, accepted = kernels.batched_greedy(
            self, elems, np.ones((1, self.n), dtype=bool), 0.0)
        return int(accepted.sum())

    def max_weight_basis(self, weights):
        """Greedy max-weight independent set.

        Items are scanned by decreasing weight with ties broken toward the
        lower index; zero-weight items are never taken.
        """
        w = self._check_weights(weights)
        _, accepted = kernels.mc_max_weight(self, w[None])
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
        order."""
        pv = np.asarray(p, dtype=float)
        if pv.shape != (self.n,):
            raise ValueError(f"expected {self.n} entries, got shape {pv.shape}")
        if not np.all(np.isfinite(pv)) or np.any(pv < 0):
            raise ValueError("vector must be finite and nonnegative")
        if self.n > POLYTOPE_CAP:
            raise EnumerationCapError(
                f"polytope check enumerates subsets; {self.n} elements "
                f"exceeds the cap of {POLYTOPE_CAP}")
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

    def in_polytope(self, p, tol=1e-9):
        return self.polytope_slack(p) >= -tol

    def kernel_args(self):
        """(kind, num_vertices, eu, ev, block_id, caps) for
        kernels.batched_greedy, or None to have it ask is_independent."""
        return None


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

    def is_independent(self, elements):
        elems = self._check_elements(elements)
        parent = list(range(self.num_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in elems:
            ru, rv = find(self.eu[e]), find(self.ev[e])
            if ru == rv:
                return False
            parent[ru] = rv
        return True

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

    def is_independent(self, elements):
        return len(self._check_elements(elements)) <= self.k

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

    def is_independent(self, elements):
        elems = self._check_elements(elements)
        used = [0] * len(self.blocks)
        for e in elems:
            b = self.block_id[e]
            used[b] += 1
            if used[b] > self.capacities[b]:
                return False
        return True

    def kernel_args(self):
        return (1, 0, np.zeros(self.n, np.int64), np.zeros(self.n, np.int64),
                self.block_id, np.array(self.capacities, np.int64))
