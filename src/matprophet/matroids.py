"""Matroid oracles: independence, rank, greedy optimization, and
membership in the independent-set polytope.

Elements are integers 0..n-1. Three concrete families are provided (graphic,
uniform, partition); anything else can subclass Matroid and only supply
is_independent.
"""

import itertools

import numpy as np

from . import kernels
from .errors import EnumerationCapError

POLYTOPE_CAP = 20


def scale(p, factor):
    """Scale a vector by factor in [0, 1] (keeps polytope membership)."""
    if not 0.0 <= factor <= 1.0:
        raise ValueError(f"scale factor must lie in [0, 1], got {factor}")
    return np.asarray(p, dtype=float) * factor


class Matroid:
    """Independence oracle plus the derived operations every matroid gets."""

    def __init__(self, n, labels=None):
        if n < 0:
            raise ValueError("ground set size must be nonnegative")
        self.n = int(n)
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != self.n:
                raise ValueError("need one label per element")
        self.labels = labels

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
        elems = self._check_elements(elements)
        picked = []
        for e in elems:
            if self.is_independent(picked + [e]):
                picked.append(e)
        return len(picked)

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

    def polytope_slack(self, p, max_elements=POLYTOPE_CAP):
        """min over nonempty subsets S of rank(S) - p(S); nonnegative (up to
        float noise) exactly when p lies in the independent-set polytope."""
        pv = np.asarray(p, dtype=float)
        if pv.shape != (self.n,):
            raise ValueError(f"expected {self.n} entries, got shape {pv.shape}")
        if not np.all(np.isfinite(pv)) or np.any(pv < 0):
            raise ValueError("vector must be finite and nonnegative")
        if self.n > max_elements:
            raise EnumerationCapError(
                f"polytope check enumerates subsets; {self.n} elements "
                f"exceeds the cap of {max_elements}")
        # DFS over the include/exclude tree, carrying a greedy independent
        # subset so the rank of each visited subset comes in O(1) checks.
        best = np.inf
        stack = [(0, 0, 0.0, [], 0)]
        while stack:
            i, size, mass, picked, rank = stack.pop()
            if size > 0:
                slack = rank - mass
                if slack < best:
                    best = slack
            if i == self.n:
                continue
            stack.append((i + 1, size, mass, picked, rank))
            if self.is_independent(picked + [i]):
                stack.append((i + 1, size + 1, mass + pv[i], picked + [i],
                              rank + 1))
            else:
                stack.append((i + 1, size + 1, mass + pv[i], picked, rank))
        return float(best)

    def in_polytope(self, p, max_elements=POLYTOPE_CAP, tol=1e-9):
        return self.polytope_slack(p, max_elements=max_elements) >= -tol

    def kernel_args(self):
        """(kind, num_vertices, eu, ev, block_id, caps) for
        kernels.batched_greedy, or None to have it ask is_independent."""
        return None


class GraphicMatroid(Matroid):
    """Forests of a multigraph. Parallel edges are fine; self-loops are not
    (a self-loop is never independent, reject it up front)."""

    def __init__(self, num_vertices, edges, labels=None):
        edges = [(int(u), int(v)) for u, v in edges]
        super().__init__(len(edges), labels)
        if num_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        self.num_vertices = int(num_vertices)
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

    def rank(self, elements):
        elems = self._check_elements(elements)
        parent = list(range(self.num_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        r = 0
        for e in elems:
            ru, rv = find(self.eu[e]), find(self.ev[e])
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r

    def kernel_args(self):
        return (0, self.num_vertices, self.eu, self.ev,
                np.zeros(self.n, np.int64), np.array([self.n], np.int64))


class UniformMatroid(Matroid):
    """Any set of at most k elements is independent."""

    def __init__(self, n, k, labels=None):
        super().__init__(n, labels)
        if not 0 <= k <= n:
            raise ValueError(f"capacity k={k} must satisfy 0 <= k <= n={n}")
        self.k = int(k)

    def is_independent(self, elements):
        return len(self._check_elements(elements)) <= self.k

    def rank(self, elements):
        return min(len(self._check_elements(elements)), self.k)

    def kernel_args(self):
        return (1, 0, np.zeros(self.n, np.int64), np.zeros(self.n, np.int64),
                np.zeros(self.n, np.int64), np.array([self.k], np.int64))


class PartitionMatroid(Matroid):
    """Per-block capacities over a partition of the ground set."""

    def __init__(self, blocks, capacities, labels=None):
        blocks = tuple(tuple(int(e) for e in b) for b in blocks)
        n = sum(len(b) for b in blocks)
        super().__init__(n, labels)
        seen = sorted(itertools.chain.from_iterable(blocks))
        if seen != list(range(n)):
            raise ValueError("blocks must partition 0..n-1 exactly")
        caps = [int(c) for c in capacities]
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

    def rank(self, elements):
        elems = self._check_elements(elements)
        used = [0] * len(self.blocks)
        for e in elems:
            used[self.block_id[e]] += 1
        return sum(min(u, c) for u, c in zip(used, self.capacities))

    def kernel_args(self):
        return (1, 0, np.zeros(self.n, np.int64), np.zeros(self.n, np.int64),
                self.block_id, np.array(self.capacities, np.int64))
