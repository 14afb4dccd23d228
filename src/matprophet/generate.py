"""Random instance generators used by the CLI and the test suites."""

import math

import numpy as np

from .distributions import DiscreteDistribution
from .kernels import batched_greedy
from .matroids import GraphicMatroid, PartitionMatroid, UniformMatroid
from .reduction import ProphetInstance

MAX_REDRAWS = 100_000


def random_distribution(rng, support_size=3, value_max=10.0, zero_atom=0.5):
    """Random discrete distribution; with probability zero_atom the lowest
    support value is pinned to 0 so zero-weight handling gets exercised.
    Values are uniform draws below value_max on the 0.001 grid, redrawn
    until distinct, at most MAX_REDRAWS times. The grid holds at most
    N = floor(1000 * value_max) + 2 reachable points, and k draws on N
    points are all distinct with probability at most exp(-k(k-1) / 2N), so
    a size with MAX_REDRAWS * exp(-k(k-1) / 2N) < 1e-12 is refused before
    any draw: its redraws would all fail but with probability below 1e-12."""
    if support_size < 1:
        raise ValueError("support needs at least one value")
    # grid points 0..k (in thousandths) are reachable when
    # 1000 * value_max > k - 1/2; nan and overflow fail the test too
    if not support_size - 1.5 < 1000.0 * value_max < math.inf:
        raise ValueError(f"value max {value_max} leaves no room for "
                         f"{support_size} distinct values on the 0.001 grid")
    grid = math.floor(1000.0 * value_max) + 2
    pairs = support_size * (support_size - 1) / 2
    if MAX_REDRAWS * math.exp(-pairs / grid) < 1e-12:
        raise ValueError(f"{support_size} values below {value_max} on the "
                         "0.001 grid are almost never distinct: all "
                         f"{MAX_REDRAWS} draws would fail but with "
                         "probability below 1e-12")
    for _ in range(MAX_REDRAWS):
        vals = np.sort(np.round(rng.uniform(0.0, value_max, support_size), 3))
        if np.all(np.diff(vals) > 0):
            break
    else:
        raise ValueError(f"no {support_size} distinct values below "
                         f"{value_max} in {MAX_REDRAWS} draws")
    if support_size > 1 and rng.random() < zero_atom:
        vals[0] = 0.0
    probs = rng.dirichlet(np.ones(support_size))
    return DiscreteDistribution(vals, probs)


def random_graph(rng, num_vertices, num_edges, allow_parallel=False):
    if num_edges < 0:
        raise ValueError(f"edge count must be nonnegative, got {num_edges}")
    if num_vertices < 2 and num_edges > 0:
        raise ValueError("need at least two vertices to place an edge")
    simple_max = num_vertices * (num_vertices - 1) // 2
    if not allow_parallel and num_edges > simple_max:
        raise ValueError(
            f"{num_edges} edges do not fit in a simple graph on "
            f"{num_vertices} vertices")
    edges = []
    seen = set()
    while len(edges) < num_edges:
        u, v = rng.choice(num_vertices, size=2, replace=False)
        u, v = int(min(u, v)), int(max(u, v))
        if not allow_parallel and (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v))
    return GraphicMatroid(num_vertices, edges)


def random_dists(rng, n, support_size=3, value_max=10.0, iid=False):
    if iid:
        d = random_distribution(rng, support_size, value_max)
        return tuple(d for _ in range(n))
    return tuple(random_distribution(rng, support_size, value_max)
                 for _ in range(n))


def random_graphic_instance(rng, max_vertices=6, max_edges=9, support_size=3,
                            value_max=10.0, allow_parallel=True):
    nv = int(rng.integers(2, max_vertices + 1))
    simple_max = nv * (nv - 1) // 2
    top = max_edges if allow_parallel else min(max_edges, simple_max)
    ne = int(rng.integers(1, max(top, 1) + 1))
    g = random_graph(rng, nv, ne, allow_parallel=allow_parallel)
    return ProphetInstance(g, random_dists(rng, g.n, support_size, value_max))


def random_uniform_instance(rng, max_n=6, support_size=3, value_max=10.0,
                            k=None):
    n = int(rng.integers(1, max_n + 1))
    if k is None:
        k = int(rng.integers(1, n + 1))
    k = min(k, n)
    return ProphetInstance(UniformMatroid(n, k),
                           random_dists(rng, n, support_size, value_max))


def random_partition_instance(rng, max_blocks=3, max_block_size=3,
                              support_size=3, value_max=10.0):
    nb = int(rng.integers(2, max_blocks + 1))
    sizes = [int(rng.integers(1, max_block_size + 1)) for _ in range(nb)]
    blocks = []
    start = 0
    for s in sizes:
        blocks.append(tuple(range(start, start + s)))
        start += s
    caps = [int(rng.integers(1, s + 1)) for s in sizes]
    m = PartitionMatroid(blocks, caps)
    return ProphetInstance(m, random_dists(rng, m.n, support_size, value_max))


def random_polytope_point(matroid, rng, mixtures=8):
    """Random point of the independent-set polytope: a Dirichlet mixture of
    indicator vectors of greedy-maximal independent sets under random
    element orders."""
    orders = np.array([rng.permutation(matroid.n) for _ in range(mixtures)])
    _, accepted = batched_greedy(matroid, orders,
                                 np.ones(orders.shape, dtype=bool), 0.0)
    weights = rng.dirichlet(np.ones(mixtures))
    return np.einsum("m,mn->n", weights, accepted.astype(float))
