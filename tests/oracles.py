"""Reference independence and rank, written apart from the kernel
encoding that the package runs: the tests check the package against them.

Graphic independence is a union-find over the edges, uniform independence
a size test, partition independence per-block counts.
"""

from matprophet import GraphicMatroid, UniformMatroid


def _check_elements(m, elements):
    elems = [int(e) for e in elements]
    for e in elems:
        if not 0 <= e < m.n:
            raise ValueError(f"element index {e} out of range")
    if len(set(elems)) != len(elems):
        raise ValueError("duplicate element index")
    return elems


def is_independent(m, elements):
    """Whether the set `elements` is independent in m."""
    elems = _check_elements(m, elements)
    if isinstance(m, GraphicMatroid):
        parent = list(range(m.num_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in elems:
            ru, rv = find(m.eu[e]), find(m.ev[e])
            if ru == rv:
                return False
            parent[ru] = rv
        return True
    if isinstance(m, UniformMatroid):
        return len(elems) <= m.k
    used = [0] * len(m.blocks)
    for e in elems:
        b = m.block_id[e]
        used[b] += 1
        if used[b] > m.capacities[b]:
            return False
    return True


def rank(m, elements):
    """Size of a maximal independent subset, greedy over is_independent."""
    picked = []
    for e in elements:
        if is_independent(m, picked + [e]):
            picked.append(e)
    return len(picked)
