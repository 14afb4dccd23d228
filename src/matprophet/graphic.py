"""Random-cut threshold construction for graphic matroids.

Pipeline: reduce the instance to its ex-ante form, scale the membership
vector by 1/4, orient every edge so each vertex absorbs at most 1/2 of
scaled mass, draw a uniform vertex cut, and open thresholds only on edges
crossing the cut from side A to side B. Each open threshold is the quantile
threshold of the item at its scaled probability, so an open item passes with
probability exactly p_i / 4. The expected online value of this rule is at
least 1/32 of the offline expectation.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .engine import FixedRuleAlgorithm, ThresholdRule
from .matroids import GraphicMatroid, scale
from .reduction import check_enum_cap, ex_ante_reduce

QUALIFY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Orientation:
    """A direction per edge, stored as the head vertex (the edge points
    tail -> head)."""

    num_vertices: int
    eu: np.ndarray
    ev: np.ndarray
    heads: np.ndarray

    @cached_property
    def tails(self):
        # read once per Monte Carlo trial by `crossing`
        tails = np.where(self.heads == self.ev, self.eu, self.ev)
        tails.flags.writeable = False
        return tails

    def crossing(self, in_a):
        """Mask of the edges crossing from side A (tail) to side B (head),
        for one side-A indicator per vertex or a stack of them."""
        in_a = np.asarray(in_a, dtype=bool)
        return in_a[..., self.tails] & ~in_a[..., self.heads]

    def outgoing(self, v):
        return tuple(int(i) for i in np.flatnonzero(self.tails == v))

    def in_mass(self, p):
        """Per-vertex total of p over incoming edges."""
        out = np.zeros(self.num_vertices)
        np.add.at(out, self.heads, np.asarray(p, dtype=float))
        return out


def orient_low_indegree(g, p_scaled):
    """Peel vertices whose current incident mass is at most 1/2 (lowest
    index first), orienting the still-unassigned incident edges into the
    peeled vertex. Succeeds whenever p_scaled is a quarter of a polytope
    point, and leaves every vertex with incoming mass at most 1/2."""
    p = np.asarray(p_scaled, dtype=float)
    if p.shape != (g.n,):
        raise ValueError(f"expected {g.n} entries, got shape {p.shape}")
    heads = np.full(g.n, -1, dtype=np.int64)
    alive_v = np.ones(g.num_vertices, dtype=bool)
    alive_e = np.ones(g.n, dtype=bool)
    mass = np.zeros(g.num_vertices)
    for i in range(g.n):
        mass[g.eu[i]] += p[i]
        mass[g.ev[i]] += p[i]
    for _ in range(g.num_vertices):
        pick = -1
        for v in range(g.num_vertices):
            if alive_v[v] and mass[v] <= 0.5 + QUALIFY_TOL:
                pick = v
                break
        if pick < 0:
            raise ValueError(
                "no vertex with incident mass <= 1/2; the scaled vector is "
                "too heavy for this graph")
        for i in range(g.n):
            if alive_e[i] and (g.eu[i] == pick or g.ev[i] == pick):
                heads[i] = pick
                alive_e[i] = False
                other = g.ev[i] if g.eu[i] == pick else g.eu[i]
                mass[other] -= p[i]
        alive_v[pick] = False
    return Orientation(g.num_vertices, g.eu.copy(), g.ev.copy(), heads)


def blocking_probability(g, probs, subset, i, mode="exact", trials=10_000,
                         seed=0, cap=None):
    """Probability that item i is spanned by an independent activation of
    subset \\ {i}, with item j active with probability probs[j]."""
    p = np.asarray(probs, dtype=float)
    members = np.array(sorted(set(int(e) for e in subset) - {int(i)}),
                       dtype=np.int64)
    if mode == "exact":
        check_enum_cap(2 ** members.size,
                       f"2^{members.size} activation patterns", cap)
        return kernels.connect_probability(g, members, p, int(i))
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    if trials <= 0:
        raise ValueError("need a positive trial count")
    rng = np.random.default_rng(seed)
    order = np.append(members, int(i))
    hits = 0
    for done in range(0, trials, kernels.BLOCK):
        batch = min(kernels.BLOCK, trials - done)
        take = np.zeros((batch, g.n), dtype=bool)
        take[:, members] = rng.random((batch, members.size)) < p[members]
        take[:, i] = True
        _, accepted = kernels.batched_greedy(g, order, take, 0.0)
        hits += batch - int(accepted[:, i].sum())
    return hits / trials


def cut_objective(g, p_scaled, t, orientation, in_a):
    """sum over crossing edges of p*t*(1 - blocking probability inside the
    crossing set), for the cut with side A indicator `in_a`."""
    assign = np.where(np.asarray(in_a), 1, 0).astype(np.int8)
    return float(kernels.expected_cut_objective(
        g, orientation.heads, np.asarray(p_scaled, dtype=float),
        np.asarray(t, dtype=float), assign))


def cut_bound_exact(g, p_scaled, t, orientation, cap=None):
    """Exact expectation of the cut objective over the uniform random cut;
    at least one eighth of sum(p_scaled * t)."""
    check_enum_cap(2 ** g.num_vertices, f"2^{g.num_vertices} cuts", cap)
    assign = np.full(g.num_vertices, -1, dtype=np.int8)
    return float(kernels.expected_cut_objective(
        g, orientation.heads, np.asarray(p_scaled, dtype=float),
        np.asarray(t, dtype=float), assign))


def derandomize_cut(g, p_scaled, t, orientation, cap=None):
    """Fix vertex sides one at a time by conditional expectations; the
    resulting cut's objective is at least the random-cut expectation.
    Returns the cut as a read-only side-A indicator per vertex.

    Every cut's objective comes from one table, indexed by the mask with
    bit j set when vertex j is on side A. Fixing vertex v compares the
    averages over the completions of vertices v+1.., summed in mask order.
    """
    nv = g.num_vertices
    check_enum_cap(2 ** nv, f"2^{nv} cuts", cap)
    table = kernels.cut_objectives(
        g, orientation.heads, np.asarray(p_scaled, dtype=float),
        np.asarray(t, dtype=float),
        np.concatenate(list(kernels.subset_rows(nv))))
    base = 0
    for v in range(nv):
        rest = np.arange(1 << (nv - v - 1)) << (v + 1)
        with_a = kernels.running_sum(0.0, table[base + (1 << v) + rest]) \
            / rest.size
        with_b = kernels.running_sum(0.0, table[base + rest]) / rest.size
        if with_a >= with_b:
            base += 1 << v
    in_a = (base >> np.arange(nv)) & 1 == 1
    in_a.flags.writeable = False
    return in_a


@dataclass(frozen=True, eq=False)
class RandomCutDesign:
    """Everything the pipeline fixes before any cut is drawn; `rule` holds
    the quantile thresholds of every edge."""

    reduction: object
    p_scaled: np.ndarray
    orientation: Orientation
    rule: ThresholdRule

    def rule_for_cut(self, in_a):
        return self.rule.opened_on(self.orientation.crossing(in_a))


def require_graphic(inst):
    if not isinstance(inst.matroid, GraphicMatroid):
        raise ValueError("the cut construction needs a graphic matroid")


def _design(inst, reduction):
    require_graphic(inst)
    g = inst.matroid
    red = ex_ante_reduce(inst) if reduction is None else reduction
    p_scaled = scale(red.p, 0.25)
    p_scaled.flags.writeable = False
    orientation = orient_low_indegree(g, p_scaled)
    thr = np.empty(g.n)
    atom = np.empty(g.n)
    for i, d in enumerate(inst.dists):
        thr[i], atom[i] = d.quantile_threshold(p_scaled[i])
    return RandomCutDesign(red, p_scaled, orientation,
                           ThresholdRule(thr, atom))


class GraphicRandomCut(FixedRuleAlgorithm):
    """Threshold algorithm: quantile thresholds at a quarter of the ex-ante
    probabilities, opened only on edges crossing a fresh uniform cut. Its
    coins are the vertices' sides (a set bit puts the vertex on side A).
    Without a `reduction`, the instance is reduced exactly."""

    name = "graphic-random-cut"

    def __init__(self, inst, reduction=None):
        self.design = _design(inst, reduction)
        super().__init__(inst, self.design.rule, self.design.reduction)
        self.coins = inst.matroid.num_vertices

    def considered(self, bits):
        return self.design.orientation.crossing(bits)


class GraphicDerandomizedCut(FixedRuleAlgorithm):
    """Same construction with the cut chosen by conditional expectations;
    `cut` is its side-A indicator."""

    name = "graphic-derandomized"

    def __init__(self, inst, reduction=None, cap=None):
        self.design = _design(inst, reduction)
        self.cut = derandomize_cut(inst.matroid, self.design.p_scaled,
                                   self.design.reduction.t,
                                   self.design.orientation, cap)
        super().__init__(inst, self.design.rule_for_cut(self.cut),
                         self.design.reduction)
