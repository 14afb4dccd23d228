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
from .errors import check_enum_cap
from .matroids import GraphicMatroid, scale
from .reduction import ex_ante_reduce

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
    # ufunc.at applies its updates in index order: each vertex adds (and
    # later subtracts) its edges' masses in edge order, u before v
    mass = np.zeros(g.num_vertices)
    np.add.at(mass, np.stack((g.eu, g.ev), axis=1).reshape(-1),
              np.repeat(p, 2))
    for _ in range(g.num_vertices):
        ready = np.flatnonzero(alive_v & (mass <= 0.5 + QUALIFY_TOL))
        if not ready.size:
            raise ValueError(
                "no vertex with incident mass <= 1/2; the scaled vector is "
                "too heavy for this graph")
        pick = ready[0]
        hit = (heads < 0) & ((g.eu == pick) | (g.ev == pick))
        heads[hit] = pick
        np.subtract.at(mass, np.where(g.eu[hit] == pick, g.ev[hit],
                                      g.eu[hit]), p[hit])
        alive_v[pick] = False
    return Orientation(g.num_vertices, g.eu.copy(), g.ev.copy(), heads)


def blocking_probability(g, probs, subset, i):
    """Pr[item i is spanned by an independent activation of subset \\ {i},
    item j active with probability probs[j]]: one unsided frontier DP run."""
    members = sorted(set(int(e) for e in subset) - {int(i)})
    return kernels.connect_probability(g, members, probs, int(i))


def cut_objective(g, p_scaled, t, orientation, in_a):
    """sum over crossing edges of p*t*(1 - blocking probability inside the
    crossing set), for the cut with side A indicator `in_a`."""
    return kernels.expected_cut_objective(
        g, orientation, p_scaled, t, np.asarray(in_a, dtype=np.int8))


def cut_bound_exact(g, p_scaled, t, orientation):
    """Exact expectation of the cut objective over the uniform random cut;
    at least one eighth of sum(p_scaled * t)."""
    return kernels.expected_cut_objective(
        g, orientation, p_scaled, t, np.full(g.num_vertices, -1, np.int8))


def derandomize_cut(g, p_scaled, t, orientation):
    """Fix vertex sides 0, 1, ... in turn by conditional expectations (side
    A on a tie); the resulting cut's objective is at least the random-cut
    expectation. Returns the cut as a read-only side-A indicator per
    vertex."""
    # its 2V DP runs are counted together, before the first
    total = 2 * g.num_vertices * kernels._cut_steps(
        g.num_vertices, orientation.tails, orientation.heads, True)[1]
    check_enum_cap(total, f"{total} cut states")
    assign = np.full(g.num_vertices, -1, dtype=np.int8)
    for v in range(g.num_vertices):
        assign[v] = 1
        with_a = kernels.expected_cut_objective(g, orientation, p_scaled, t,
                                                assign)
        assign[v] = 0
        with_b = kernels.expected_cut_objective(g, orientation, p_scaled, t,
                                                assign)
        assign[v] = with_a >= with_b
    in_a = assign == 1
    in_a.flags.writeable = False
    return in_a


def require_graphic(inst):
    if not isinstance(inst.matroid, GraphicMatroid):
        raise ValueError("the cut construction needs a graphic matroid")


class GraphicRandomCut(FixedRuleAlgorithm):
    """Threshold algorithm: quantile thresholds at a quarter of the ex-ante
    probabilities (`p_scaled`), opened only on the edges that cross a fresh
    uniform cut under a low-indegree `orientation`. Its coins are the
    vertices' sides (a set bit puts the vertex on side A); `rule` holds the
    quantile threshold of every edge. `reduction` (by default the exact
    one) gives the p and t the construction is built from."""

    name = "graphic-random-cut"

    def __init__(self, inst, reduction=None):
        require_graphic(inst)
        red = ex_ante_reduce(inst) if reduction is None else reduction
        self.reduction = red
        self.p_scaled = scale(red.p, 0.25)
        self.p_scaled.flags.writeable = False
        self.orientation = orient_low_indegree(inst.matroid, self.p_scaled)
        thr = np.empty(inst.n)
        atom = np.empty(inst.n)
        for i, d in enumerate(inst.dists):
            thr[i], atom[i] = d.quantile_threshold(self.p_scaled[i])
        super().__init__(inst, ThresholdRule(thr, atom))
        self.coins = inst.matroid.num_vertices

    def considered(self, bits):
        return self.orientation.crossing(bits)

    def rule_for_cut(self, in_a):
        return self.rule.opened_on(self.orientation.crossing(in_a))


class GraphicDerandomizedCut(GraphicRandomCut):
    """Same construction with the cut chosen by conditional expectations;
    `cut` is its side-A indicator and `rule` stays opened on it, so it
    flips no coins."""

    name = "graphic-derandomized"
    considered = FixedRuleAlgorithm.considered

    def __init__(self, inst, reduction=None):
        super().__init__(inst, reduction)
        self.coins = 0
        self.cut = derandomize_cut(inst.matroid, self.p_scaled,
                                   self.reduction.t, self.orientation)
        self.rule = self.rule_for_cut(self.cut)
