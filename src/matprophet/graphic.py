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

import numpy as np

from . import kernels
from .engine import ThresholdRule
from .errors import EnumerationCapError
from .matroids import GraphicMatroid, scale
from .reduction import ex_ante_reduce, resolve_enum_cap

QUALIFY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Orientation:
    """A direction per edge, stored as the head vertex (the edge points
    tail -> head)."""

    num_vertices: int
    eu: np.ndarray
    ev: np.ndarray
    heads: np.ndarray

    @property
    def tails(self):
        return np.where(self.heads == self.ev, self.eu, self.ev)

    def incoming(self, v):
        return tuple(int(i) for i in np.flatnonzero(self.heads == v))

    def outgoing(self, v):
        return tuple(int(i) for i in np.flatnonzero(self.tails == v))

    def in_mass(self, p):
        """Per-vertex total of p over incoming edges."""
        out = np.zeros(self.num_vertices)
        np.add.at(out, self.heads, np.asarray(p, dtype=float))
        return out


@dataclass(frozen=True, eq=False)
class Cut:
    in_a: np.ndarray

    def __post_init__(self):
        in_a = np.asarray(self.in_a, dtype=bool)
        in_a.flags.writeable = False
        object.__setattr__(self, "in_a", in_a)

    @property
    def side_a(self):
        return frozenset(int(v) for v in np.flatnonzero(self.in_a))


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


def sample_cut(g, rng):
    """Uniform random vertex bipartition."""
    return Cut(rng.random(g.num_vertices) < 0.5)


def consideration_set(orientation, cut):
    """Edges crossing the cut in the tail(A) -> head(B) direction."""
    tails = orientation.tails
    cross = cut.in_a[tails] & ~cut.in_a[orientation.heads]
    return np.flatnonzero(cross).astype(np.int64)


def blocking_probability(g, probs, subset, i, mode="exact", trials=10_000,
                         seed=0, cap=None):
    """Probability that item i is spanned by an independent activation of
    subset \\ {i}, with item j active with probability probs[j]."""
    p = np.asarray(probs, dtype=float)
    members = np.array(sorted(set(int(e) for e in subset) - {int(i)}),
                       dtype=np.int64)
    if mode == "exact":
        limit = resolve_enum_cap(cap)
        if 2 ** members.size > limit:
            raise EnumerationCapError(
                f"2^{members.size} activation patterns exceed the cap {limit}")
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


def cut_objective(g, p_scaled, t, orientation, cut):
    """sum over crossing edges of p*t*(1 - blocking probability inside the
    crossing set), for one fixed cut."""
    assign = np.where(np.asarray(cut.in_a), 1, 0).astype(np.int8)
    return float(kernels.expected_cut_objective(
        g, orientation.heads, np.asarray(p_scaled, dtype=float),
        np.asarray(t, dtype=float), assign))


def cut_bound_exact(g, p_scaled, t, orientation, cap=None):
    """Exact expectation of the cut objective over the uniform random cut;
    at least one eighth of sum(p_scaled * t)."""
    limit = resolve_enum_cap(cap)
    if 2 ** g.num_vertices > limit:
        raise EnumerationCapError(
            f"2^{g.num_vertices} cuts exceed the enumeration cap {limit}")
    assign = np.full(g.num_vertices, -1, dtype=np.int8)
    return float(kernels.expected_cut_objective(
        g, orientation.heads, np.asarray(p_scaled, dtype=float),
        np.asarray(t, dtype=float), assign))


def derandomize_cut(g, p_scaled, t, orientation):
    """Fix vertex sides one at a time by conditional expectations; the
    resulting cut's objective is at least the random-cut expectation."""
    p = np.asarray(p_scaled, dtype=float)
    tv = np.asarray(t, dtype=float)
    assign = np.full(g.num_vertices, -1, dtype=np.int8)
    for v in range(g.num_vertices):
        assign[v] = 1
        with_a = kernels.expected_cut_objective(g, orientation.heads, p, tv,
                                                assign)
        assign[v] = 0
        with_b = kernels.expected_cut_objective(g, orientation.heads, p, tv,
                                                assign)
        assign[v] = 1 if with_a >= with_b else 0
    return Cut(assign == 1)


@dataclass(frozen=True, eq=False)
class RandomCutDesign:
    """Everything the pipeline fixes before any cut is drawn."""

    reduction: object
    p_scaled: np.ndarray
    orientation: Orientation
    base_thresholds: np.ndarray
    base_atom_pass: np.ndarray

    def rule_for_cut(self, cut, g):
        considered = consideration_set(self.orientation, cut)
        thr = np.full(g.n, np.inf)
        atom = np.zeros(g.n)
        thr[considered] = self.base_thresholds[considered]
        atom[considered] = self.base_atom_pass[considered]
        return ThresholdRule(thr, atom)


def _design(inst, mode, reduce_trials, seed, cap):
    g = inst.matroid
    if not isinstance(g, GraphicMatroid):
        raise ValueError("the cut construction needs a graphic matroid")
    red = ex_ante_reduce(inst, mode=mode, trials=reduce_trials, seed=seed,
                         cap=cap)
    p_scaled = scale(red.p, 0.25)
    orientation = orient_low_indegree(g, p_scaled)
    thr = np.empty(g.n)
    atom = np.empty(g.n)
    for i, d in enumerate(inst.dists):
        thr[i], atom[i] = d.quantile_threshold(p_scaled[i])
    for arr in (p_scaled, thr, atom):
        arr.flags.writeable = False
    return RandomCutDesign(red, p_scaled, orientation, thr, atom)


class GraphicRandomCut:
    """Threshold algorithm: quantile thresholds at a quarter of the ex-ante
    probabilities, opened only on edges crossing a fresh uniform cut."""

    name = "graphic-random-cut"

    def __init__(self, inst, mode="exact", reduce_trials=100_000, seed=0,
                 cap=None):
        self.instance = inst
        self.design = _design(inst, mode, reduce_trials, seed, cap)
        self._cap = cap

    @property
    def reduction(self):
        return self.design.reduction

    def build(self, rng):
        cut = sample_cut(self.instance.matroid, rng)
        return self.design.rule_for_cut(cut, self.instance.matroid)

    def rule_distribution(self):
        g = self.instance.matroid
        limit = resolve_enum_cap(self._cap)
        if 2 ** g.num_vertices > limit:
            raise EnumerationCapError(
                f"2^{g.num_vertices} cuts exceed the enumeration cap {limit}")
        weight = 0.5 ** g.num_vertices
        for mask in range(1 << g.num_vertices):
            bits = (mask >> np.arange(g.num_vertices)) & 1
            cut = Cut(bits.astype(bool))
            yield weight, self.design.rule_for_cut(cut, g)

    def consider_matrix(self, rng, trials):
        g = self.instance.matroid
        in_a = rng.random((trials, g.num_vertices)) < 0.5
        tails = self.design.orientation.tails
        heads = self.design.orientation.heads
        return in_a[:, tails] & ~in_a[:, heads]

    def mc_rule_arrays(self):
        return self.design.base_thresholds, self.design.base_atom_pass


class GraphicDerandomizedCut:
    """Same construction with the cut chosen by conditional expectations."""

    name = "graphic-derandomized"

    def __init__(self, inst, mode="exact", reduce_trials=100_000, seed=0,
                 cap=None):
        self.instance = inst
        self.design = _design(inst, mode, reduce_trials, seed, cap)
        g = inst.matroid
        self.cut = derandomize_cut(g, self.design.p_scaled, self.design.reduction.t,
                                   self.design.orientation)
        self.rule = self.design.rule_for_cut(self.cut, g)

    @property
    def reduction(self):
        return self.design.reduction

    def build(self, rng):
        return self.rule

    def rule_distribution(self):
        return [(1.0, self.rule)]

    def consider_matrix(self, rng, trials):
        row = np.isfinite(self.rule.thresholds)
        return np.broadcast_to(row, (trials, row.size)).copy()

    def mc_rule_arrays(self):
        return self.rule.thresholds, self.rule.atom_pass


def build_thresholds(inst, rng, mode="exact", reduce_trials=100_000, seed=0,
                     cap=None):
    """Sample one cut and return (rule, diagnostics)."""
    algo = GraphicRandomCut(inst, mode=mode, reduce_trials=reduce_trials,
                            seed=seed, cap=cap)
    cut = sample_cut(inst.matroid, rng)
    rule = algo.design.rule_for_cut(cut, inst.matroid)
    considered = consideration_set(algo.design.orientation, cut)
    return rule, {
        "design": algo.design,
        "cut": cut,
        "considered": considered,
    }
