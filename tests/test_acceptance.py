"""Acceptance battery: one test per advertised guarantee.

Each test sweeps a seeded random suite at the stated size, asserts the
guarantee at its stated tolerance, and prints a one-line summary with the
measured worst slack (visible with -s, or via -v as the test's own
pass/fail line).
"""

import itertools

import numpy as np

from matprophet import (FixedRuleAlgorithm, GraphicRandomCut, PartitionMatroid,
                        ProphetInstance, ThresholdRule, UniformMatroid,
                        bernoulli_to_dict, blocking_probability,
                        cut_bound_exact, cut_objective, derandomize_cut,
                        ex_ante_reduce, expected_value_exact, make_baseline,
                        monte_carlo_ratio, orient_low_indegree,
                        parse_instance, prophet_value_exact, worst_case_order)
from matprophet.distributions import DiscreteDistribution
from matprophet.engine import expected_rule_value, rule_pass_profile
from matprophet.generate import (random_dists, random_distribution,
                                 random_graph, random_graphic_instance,
                                 random_partition_instance,
                                 random_polytope_point,
                                 random_uniform_instance)
from matprophet.matroids import scale
from oracles import is_independent

ATOL = 1e-9
EXACT_TOL = 1e-12


def _line(name, worst, extra=""):
    print(f"{name}: pass (worst slack {worst:+.3e}){extra}")


def mixed_suite(count=54, seed=2024):
    """Random exact-mode instances, n <= 6, support <= 3, all families."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        fam = i % 3
        if fam == 0:
            out.append(random_graphic_instance(rng, max_vertices=4,
                                               max_edges=6))
        elif fam == 1:
            out.append(random_uniform_instance(rng, max_n=6))
        else:
            out.append(random_partition_instance(rng, max_blocks=3,
                                                 max_block_size=2))
    return out


def graphic_suite(count=50, seed=77):
    rng = np.random.default_rng(seed)
    return [random_graphic_instance(rng, max_vertices=5, max_edges=7)
            for _ in range(count)]


def quantile_rule(inst, levels):
    thr = np.empty(inst.n)
    atom = np.empty(inst.n)
    for i, d in enumerate(inst.dists):
        thr[i], atom[i] = d.quantile_threshold(levels[i])
    return ThresholdRule(thr, atom)


def test_benchmark_upper_bound():
    worst = np.inf
    for inst in mixed_suite():
        red = ex_ante_reduce(inst)
        opt = prophet_value_exact(inst)
        slack = red.bound() - opt
        worst = min(worst, slack)
        assert slack >= -ATOL, (slack, inst.matroid)
        assert inst.matroid.polytope_slack(red.p) >= -1e-9
    _line("benchmark-upper-bound", worst)


def test_coupling_consistency():
    # Couple each instance to its Bernoulli reduction through the shared
    # pass indicators: the accepted set is a function of the pass pattern
    # alone, so both views accept identically, and the original view pays
    # each accepted item its conditional value given a pass, which never
    # falls below the Bernoulli value. Exhaustive over pass patterns.
    worst = np.inf
    violations = 0
    for inst in mixed_suite():
        red = ex_ante_reduce(inst)
        for level in (1.0, 0.25):
            rule = quantile_rule(inst, scale(red.p, level))
            r, tau = rule_pass_profile(inst, rule)
            for i in range(inst.n):
                if r[i] > 0.0:
                    gap = tau[i] - red.t[i]
                    worst = min(worst, gap)
                    if gap < -EXACT_TOL:
                        violations += 1
            live = [i for i in range(inst.n) if r[i] > 0.0]
            order = list(range(inst.n))
            orig_total = 0.0
            shadow_total = 0.0
            for bits in itertools.product([False, True], repeat=len(live)):
                prob = 1.0
                take = set()
                for e, hit in zip(live, bits):
                    prob *= r[e] if hit else 1.0 - r[e]
                    if hit:
                        take.add(e)
                picked = []
                for e in order:
                    if e in take and is_independent(inst.matroid,
                                                    picked + [e]):
                        picked.append(e)
                orig = sum(tau[e] for e in picked)
                shadow = sum(red.t[e] for e in picked)
                if orig < shadow - EXACT_TOL:
                    violations += 1
                orig_total += prob * orig
                shadow_total += prob * shadow
            assert orig_total >= shadow_total - ATOL
    assert violations == 0
    _line("coupling-consistency", worst, f" violations={violations}")


def test_orientation_indegree_bound():
    rng = np.random.default_rng(31)
    worst = np.inf
    for _ in range(200):
        nv = int(rng.integers(2, 13))
        ne = int(rng.integers(1, min(2 * nv, 16)))
        g = random_graph(rng, nv, ne, allow_parallel=True)
        p4 = scale(random_polytope_point(g, rng), 0.25)
        o = orient_low_indegree(g, p4)
        slack = 0.5 - float(o.in_mass(p4).max())
        worst = min(worst, slack)
        assert slack >= -EXACT_TOL
    _line("orientation-indegree-bound", worst)


def test_incoming_blocking_bound():
    # every subset avoiding the head's outgoing edges blocks at most half;
    # a general subset S enters only through S minus those edges, so
    # sweeping subsets of the remaining pool covers all of them
    rng = np.random.default_rng(41)
    worst = np.inf
    for _ in range(8):
        nv = int(rng.integers(3, 7))
        ne = int(rng.integers(2, 11))
        g = random_graph(rng, nv, ne, allow_parallel=True)
        p4 = scale(random_polytope_point(g, rng), 0.25)
        o = orient_low_indegree(g, p4)
        for i in range(g.n):
            out_v = set(o.outgoing(int(o.heads[i])))
            pool = [e for e in range(g.n) if e not in out_v and e != i]
            for r in range(len(pool) + 1):
                for sub in itertools.combinations(pool, r):
                    b = blocking_probability(g, p4, sub, i)
                    slack = 0.5 - b
                    worst = min(worst, slack)
                    assert slack >= -EXACT_TOL, (i, sub, b)
    _line("incoming-blocking-bound", worst)


def test_random_cut_lower_bound():
    worst = np.inf
    worst_der = np.inf
    for inst in graphic_suite():
        red = ex_ante_reduce(inst)
        p4 = scale(red.p, 0.25)
        o = orient_low_indegree(inst.matroid, p4)
        bound = cut_bound_exact(inst.matroid, p4, red.t, o)
        slack = bound - float(p4 @ red.t) / 8.0
        worst = min(worst, slack)
        assert slack >= -ATOL
        best = derandomize_cut(inst.matroid, p4, red.t, o)
        der_slack = cut_objective(inst.matroid, p4, red.t, o, best) - bound
        worst_der = min(worst_der, der_slack)
        assert der_slack >= -ATOL
    _line("random-cut-lower-bound", min(worst, worst_der))


def test_online_value_thirty_two():
    worst = np.inf
    for inst in graphic_suite():
        algo = GraphicRandomCut(inst)
        alg = expected_value_exact(inst, algo, order="worst_case")
        opt = prophet_value_exact(inst)
        slack = alg - opt / 32.0
        worst = min(worst, slack)
        assert slack >= -ATOL
    # scale check: far beyond enumeration, Monte Carlo against the interval
    rng = np.random.default_rng(99)
    g = random_graph(rng, 20, 40)
    inst = ProphetInstance(g, tuple(random_distribution(rng)
                                    for _ in range(g.n)))
    algo = GraphicRandomCut(
        inst, ex_ante_reduce(inst, mode="mc", trials=100_000, seed=7))
    res = monte_carlo_ratio(inst, algo, trials=100_000, seed=11)
    mc_slack = res.ratio - (1.0 / 32.0 - res.ci_half_width)
    assert mc_slack >= 0.0, (res.ratio, res.ci_half_width)
    _line("online-value-thirty-two", worst,
          f" mc ratio={res.ratio:.4f} +-{res.ci_half_width:.4f}")


def test_uniform_baseline_half():
    rng = np.random.default_rng(55)
    worst = np.inf
    for trial in range(54):
        k = trial % 3 + 1
        inst = random_uniform_instance(rng, max_n=5, k=k)
        opt = prophet_value_exact(inst)
        for name in ("kuniform-prob", "kuniform-optfrac"):
            algo = make_baseline(inst, name)
            slack = expected_value_exact(inst, algo) - opt / 2.0
            worst = min(worst, slack)
            assert slack >= -ATOL, (name, k)
    for _ in range(20):
        inst = random_partition_instance(rng)
        opt = prophet_value_exact(inst)
        for name in ("partition", "partition-optfrac"):
            algo = make_baseline(inst, name)
            slack = expected_value_exact(inst, algo) - opt / 2.0
            worst = min(worst, slack)
            assert slack >= -ATOL, name
    _line("uniform-baseline-half", worst)


def test_single_item_tightness():
    # constant 1 plus 1/eps at probability eps: the single-choice rule
    # lands just above one half of the prophet, showing the factor is tight
    eps = 0.01
    inst = ProphetInstance(UniformMatroid(2, 1), [
        DiscreteDistribution.constant(1.0),
        DiscreteDistribution([0.0, 1.0 / eps], [1.0 - eps, eps]),
    ])
    algo = make_baseline(inst, "samuel-cahn")
    val = expected_value_exact(inst, algo, order="worst_case")
    opt = prophet_value_exact(inst)
    ratio = val / opt
    assert 0.5 <= ratio <= 0.52, ratio
    _line("single-item-tightness", ratio - 0.5, f" ratio={ratio:.4f}")


def test_worst_case_order_minimality():
    # on Bernoulli views the ascending-value order is provably minimal:
    # ascending greedy keeps a minimum-weight basis of each pass pattern
    rng = np.random.default_rng(63)
    worst = np.inf
    checked = 0
    while checked < 8:
        pick = checked % 3
        if pick == 0:
            base = random_graphic_instance(rng, max_vertices=4, max_edges=6)
        elif pick == 1:
            base = random_uniform_instance(rng, max_n=6)
        else:
            base = random_partition_instance(rng, max_blocks=3,
                                             max_block_size=2)
        if base.n > 7:
            continue
        checked += 1
        red = ex_ante_reduce(base)
        inst = parse_instance(bernoulli_to_dict(base.matroid, red.p,
                                                red.t)).instance
        rule = quantile_rule(inst, scale(red.p, 0.25))
        algo = FixedRuleAlgorithm(inst, rule)
        at_ascending = expected_rule_value(inst, rule, worst_case_order(red.t))
        found = min(expected_value_exact(inst, algo, perm)
                    for perm in itertools.permutations(range(inst.n)))
        slack = found - at_ascending
        worst = min(worst, slack)
        assert slack >= -EXACT_TOL, (slack, base.matroid)
    # with wider supports a rule's conditional values given a pass (tau)
    # rank the items unlike the priced values t; the worst-case order sorts
    # tau, and it stays the minimum over all orders where sorting t is not
    t_above = 0
    for _ in range(12):
        nv, ne = int(rng.integers(3, 5)), int(rng.integers(3, 7))
        g = random_graph(rng, nv, ne, allow_parallel=True)
        inst = ProphetInstance(g, random_dists(rng, ne, support_size=3))
        red = ex_ante_reduce(inst)
        algo = GraphicRandomCut(inst, red)
        found = min(expected_value_exact(inst, algo, perm)
                    for perm in itertools.permutations(range(ne)))
        gap = expected_value_exact(inst, algo) - found
        worst = min(worst, -abs(gap))
        assert abs(gap) <= EXACT_TOL, (gap, g.edges)
        t_above += expected_value_exact(
            inst, algo, worst_case_order(red.t)) > found + EXACT_TOL
    assert t_above > 0
    _line("worst-case-order-minimality", worst,
          f" (sorting t is above the minimum in {t_above} of 12)")


def value_aware_adversary(inst, algo):
    """Exact expected online value of a graphic random-cut algorithm when
    the arrival order may see the realized values: in every cut, the
    passing items arrive in ascending realized value (ties by index)."""
    g, rule = inst.matroid, algo.rule
    nv = g.num_vertices
    total = 0.0
    for bits in itertools.product((False, True), repeat=nv):
        cons = np.flatnonzero(algo.considered(np.array([bits]))[0])
        # each considered item fails, or passes with one support value
        states = []
        for e in cons:
            d, thr, ap = inst.dists[e], rule.thresholds[e], rule.atom_pass[e]
            passing = [(float(pr) * (ap if v == thr else 1.0), float(v))
                       for v, pr in zip(d.values, d.probs) if v >= thr]
            states.append([(1.0 - sum(pr for pr, _ in passing), None)]
                          + passing)
        for combo in itertools.product(*states):
            prob = float(np.prod([pr for pr, _ in combo]))
            parent = list(range(nv))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            got = 0.0
            for v, e in sorted((v, int(e)) for e, (_, v) in zip(cons, combo)
                               if v is not None):
                ru, rv = find(g.eu[e]), find(g.ev[e])
                if ru != rv:
                    parent[ru] = rv
                    got += v
            total += prob * got
    return total / 2 ** nv


def test_value_aware_adversary_is_bracketed():
    # an edge no other passing crossing edge spans is accepted in every
    # order, so the cut bound holds below the adversary; ascending values
    # keep a minimum basis of each realization, so the adversary does no
    # better than the worst fixed order, and in some cases strictly worse
    worst = np.inf
    below = 0
    for seed in range(100, 160):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 3, 5, allow_parallel=True)
        inst = ProphetInstance(g, random_dists(rng, g.n, support_size=5))
        algo = GraphicRandomCut(inst)
        bound = cut_bound_exact(g, algo.p_scaled, algo.reduction.t,
                                algo.orientation)
        adversary = value_aware_adversary(inst, algo)
        fixed = expected_value_exact(inst, algo)
        assert bound <= adversary * (1.0 + EXACT_TOL), (seed, bound)
        assert adversary <= fixed * (1.0 + EXACT_TOL), (seed, fixed)
        worst = min(worst, adversary - bound)
        below += adversary < fixed * (1.0 - EXACT_TOL)
    assert below > 0
    _line("value-aware-adversary", worst, f" ({below} of 60 strictly below "
          "the worst fixed order)")


def test_greedy_matches_exhaustive():
    rng = np.random.default_rng(71)
    mismatches = 0
    worst = np.inf
    for trial in range(100):
        fam = trial % 3
        if fam == 0:
            nv = int(rng.integers(2, 7))
            ne = int(rng.integers(1, 13))
            m = random_graph(rng, nv, ne, allow_parallel=True)
        elif fam == 1:
            n = int(rng.integers(1, 13))
            m = UniformMatroid(n, int(rng.integers(0, n + 1)))
        else:
            sizes = [int(s) for s in rng.integers(1, 5, size=3)]
            blocks, start = [], 0
            for s in sizes:
                blocks.append(tuple(range(start, start + s)))
                start += s
            caps = [int(rng.integers(0, s + 1)) for s in sizes]
            m = PartitionMatroid(blocks, caps)
        w = np.round(rng.random(m.n) * 9, 3)
        w[rng.random(m.n) < 0.25] = 0.0
        got = sum(w[e] for e in m.max_weight_basis(w))
        best = 0.0
        for mask in range(1 << m.n):
            sel = [e for e in range(m.n) if mask & (1 << e)]
            if is_independent(m, sel):
                best = max(best, float(sum(w[e] for e in sel)))
        gap = got - best
        worst = min(worst, abs(gap))
        if abs(gap) > EXACT_TOL:
            mismatches += 1
    assert mismatches == 0
    _line("greedy-matches-exhaustive", worst, f" mismatches={mismatches}")
