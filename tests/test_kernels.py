"""The batched greedy primitive and its enumeration drivers against
plain-python oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from matprophet import (DiscreteDistribution, GraphicMatroid,
                        PartitionMatroid, ProphetInstance, ThresholdRule,
                        UniformMatroid, execute_online, kernels)
from matprophet.generate import (random_dists, random_distribution,
                                 random_partition_instance,
                                 random_uniform_instance)
from matprophet.reduction import _support_arrays, sample_value_matrix
from oracles import is_independent

rng0 = np.random.default_rng


def random_matroid(rng):
    kind = rng.random()
    if kind < 0.5:
        nv = int(rng.integers(2, 6))
        ne = int(rng.integers(1, 7))
        edges = [tuple(sorted(rng.choice(nv, 2, replace=False).tolist()))
                 for _ in range(ne)]
        return GraphicMatroid(nv, edges)
    if kind < 0.65:
        n = int(rng.integers(1, 7))
        return UniformMatroid(n, int(rng.integers(0, n + 1)))
    nb = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, 4)) for _ in range(nb)]
    blocks, start = [], 0
    for s in sizes:
        blocks.append(tuple(range(start, start + s)))
        start += s
    caps = [int(rng.integers(0, s + 1)) for s in sizes]
    return PartitionMatroid(blocks, caps)


def wide_graphs(rng):
    """Graphs on 16 and 17 vertices, either side of the most whose labels
    _sweep_greedy packs into one word, and on 30: 2 nv random edges, each
    fourth of them doubled, that leave the middle vertex isolated."""
    graphs = []
    for nv in (16, 17, 30):
        ends = np.delete(np.arange(nv), nv // 2)
        edges = [tuple(sorted(rng.choice(ends, 2, replace=False).tolist()))
                 for _ in range(2 * nv)]
        graphs.append(GraphicMatroid(nv, edges + edges[::4]))
    return graphs


def oracle_greedy(m, order, take, values):
    picked, total = [], 0.0
    for e in order:
        e = int(e)
        if take[e] and is_independent(m, picked + [e]):
            picked.append(e)
            total += values[e]
    mask = np.zeros(m.n, bool)
    mask[picked] = True
    return total, mask


def instance_over(m, values):
    """An instance on m whose item i has the distinct values of column i
    as its support, equally likely."""
    supports = [np.unique(values[:, i]) for i in range(m.n)]
    return ProphetInstance(m, [DiscreteDistribution(s, np.full(s.size,
                                                                1 / s.size))
                               for s in supports])


def oracle_max_weight(m, w):
    return oracle_greedy(m, np.argsort(-w, kind="stable"), w > 0, w)


def assert_rows_match(m, orders, take, values, got):
    totals, accepted = got
    assert totals.shape == (len(take),)
    assert accepted.shape == take.shape
    for r in range(len(take)):
        want_total, want_mask = oracle_greedy(m, orders[r], take[r], values[r])
        assert totals[r] == want_total
        assert np.array_equal(accepted[r], want_mask)


def test_batched_greedy_matches_oracle():
    rng = rng0(1)
    cases = [random_matroid(rng) for _ in range(60)]
    cases += [GraphicMatroid(3, []), GraphicMatroid(0, []),
              UniformMatroid(0, 0), UniformMatroid(5, 2)]
    rows = 12
    for m in cases:
        take = rng.random((rows, m.n)) < 0.6
        values = np.round(rng.random((rows, m.n)) * 5, 3)
        values[rng.random((rows, m.n)) < 0.2] = 0.0
        shared = rng.permutation(m.n)
        per_row = np.array([rng.permutation(m.n) for _ in range(rows)],
                           dtype=np.int64).reshape(rows, m.n)
        k = int(rng.integers(0, m.n + 1))
        for order in (shared, per_row, shared[:k], per_row[:, :k]):
            orders = np.broadcast_to(order, (rows, order.shape[-1]))
            got = kernels.batched_greedy(m, order, take, values)
            assert_rows_match(m, orders, take, values, got)


def test_greedy_select_matches_oracle():
    """A single row, as execute_online passes it."""
    rng = rng0(8)
    for _ in range(80):
        m = random_matroid(rng)
        order = rng.permutation(m.n).astype(np.int64)
        take = rng.random(m.n) < 0.6
        values = np.round(rng.random(m.n) * 5, 3)
        totals, accepted = kernels.batched_greedy(m, order, take[None],
                                                  values[None])
        want_total, want_mask = oracle_greedy(m, order, take, values)
        assert totals.tolist() == [want_total]
        assert accepted[0].tolist() == want_mask.tolist()


def test_max_weight_select_matches_oracle():
    rng = rng0(2)
    for _ in range(80):
        m = random_matroid(rng)
        w = np.round(rng.random(m.n) * 5, 3)
        w[rng.random(m.n) < 0.3] = 0.0
        _, want_mask = oracle_max_weight(m, w)
        assert m.max_weight_basis(w) == tuple(np.flatnonzero(want_mask))


def test_mc_online_matches_execute_online():
    rng = rng0(6)
    for _ in range(10):
        m = random_matroid(rng)
        dists = [random_distribution(rng) for _ in range(m.n)]
        inst = ProphetInstance(m, dists)
        thr = np.array([float(d.values[rng.integers(d.size)])
                        for d in dists])
        atom = np.round(rng.random(m.n), 2)
        order = rng.permutation(m.n).astype(np.int64)
        trials = 40
        values = np.stack([np.array([d.sample(rng) for d in dists])
                           for _ in range(trials)])
        coins = rng.random((trials, m.n))
        consider = rng.random((trials, m.n)) < 0.8
        got, acc = kernels.mc_online_graphic(
            m, order, ThresholdRule(thr, atom), values, coins, consider)
        for tr in range(trials):
            masked_thr = np.where(consider[tr], thr, np.inf)
            accepted, value = execute_online(
                inst, ThresholdRule(masked_thr, atom), order, values[tr],
                atom_coins=coins[tr])
            assert got[tr] == value
            assert sorted(np.flatnonzero(acc[tr])) == sorted(accepted)


def test_mc_max_weight_matches_oracle():
    """Decreasing weight, ties to the lower index, zero weights left out."""
    rng = rng0(7)
    for _ in range(20):
        m = random_matroid(rng)
        values = np.round(rng.random((30, m.n)) * 5, 3)
        values[rng.random((30, m.n)) < 0.2] = 0.0
        totals, accepted = kernels.mc_max_weight(instance_over(m, values),
                                                 values)
        want_counts = np.zeros(m.n, dtype=int)
        for tr in range(30):
            want_total, want_mask = oracle_max_weight(m, values[tr])
            assert totals[tr] == want_total
            assert accepted[tr].tolist() == want_mask.tolist()
            want_counts += want_mask
        assert accepted.sum(axis=0).tolist() == want_counts.tolist()


def test_uniform_matroid_is_single_block():
    values = np.array([[3.0, 1.0, 2.0, 0.0, 2.5]])
    totals, accepted = kernels.mc_max_weight(
        instance_over(UniformMatroid(5, 2), values), values)
    assert totals.tolist() == [5.5]
    assert np.flatnonzero(accepted[0]).tolist() == [0, 4]


def grid_instance(rng, m, most):
    """An instance on m whose supports are drawn from one small grid, so
    items tie across supports: one to `most` values each, zero atoms,
    single atoms and all-zero supports among them."""
    grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 7.0])
    dists = []
    for _ in range(m.n):
        vals = np.sort(rng.choice(grid, int(rng.integers(1, most + 1)),
                                  replace=False))
        dists.append(DiscreteDistribution(vals, rng.dirichlet(np.ones(
            vals.size))))
    return ProphetInstance(m, dists)


def as_bits(totals):
    return np.asarray(totals, dtype=float).view(np.int64)


def test_support_sweep_equals_the_per_row_greedy(monkeypatch):
    """mc_max_weight with every allowance (the default, always sweep,
    never sweep) gives the per-row greedy's totals bit for bit and its
    masks, and both equal the plain oracle."""
    rng = rng0(21)
    cases = [random_matroid(rng) for _ in range(60)] + wide_graphs(rng)
    cases += [GraphicMatroid(0, []), GraphicMatroid(4, []),
              GraphicMatroid(3, [(0, 1), (0, 1), (1, 2), (0, 2), (1, 2)]),
              UniformMatroid(0, 0), UniformMatroid(4, 0),
              PartitionMatroid([(0, 1), (2,), (3, 4)], [0, 1, 2])]
    for case, m in enumerate(cases):
        inst = grid_instance(rng, m, 2 if case % 2 else 8)
        if case % 7 == 3:
            inst = ProphetInstance(m, [DiscreteDistribution.constant(0.0)]
                                   * m.n)
        values = sample_value_matrix(inst, rng, 40)
        want = [oracle_max_weight(m, w) for w in values]
        got = [kernels._max_weight_rows(m, values),
               kernels.mc_max_weight(inst, values)]
        for points in (np.inf, 0):
            monkeypatch.setattr(kernels, "_SWEEP_POINTS", points)
            got.append(kernels.mc_max_weight(inst, values))
        monkeypatch.undo()
        for totals, accepted in got:
            assert np.array_equal(as_bits(totals),
                                  as_bits([t for t, _ in want]))
            assert np.array_equal(accepted, np.array(
                [mask for _, mask in want]).reshape(values.shape))


def test_support_sweep_refuses_values_off_the_support():
    """At 2048 rows and two support points per item the sweep runs by
    default, and a positive value off its item's support is caught."""
    coin = DiscreteDistribution([0.0, 2.0], [0.5, 0.5])
    pair = DiscreteDistribution([1.0, 3.0], [0.5, 0.5])
    zero = DiscreteDistribution.constant(0.0)
    inst = ProphetInstance(GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)]),
                           [coin, pair, zero])
    values = sample_value_matrix(inst, rng0(23), 2048)
    kernels.mc_max_weight(inst, values)
    for item, bad in ((0, 2.5), (1, 1.0 + 1e-12), (2, 0.5)):
        off = values.copy()
        off[17, item] = bad
        with pytest.raises(ValueError, match="not a support point"):
            kernels.mc_max_weight(inst, off)


def test_online_sweep_equals_batched_greedy_on_shared_orders():
    """A fixed (1-D) order runs the sweep; it gives batched_greedy's
    totals bit for bit and its masks, also on rows that consider nothing
    and on orders that leave items out."""
    rng = rng0(24)
    cases = [random_matroid(rng) for _ in range(60)] + wide_graphs(rng)
    cases += [GraphicMatroid(0, []), GraphicMatroid(4, []),
              GraphicMatroid(3, [(0, 1), (0, 1), (1, 2), (0, 2)]),
              UniformMatroid(4, 0)]
    rows = 50
    for m in cases:
        values = np.round(rng.random((rows, m.n)) * 5, 1)
        values[rng.random((rows, m.n)) < 0.2] = 0.0
        coins = rng.random((rows, m.n))
        consider = rng.random((rows, m.n)) < 0.7
        consider[::7] = False
        rule = ThresholdRule(np.round(rng.random(m.n) * 3, 1),
                             rng.random(m.n))
        take = rule.passes(values, coins) & consider
        perm = rng.permutation(m.n)
        for order in (perm, perm[:int(rng.integers(0, m.n + 1))]):
            totals, accepted = kernels.mc_online_graphic(
                m, order, rule, values, coins, consider)
            want_totals, want_accepted = kernels.batched_greedy(
                m, order, take, values)
            assert np.array_equal(as_bits(totals), as_bits(want_totals))
            assert np.array_equal(accepted, want_accepted)
            assert not accepted[::7].any()
            assert_rows_match(m, np.broadcast_to(order, (rows, order.size)),
                              take, values, (totals, accepted))


def test_exact_reduce_matches_bruteforce():
    rng = rng0(3)
    for _ in range(12):
        m = random_matroid(rng)
        dists = [random_distribution(rng, support_size=int(rng.integers(1, 4)))
                 for _ in range(m.n)]
        inst = ProphetInstance(m, dists)
        offsets, sup_values, sup_probs = _support_arrays(inst)
        opt, p = kernels.exact_reduce(m, offsets, sup_values, sup_probs)
        want_opt = 0.0
        want_p = np.zeros(m.n)
        supports = [list(zip(d.values, d.probs)) for d in dists]
        for combo in itertools.product(*supports):
            w = np.array([v for v, _ in combo])
            pr = float(np.prod([q for _, q in combo]))
            total, mask = oracle_max_weight(m, w)
            want_opt += pr * total
            want_p[mask] += pr
        assert opt == pytest.approx(want_opt, abs=1e-9)
        assert p == pytest.approx(want_p, abs=1e-9)


def test_rule_value_exact_matches_pattern_enumeration():
    rng = rng0(4)
    for _ in range(20):
        m = random_matroid(rng)
        r = np.round(rng.random(m.n), 3)
        r[rng.random(m.n) < 0.25] = 0.0
        tau = np.round(rng.random(m.n) * 4, 3)
        order = rng.permutation(m.n).astype(np.int64)
        cons = np.array([e for e in order if r[e] > 0], dtype=np.int64)
        got = kernels.rule_value_exact(m, cons, r, tau)
        want = 0.0
        for bits in itertools.product([False, True], repeat=cons.size):
            prob = 1.0
            take = np.zeros(m.n, bool)
            for e, hit in zip(cons, bits):
                prob *= r[e] if hit else 1.0 - r[e]
                take[e] = hit
            val, _ = oracle_greedy(m, order, take, tau)
            want += prob * val
        assert got == pytest.approx(want, abs=1e-9)


def bruteforce_connect(g, members, probs, target):
    """Pr[the active members join the ends of target], one activation
    pattern of the members at a time, by union-find."""
    want = 0.0
    for bits in itertools.product([False, True], repeat=len(members)):
        pr = 1.0
        active = []
        for e, hit in zip(members, bits):
            pr *= probs[e] if hit else 1.0 - probs[e]
            if hit:
                active.append(int(e))
        parent = list(range(g.num_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in active:
            ru, rv = find(int(g.eu[e])), find(int(g.ev[e]))
            if ru != rv:
                parent[ru] = rv
        if find(int(g.eu[target])) == find(int(g.ev[target])):
            want += pr
    return want


def test_connect_probability_matches_bruteforce(monkeypatch):
    monkeypatch.delenv("MATPROPHET_ENUM_CAP", raising=False)
    rng = rng0(5)
    for _ in range(20):
        nv = int(rng.integers(2, 5))
        ne = int(rng.integers(1, 6))
        edges = [tuple(sorted(rng.choice(nv, 2, replace=False).tolist()))
                 for _ in range(ne)]
        g = GraphicMatroid(nv, edges)
        probs = np.round(rng.random(g.n), 3)
        target = int(rng.integers(g.n))
        rest = [e for e in range(g.n) if e != target]
        members = np.array(sorted(
            rng.choice(rest, int(rng.integers(0, len(rest) + 1)),
                       replace=False)), dtype=np.int64)
        got = kernels.connect_probability(g, members, probs, target)
        assert got == pytest.approx(
            bruteforce_connect(g, members, probs, target), abs=1e-12)
        # the target's own probability never enters
        probs[target] = 1.0 - probs[target]
        assert kernels.connect_probability(g, members, probs, target) == got
    # parallel edges: the target's twins span it, the edge beside does not
    g = GraphicMatroid(3, [(0, 1), (0, 1), (1, 2), (1, 0)])
    probs = np.array([0.9, 0.3, 0.5, 0.6])
    got = kernels.connect_probability(g, [1, 2, 3], probs, 0)
    assert got == pytest.approx(1.0 - 0.7 * 0.4, abs=1e-12)
    assert got == pytest.approx(bruteforce_connect(g, [1, 2, 3], probs, 0),
                                abs=1e-12)
    # no members: never spanned
    assert kernels.connect_probability(g, [], probs, 0) == 0.0
    assert kernels.connect_probability(g, np.zeros(0, np.int64), probs,
                                       2) == 0.0
    # 25 members, whose 2^25 activation patterns exceed the default cap:
    # one more parallel edge and twelve two-edge paths between the
    # target's ends; the target is spanned unless all thirteen routes break
    edges = [(0, 1), (1, 0)]
    for m in range(2, 14):
        edges += [(0, m), (m, 1)]
    g = GraphicMatroid(14, edges)
    probs = rng.uniform(0.05, 0.95, g.n)
    broken = 1.0 - probs[1]
    for f in range(2, g.n, 2):
        broken *= 1.0 - probs[f] * probs[f + 1]
    got = kernels.connect_probability(g, np.arange(1, g.n), probs, 0)
    assert got == pytest.approx(1.0 - broken, rel=1e-12)


def test_counting_matches_enumeration():
    # uniform and partition matroids count instead of enumerating; the
    # enumeration stays their oracle, within 1e-12 relative
    rng = rng0(6)
    for case in range(60):
        support = 2 if case % 2 else 3
        if case % 5 == 4:
            # zero capacities and supports of one to three values
            m = random_matroid(rng)
            while kernels.partition_args(m) is None:
                m = random_matroid(rng)
            inst = ProphetInstance(m, [random_distribution(
                rng, support_size=int(rng.integers(1, 4)))
                for _ in range(m.n)])
        elif case % 5 < 2:
            inst = random_uniform_instance(
                rng, max_n=12 if support == 2 else 8, support_size=support)
        else:
            inst = random_partition_instance(
                rng, max_blocks=4, max_block_size=3 if support == 2 else 2,
                support_size=support)
        m = inst.matroid
        offsets, sup_values, sup_probs = _support_arrays(inst)
        blocks = kernels.partition_args(m)
        opt, p = kernels.counting_reduce(*blocks, offsets, sup_values,
                                         sup_probs)
        want_opt, want_p = kernels.exact_reduce(m, offsets, sup_values,
                                                sup_probs)
        assert opt == pytest.approx(want_opt, rel=1e-12)
        assert p == pytest.approx(want_p, rel=1e-12)
        r = np.round(rng.random(m.n), 3)
        r[rng.random(m.n) < 0.25] = 0.0
        tau = np.round(rng.random(m.n) * 4, 3)
        order = rng.permutation(m.n)
        cons = order[r[order] > 0]
        assert kernels.counting_rule_value(*blocks, cons, r, tau) == \
            pytest.approx(kernels.rule_value_exact(m, cons, r, tau),
                          rel=1e-12)


def test_distinct_rows_match_numpy_unique():
    rng = rng0(12)
    shapes = [(16, 0), (1, 0), (1, 5), (7, 1)] + [
        (int(rng.integers(1, 300)), int(rng.integers(1, 40)))
        for _ in range(100)]
    for shape in shapes:
        rows = rng.random(shape) < rng.random()
        want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
        got, inverse = kernels.distinct_rows(rows)
        assert got.dtype == bool and np.array_equal(got, want)
        assert inverse.tolist() == want_inverse.reshape(-1).tolist()


def test_counting_reduce_memory_stays_linear():
    # 2,000 support points: one float matrix over all pairs of them is
    # 32 MB by itself, so the rows run in blocks
    rng = rng0(9)
    inst = ProphetInstance(UniformMatroid(1000, 10),
                           random_dists(rng, 1000, support_size=2))
    blocks = kernels.partition_args(inst.matroid)
    offsets, sup_values, sup_probs = _support_arrays(inst)
    tracemalloc.start()
    try:
        opt, p = kernels.counting_reduce(*blocks, offsets, sup_values,
                                         sup_probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    # greedy keeps min(k, number of positive values) items
    positive = np.array([d.prob_above(0.0) for d in inst.dists])
    kept = sum(1.0 - kernels.below_cap(positive, c) for c in range(1, 11))
    assert p.sum() == pytest.approx(kept, rel=1e-12)
    assert 0.0 < opt <= float(np.sort(sup_values)[-10:].sum())
