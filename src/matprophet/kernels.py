"""One batched greedy primitive and the enumeration drivers built on it.

`batched_greedy` runs the greedy arrival rule on many rows at once: row r
scans its arrival order and accepts an item when the row takes it and it
keeps the row's selection independent. A matroid is its `kernel_args`
encoding, one branch per kind: graphic (kind 0: num_vertices, eu, ev)
tracks per-row component labels, a capacitated partition such as a
uniform matroid (kind 1: block_id, caps) per-row block counts.

Every exact computation but two DPs (the counting `below_cap`, the
frontier `_component_slope`) builds blocks of rows (outcomes, pass
patterns, cuts, polytope subsets) and calls the primitive; every subset
sweep takes its rows from `subset_rows`. The
Monte Carlo passes whose rows share one scan order (the prophet's
max-weight pass on small supports, online trials in a fixed order) run
`_sweep_greedy` instead, which touches only the rows that accept at each
step; random-order trials and large supports keep the per-row primitive.
On a graph of at most 16 vertices the sweep holds a row's labels in one
uint64 word, 4 bits a vertex, and merges with word arithmetic; above
that, a row of byte labels was the faster form and stays.
Sums run left to right in enumeration or acceptance order, so each result
equals the one a plain loop over the rows gives, bit for bit.
"""

import itertools

import numpy as np

from .errors import check_enum_cap

KIND_GRAPHIC = 0
KIND_PARTITION = 1
# rows per Monte Carlo block; the blocks fix how draws interleave, so this
# is part of every seeded result
BLOCK = 1 << 14
# rows per enumeration block, small enough to keep temporaries near 1 MB
ENUM_BLOCK = 1 << 12
# mc_max_weight sweeps support points while there are at most
# _SWEEP_POINTS positive ones per item on average, an allowance that shrinks
# in proportion below _SWEEP_ROWS rows, where each step's fixed cost weighs
# more; past it the per-row greedy is faster
_SWEEP_POINTS = 4
_SWEEP_ROWS = 1 << 11
# _sweep_greedy packs a graphic row's labels into one uint64, 4 bits a
# vertex, up to this many vertices; _LANES has a 1 in each lane's low bit
_WORD_VERTICES = 16
_LANES = np.uint64(0x1111_1111_1111_1111)


def running_sum(start, terms):
    """start + terms[..., 0] + terms[..., 1] + ..., added left to right
    (np.cumsum is sequential; np.sum sums pairwise)."""
    start = np.asarray(start, dtype=float)[..., None]
    return np.cumsum(np.concatenate((start, terms), axis=-1), axis=-1)[..., -1]


def batched_greedy(m, order, take, values):
    """Greedy independent selection, one row per arrival sequence.

    order is (k,), shared by every row, or (T, k), one per row: the items in
    arrival order; an item missing from it is never accepted. take is the
    (T, n) mask of items a row would accept, values is (T, n) or
    broadcasts to it. Returns (totals (T,), accepted (T, n)), each total
    summed in acceptance order.
    """
    take = np.asarray(take, dtype=bool)
    rows = take.shape[0]
    values = np.broadcast_to(values, take.shape)
    order = np.asarray(order)
    totals = np.zeros(rows)
    accepted = np.zeros(take.shape, dtype=bool)
    kind, num_vertices, eu, ev, block_id, caps = m.kernel_args()
    idx = np.arange(rows)
    if kind == KIND_GRAPHIC:
        label = np.empty((rows, num_vertices), np.min_scalar_type(num_vertices))
        label[:] = np.arange(num_vertices)
    else:
        used = np.zeros((rows, caps.size), np.int64)
    for j in range(order.shape[-1]):
        e = order[..., j]
        hit = take[idx, e]
        if kind == KIND_GRAPHIC:
            lu = label[idx, eu[e]]
            lv = label[idx, ev[e]]
            hit &= lu != lv
            # merge: relabel the component of u to v's label
            merge = label == lu[:, None]
            merge &= hit[:, None]
            np.copyto(label, lv[:, None], where=merge)
        else:
            b = block_id[e]
            hit &= used[idx, b] < caps[b]
            used[idx, b] += hit
        accepted[idx, e] = hit
        np.add(totals, values[idx, e], out=totals, where=hit)
    return totals, accepted


def _sweep_greedy(m, steps, values):
    """Greedy over one scan order shared by every row, in which an item may
    appear more than once. steps yields (item e, indices of the rows that
    take e at this step, ascending); values is (rows, n). Only the rows that
    accept e are relabelled or counted, so a step costs its own rows, not
    all of them. A row's total adds its accepted values in scan order;
    returns (totals, accepted) as batched_greedy does."""
    rows, n = values.shape
    totals = np.zeros(rows)
    accepted = np.zeros((rows, n), dtype=bool)
    kind, num_vertices, eu, ev, block_id, caps = m.kernel_args()
    packed = kind == KIND_GRAPHIC and num_vertices <= _WORD_VERTICES
    if packed:
        # vertex x's label in bits 4x to 4x + 3 of its row's word
        label = np.full(rows, sum(x << 4 * x for x in range(num_vertices)),
                        np.uint64)
        at_u, at_v = (4 * eu).tolist(), (4 * ev).tolist()
    elif kind == KIND_GRAPHIC:
        label = np.empty((rows, num_vertices), np.min_scalar_type(num_vertices))
        label[:] = np.arange(num_vertices)
    else:
        used = np.zeros((caps.size, rows), np.int64)
    for e, hit in steps:
        if packed:
            word = label[hit]
            lu = word >> at_u[e] & 0xF
            lv = word >> at_v[e] & 0xF
            # merge, by the SWAR zero-lane test: the xor zeroes the lanes
            # equal to lu, the folds OR each lane into its low bit, and the
            # lanes left 0 become 0xF masks that take lv; a row whose ends
            # already share a label rewrites lu with itself
            zero = word ^ lu * _LANES
            zero |= zero >> 1
            zero |= zero >> 2
            zero = ~zero & _LANES
            zero *= 0xF
            word ^= (word ^ lv * _LANES) & zero
            label[hit] = word
            hit = hit[lu != lv]
        elif kind == KIND_GRAPHIC:
            lu = label[hit, eu[e]]
            lv = label[hit, ev[e]]
            ok = lu != lv
            hit = hit[ok]
            lu, lv = lu[ok], lv[ok]
            # merge: relabel the component of u to v's label, in the
            # accepting rows only; labels are unsigned, so adding lv - lu
            # modulo the dtype's range lands exactly on lv
            sub = label.take(hit, axis=0)
            sub += (sub == lu[:, None]) * (lv - lu)[:, None]
            label[hit] = sub
        else:
            b = block_id[e]
            hit = hit[used[b, hit] < caps[b]]
            used[b, hit] += 1
        accepted[hit, e] = True
        totals[hit] += values[hit, e]
    return totals, accepted


def _weight_order(values):
    """Per-row scan order of a max-weight selection: decreasing weight,
    ties toward the lower index; a narrow dtype, sorted in slices to keep
    the temporaries small."""
    order = np.empty(values.shape, np.min_scalar_type(values.shape[-1]))
    for s in range(0, len(values), 1024):
        order[s:s + 1024] = np.argsort(-values[s:s + 1024], axis=-1,
                                       kind="stable")
    return order


def _max_weight_rows(m, values):
    """Max-weight selection per row of arbitrary weights, each row scanning
    its own order (greedy by decreasing weight, ties toward the lower index,
    zero weights left out). Returns (totals, accepted)."""
    return batched_greedy(m, _weight_order(values), values > 0.0, values)


def _positive_support(inst):
    """(items, values) of the instance's positive support points, by value
    descending, ties toward the lower item index: restricted to one
    realization row, this is that row's own max-weight scan order."""
    items = np.repeat(np.arange(inst.n), [d.size for d in inst.dists])
    points = np.concatenate([d.values for d in inst.dists] + [np.zeros(0)])
    keep = points > 0.0
    items, points = items[keep], points[keep]
    at = np.lexsort((items, -points))
    return items[at], points[at]


def mc_max_weight(inst, values):
    """Max-weight selection per realization row of inst (greedy by
    decreasing weight, ties toward the lower index, zero weights left out).
    Returns (totals, accepted).

    On small supports (_SWEEP_POINTS) every row shares one scan order, the
    positive support points, and a step takes the rows whose value is that
    point; a positive value that is no support point of its item raises
    ValueError. Larger supports run the per-row greedy."""
    values = np.asarray(values, dtype=float)
    items, points = _positive_support(inst)
    allowance = _SWEEP_POINTS * inst.n * min(len(values), _SWEEP_ROWS)
    if points.size * _SWEEP_ROWS > allowance:
        return _max_weight_rows(inst.matroid, values)
    # one column per item, read in place (contiguous when values is laid
    # out column by column, as sample_value_matrix lays it out): a copy
    # would be the largest array of the pass
    columns = values.T
    matched = 0

    def steps():
        nonlocal matched
        for e, x in zip(items.tolist(), points.tolist()):
            hit = np.flatnonzero(columns[e] == x)
            matched += hit.size
            yield e, hit

    out = _sweep_greedy(inst.matroid, steps(), values)
    if matched != sum(np.count_nonzero(c > 0.0) for c in columns):
        raise ValueError("a positive value is not a support point of its "
                         "item")
    return out


def mc_online_graphic(m, order, rule, values, coin_u, consider):
    """Online trials of a threshold rule, any matroid kind.

    values, coin_u and consider are (trials, n); order is (k,), shared by
    every trial, or (trials, k), one per trial. An item is taken when
    `rule.passes` on its value and coin and it is considered. Returns
    (per-trial values, per-trial accepted masks).
    """
    take = rule.passes(values, coin_u)
    take &= consider
    order = np.asarray(order)
    if order.ndim == 2:
        return batched_greedy(m, order, take, values)
    return _sweep_greedy(m, ((e, np.flatnonzero(take[:, e]))
                             for e in order.tolist()), values)


def exact_reduce(m, offsets, sup_values, sup_probs):
    """Enumerate the product outcome space, the last item varying fastest.

    Returns (expected max-weight value, per-item membership probability of
    the max-weight selection). Caller guards the outcome-count cap.
    """
    sizes = np.diff(offsets)
    strides = np.append(1, np.cumprod(sizes[::-1]))[:-1][::-1]
    count = int(np.prod(sizes))
    opt = 0.0
    p = np.zeros(sizes.size)
    for start in range(0, count, ENUM_BLOCK):
        k = np.arange(start, min(start + ENUM_BLOCK, count))
        values = np.empty((k.size, sizes.size))
        prob = np.ones(k.size)
        for i in range(sizes.size):
            at = offsets[i] + k // strides[i] % sizes[i]
            values[:, i] = sup_values[at]
            prob *= sup_probs[at]
        # the per-row max-weight pass, not mc_max_weight: the benchmark's
        # traced run times mc_max_weight as the Monte Carlo layer
        totals, accepted = _max_weight_rows(m, values)
        opt = running_sum(opt, prob * totals)
        for i in range(sizes.size):
            p[i] = running_sum(p[i], prob[accepted[:, i]])
    return float(opt), p


def partition_args(m):
    """(block_id, caps) of a uniform or partition matroid (kernel_args kind
    1, which exact mode counts instead of enumerating), else None."""
    args = m.kernel_args()
    return args[4:] if args[0] == KIND_PARTITION else None


def below_cap(probs, caps):
    """Per row of probs (..., m): Pr[fewer than caps (an int, or one per
    row) of m independent events occur], event j with probability
    probs[..., j]. A Poisson-binomial counting DP over the columns."""
    probs = np.asarray(probs, dtype=float)
    caps = np.minimum(caps, probs.shape[-1] + 1)
    dp = np.zeros(probs.shape[:-1] + (int(np.max(caps, initial=0)),))
    dp[..., :1] = 1.0
    for j in range(probs.shape[-1]):
        moved = dp[..., :-1] * probs[..., j, None]
        dp *= 1.0 - probs[..., j, None]
        dp[..., 1:] += moved
    return np.where(np.arange(dp.shape[-1]) < caps[..., None], dp, 0.0) \
        .sum(axis=-1)


def counting_reduce(block_id, caps, offsets, sup_values, sup_probs):
    """exact_reduce for a capacitated partition, one below_cap row per
    support point: item i with value x > 0 is selected exactly when fewer
    than its block's capacity of the other members precede it, member f
    when X_f > x, or X_f == x and f < i (greedy's tie order).

    The rows run in blocks of about 2^20 (row, support point) cells, so
    memory stays linear in the support size; a row's mass on an item adds
    the item's preceding support points in support order."""
    n = offsets.size - 1
    sizes = np.diff(offsets)
    item = np.repeat(np.arange(n), sizes)
    b = block_id[item]
    keep = np.empty(item.size)
    step = max(1, (1 << 20) // max(item.size, 1))
    for start in range(0, item.size, step):
        rows = slice(start, start + step)
        x = sup_values[rows, None]
        ahead = (sup_values > x) | ((sup_values == x)
                                    & (item < item[rows, None]))
        ahead &= (b == b[rows, None]) & (item != item[rows, None])
        mass = np.zeros((len(x), n))
        for j in range(sizes.max(initial=0)):
            at = offsets[:-1] + np.minimum(j, sizes - 1)
            mass += np.where(ahead[:, at] & (j < sizes), sup_probs[at], 0.0)
        keep[rows] = below_cap(mass, caps[b[rows]])
    keep = keep * sup_probs * (sup_values > 0.0)
    return float(keep @ sup_values), np.bincount(item, keep, minlength=n)


def counting_rule_value(block_id, caps, cons, pass_probs, cond_values):
    """rule_value_exact for a capacitated partition: the item at position
    j of cons is accepted when it passes and fewer than its block's
    capacity of the block members before it passed."""
    b = block_id[cons]
    earlier = (b == b[:, None]) & np.tri(cons.size, k=-1, dtype=bool)
    r = pass_probs[cons]
    keep = below_cap(np.where(earlier, r, 0.0), caps[b])
    return float(running_sum(0.0, r * cond_values[cons] * keep))


def subset_rows(k, step=ENUM_BLOCK):
    """The 2^k subsets of k items as bit rows, in ascending mask order and
    in blocks of `step` rows: column j of a row is bit j of its mask. Every
    subset sweep (pass patterns, cuts, polytope subsets) takes its rows
    from here, so they all enumerate in this one order."""
    for start in range(0, 1 << k, step):
        mask = np.arange(start, min(start + step, 1 << k))
        yield ((mask[:, None] >> np.arange(k)) & 1).astype(bool)


def _patterns(q):
    """Patterns of independent events in mask order, ENUM_BLOCK at a time:
    bit j of the mask sets event j, which occurs with probability q[j].
    Yields (bits (B, m), pattern probabilities (B,))."""
    for bits in subset_rows(q.size):
        prob = np.ones(len(bits))
        for j in range(q.size):
            prob *= np.where(bits[:, j], q[j], 1.0 - q[j])
        yield bits, prob


def rule_value_exact(m, cons, pass_probs, cond_values):
    """Exact expected online value of a fixed threshold rule.

    cons lists the items with positive pass probability in arrival order.
    The accepted set depends only on which of them pass, so each pass
    pattern is one greedy row, and each accepted item contributes its
    conditional value given a pass.
    """
    total = 0.0
    for bits, prob in _patterns(pass_probs[cons]):
        take = np.zeros((len(bits), pass_probs.size), dtype=bool)
        take[:, cons] = bits
        values, _ = batched_greedy(m, cons, take, cond_values)
        total = running_sum(total, prob * values)
    return float(total)


def distinct_rows(rows):
    """(the distinct rows of a stack of bool rows, ascending; per row, the
    index of its distinct row), as np.unique(rows, axis=0,
    return_inverse=True) gives them, but an order of magnitude faster: each
    row is one byte string, after a leading byte so that none is empty."""
    keyed = np.ones((len(rows), np.shape(rows)[1] + 1), dtype=bool)
    keyed[:, 1:] = rows
    keys, inverse = np.unique(keyed.view(f"V{keyed.shape[1]}")[:, 0],
                              return_inverse=True)
    return keys.view(bool).reshape(len(keys), -1)[:, 1:], inverse


def _cut_steps(nv, tails, heads, sided):
    """The frontier DP's plan over nv vertices and the edges f, tails[f] to
    heads[f]: per step, the next vertex (most placed neighbours, ties to the
    lower index), the (tail, head, edge) frontier positions of its edges to
    placed vertices, and the positions that then leave, last first; and the cap
    count, the sum over steps of Bell(w), 2^w Bell(w) when sided, width w."""
    ends = list(zip(tails.tolist(), heads.tolist()))
    nbrs = [{u + w - x for u, w in ends if x in (u, w)} for x in range(nv)]
    placed, frontier, steps, size = set(), [], [], 0
    bell, row = [1], [1]  # the Bell triangle: row k starts with Bell(k)
    for _ in range(nv):
        v = max(sorted(set(range(nv)) - placed),
                key=lambda x: len(nbrs[x] & placed))
        frontier.append(v)
        joins = [(frontier.index(a), frontier.index(b), f)
                 for f, (a, b) in enumerate(ends)
                 if v in (a, b) and a + b - v in placed]
        placed.add(v)
        row = list(itertools.accumulate(row, initial=row[-1]))
        bell.append(row[0])
        size += (2 ** len(frontier) if sided else 1) * bell[len(frontier)]
        steps.append((v, joins, [i for i, x in enumerate(frontier)
                                 if nbrs[x] <= placed][::-1]))
        frontier = [x for x in frontier if not nbrs[x] <= placed]
    return steps, size


def _branch(states, moves):
    """One DP step: state (probability a, derivative d) moves to each (codes,
    b, e) of moves(key) with weight (b, e), labels renumbered by first use."""
    out = {}
    for key, (a, d) in states.items():
        for codes, b, e in moves(key):
            first = {}
            new = tuple(2 * first.setdefault(c >> 1, len(first)) + (c & 1)
                        for c in codes)
            old = out.get(new, (0.0, 0.0))
            out[new] = (old[0] + a * b, old[1] + d * b + a * e)
    return out


def _component_slope(plan, q, w, assign):
    """-<w, grad E[#components of the present edges]> over a _cut_steps plan,
    edge f present with probability q[f], by a frontier DP with a dual number
    (probability, derivative) per state: an edge f joining two components
    branches into "merge" (q_f, w_f) and "no merge" (1 - q_f, -w_f); a
    component closing as its last frontier vertex leaves adds its state's
    derivative. A state codes each frontier vertex 2 * label + side (1 for A).
    Unsided (assign None), any edge may be present; sided, only one from A
    (tail) to B (head), averaged over the completions of assign (-1 free)."""
    (steps, size), sided = plan, assign is not None
    check_enum_cap(size, f"{size} {'cut' if sided else 'connection'} states")
    states, slope = {(): (1.0, 0.0)}, 0.0
    for v, joins, leave in steps:
        sides = ((1, 0) if assign[v] < 0 else (int(assign[v]),)) if sided \
            else (0,)
        states = _branch(states, lambda key: [
            (key + (2 * len(key) + s,), 1.0 / len(sides), 0.0) for s in sides])
        for i, j, f in joins:

            def join(key):
                li, lj = key[i] >> 1, key[j] >> 1
                if li == lj or sided and (not key[i] & 1 or key[j] & 1):
                    return [(key, 1.0, 0.0)]
                merged = [c & 1 | lj << 1 if c >> 1 == li else c for c in key]
                return [(merged, q[f], w[f]), (key, 1.0 - q[f], -w[f])]
            states = _branch(states, join)
        for i in leave:
            slope += sum(d for key, (_, d) in states.items()
                         if [c >> 1 for c in key].count(key[i] >> 1) == 1)
            states = _branch(states, lambda key: [(key[:i] + key[i + 1:],
                                                   1.0, 0.0)])
    return 0.0 - slope


def expected_cut_objective(g, orientation, p, t, assign):
    """Average cut objective over uniform completions of assign (per vertex:
    1 side A, 0 side B, -1 undecided): the sum over edges e of p_e t_e
    Pr[e crosses from A to B and no path of other present edges joins its
    ends], edge f present when it crosses and a coin of probability p_f
    lands; the sided _component_slope along w = p*t."""
    p, t = np.asarray(p, dtype=float), np.asarray(t, dtype=float)
    plan = _cut_steps(g.num_vertices, orientation.tails, orientation.heads,
                      True)
    return _component_slope(plan, p.tolist(), (p * t).tolist(), assign)


def connect_probability(m, members, probs, target):
    """Pr[an independent activation of `members` (edge e of the graph m
    active with probability probs[e]) joins the ends of edge `target`, not
    among them] = 1 + dE[#components]/dq_target, an unsided _component_slope
    along the target's unit vector; it does not read q_target, set to 0."""
    edges = np.array([*members, target], dtype=np.int64)
    plan = _cut_steps(m.num_vertices, m.eu[edges], m.ev[edges], False)
    q = [float(probs[e]) for e in members] + [0.0]
    return 1.0 - _component_slope(plan, q, [0.0] * (len(q) - 1) + [1.0], None)
