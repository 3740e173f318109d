"""Independent brute-force oracles.

Everything here is deliberately written against the definitions, not the
package's code paths: permutation-form Shapley, adjacency-list BFS, explicit
subset filtering, dense lstsq, and loop-based information measures.
"""

import itertools
import math

import numpy as np


def shapley_permutation_oracle(value, d):
    """Average marginal contribution over all d! orderings.

    ``value`` maps a bitmask to a real.
    """
    totals = np.zeros(d)
    count = 0
    for perm in itertools.permutations(range(d)):
        mask = 0
        prev = value(0)
        for j in perm:
            mask |= 1 << j
            cur = value(mask)
            totals[j] += cur - prev
            prev = cur
        count += 1
    return totals / count


def shapley_subset_oracle(value, d):
    """Direct subset-form Shapley: sum over subsets with factorial weights."""
    phi = np.zeros(d)
    for i in range(d):
        for r in range(d):
            for combo in itertools.combinations([j for j in range(d) if j != i], r):
                s = len(combo)
                weight = math.factorial(s) * math.factorial(d - s - 1) / math.factorial(d)
                without = sum(1 << j for j in combo)
                phi[i] += weight * (value(without | (1 << i)) - value(without))
    return phi


def adjacency_lists(d, edges):
    adj = {j: set() for j in range(d)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def bfs_distances(d, edges, start):
    adj = adjacency_lists(d, edges)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def is_connected_subset(d, edges, members):
    members = set(members)
    if not members:
        return True
    adj = adjacency_lists(d, edges)
    seen = {next(iter(members))}
    frontier = list(seen)
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v in members and v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen == members


def components_oracle(d, edges, members):
    members = set(members)
    adj = adjacency_lists(d, edges)
    out = []
    left = set(members)
    while left:
        start = min(left)
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if v in left and v not in comp:
                    comp.add(v)
                    frontier.append(v)
        out.append(frozenset(comp))
        left -= comp
    return out


def connected_subsets_oracle(d, edges, i, neighborhood):
    """Filter every subset of the neighborhood for the enumeration contract."""
    nb = sorted(neighborhood)
    found = []
    for r in range(1, len(nb) + 1):
        for combo in itertools.combinations(nb, r):
            if i in combo and is_connected_subset(d, edges, combo):
                found.append(sum(1 << j for j in combo))
    return sorted(found, key=lambda m: (bin(m).count("1"), m))


def myerson_oracle(value, d, edges):
    """Subset-form Shapley of the zero-anchored component-sum extension."""
    baseline = value(0)

    def restricted(mask):
        members = [j for j in range(d) if (mask >> j) & 1]
        return sum(
            value(sum(1 << j for j in comp)) - baseline
            for comp in components_oracle(d, edges, members)
        )

    return shapley_subset_oracle(restricted, d)


def wls_lstsq_oracle(matrix, responses, weights):
    """Weighted least squares via scaling + dense lstsq (minimum-norm)."""
    sw = np.sqrt(weights)
    coef, *_ = np.linalg.lstsq(matrix * sw[:, None], responses * sw, rcond=None)
    return coef


def conditional_oracle(table, d, num_classes, values, subset):
    """P(y | x_subset) by explicit summation loops."""
    num = np.zeros(num_classes)
    for x in range(1 << d):
        ok = all(
            ((x >> j) & 1) == int(values[j]) for j in range(d) if (subset >> j) & 1
        )
        if ok:
            num += table[x]
    total = num.sum()
    return num / total


def absolute_mi_oracle(table, d, num_classes, group_a, group_b, cond, with_label):
    """I_a by explicit loops over atoms and marginalization sums."""

    def marg(x, y, mask, use_y):
        s = 0.0
        for x2 in range(1 << d):
            if all(((x2 >> j) & 1) == ((x >> j) & 1) for j in range(d) if (mask >> j) & 1):
                s += table[x2, y] if use_y else table[x2].sum()
        return s

    total = 0.0
    for x in range(1 << d):
        for y in range(num_classes):
            p = table[x, y]
            if p == 0:
                continue
            pabz = marg(x, y, group_a | group_b | cond, with_label)
            paz = marg(x, y, group_a | cond, with_label)
            pbz = marg(x, y, group_b | cond, with_label)
            pz = marg(x, y, cond, with_label)
            total += p * abs(math.log(pabz * pz / (paz * pbz)))
    return total


def interval_count(d, i, k):
    """Number of intervals containing i inside the radius-k window on a chain."""
    a = min(k, i)
    b = min(k, d - 1 - i)
    return (a + 1) * (b + 1)
