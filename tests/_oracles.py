"""Independent brute-force oracles for the exact engine.

Deliberately a different algorithm family from the package: configurations
come from itertools.product instead of bitmask arithmetic, connectivity from
union-find instead of BFS.  Expected values in the tests were computed with
these oracles and then frozen as literals.
"""

from fractions import Fraction
from itertools import product


class DSU:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _components(n, live_edges):
    dsu = DSU(n)
    for u, v in live_edges:
        dsu.union(u, v)
    return dsu


def bond_joint_pmf(n, edges, v_plus, v_minus, o, p):
    """Joint law of (|C cap v_plus|, |C cap v_minus|) by direct enumeration."""
    p = Fraction(p)
    pmf = {}
    for states in product((0, 1), repeat=len(edges)):
        live = [e for e, s in zip(edges, states) if s]
        dsu = _components(n, live)
        root = dsu.find(o)
        cluster = {v for v in range(n) if dsu.find(v) == root}
        key = (len(cluster & set(v_plus)), len(cluster & set(v_minus)))
        k = sum(states)
        weight = p**k * (1 - p) ** (len(edges) - k)
        pmf[key] = pmf.get(key, Fraction(0)) + weight
    return pmf


def site_joint_pmf(n, edges, v_plus, v_minus, o, p):
    """Site version: closed vertices are singleton cells."""
    p = Fraction(p)
    pmf = {}
    for states in product((0, 1), repeat=n):
        if states[o]:
            live = [(u, v) for (u, v) in edges if states[u] and states[v]]
            dsu = _components(n, live)
            root = dsu.find(o)
            cluster = {v for v in range(n)
                       if states[v] and dsu.find(v) == root}
        else:
            cluster = {o}
        key = (len(cluster & set(v_plus)), len(cluster & set(v_minus)))
        k = sum(states)
        weight = p**k * (1 - p) ** (n - k)
        pmf[key] = pmf.get(key, Fraction(0)) + weight
    return pmf


def rc_joint_pmf(n, edges, v_plus, v_minus, o, p, q):
    """Random-cluster weighting: p^open (1-p)^closed q^components."""
    p, q = Fraction(p), Fraction(q)
    weights = {}
    total = Fraction(0)
    for states in product((0, 1), repeat=len(edges)):
        live = [e for e, s in zip(edges, states) if s]
        dsu = _components(n, live)
        comp_count = len({dsu.find(v) for v in range(n)})
        root = dsu.find(o)
        cluster = {v for v in range(n) if dsu.find(v) == root}
        key = (len(cluster & set(v_plus)), len(cluster & set(v_minus)))
        k = sum(states)
        w = p**k * (1 - p) ** (len(edges) - k) * q**comp_count
        weights[key] = weights.get(key, Fraction(0)) + w
        total += w
    return {key: w / total for key, w in weights.items()}


def bond_connection(n, edges, o, v, p):
    """P(v in the origin's cluster) by direct enumeration."""
    p = Fraction(p)
    prob = Fraction(0)
    for states in product((0, 1), repeat=len(edges)):
        live = [e for e, s in zip(edges, states) if s]
        dsu = _components(n, live)
        if dsu.find(o) == dsu.find(v):
            k = sum(states)
            prob += p**k * (1 - p) ** (len(edges) - k)
    return prob


def eager_cluster_mask(g, o, p, seed, sample_index):
    """Monte Carlo oracle: draw the full configuration first, then extract
    the cluster with the exact engine's traversal."""
    from symperc.exact import _cluster_mask_bond, _incidence
    from symperc.mc import open_threshold, unit_word

    threshold = open_threshold(p)
    mask = 0
    for eidx in range(g.n_edges):
        if unit_word(seed, sample_index, eidx) < threshold:
            mask |= 1 << eidx
    return _cluster_mask_bond(_incidence(g), mask, o)


def expectations(pmf):
    e_plus = sum((w * a for (a, _), w in pmf.items()), Fraction(0))
    e_minus = sum((w * b for (_, b), w in pmf.items()), Fraction(0))
    return e_plus, e_minus
