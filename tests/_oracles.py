"""Independent brute-force oracles for the exact engine.

Deliberately a different algorithm family from the package: the pmf
oracles draw configurations from itertools.product and find connectivity
with union-find; the bitmask sweep (``brute_force_bins``) grows the
origin's cluster in every one of the 2^units configurations, where the
package sums over the clusters themselves and keeps packed rows, which
``unpacked_bins`` lays out the oracle's way.  Expected values in the tests
were computed with these oracles and then frozen as literals.  The
hypothesis strategy ``observed_graphs`` draws the cases that the exact and
the Monte Carlo projection properties share.

``per_set_site_rows`` builds the site law's packed rows the slow way:
every connected S ∋ o grown level by level and then rescanned vertex by
vertex, where the package carries each S's sizes and boundary along one
branching pass.  ``cyclic_site_cases`` draws its graphs, which have cycles
and up to 16 vertices, past the reach of the 2^units sweeps.

``per_root_rc_rows`` builds the random-cluster law's packed rows root by
root: the C_S of the sets whose lowest vertex is r, for r = 0, 1, ...,
cutting no set at that vertex and walking every sub-cluster from it, one
term per sub-cluster, and Z_T with no pendant rule, as the product over
its components when T is disconnected.  The package builds every C_S in one
pass ordered by size, cuts a vertex with one neighbour wherever it sits,
walks from a vertex with the fewest neighbours, and splits every T, however
many components it has, off the cell of its lowest vertex.

The evaluation oracles (``eval_joint``, ``expectations`` and the three
checks) chain Fraction sums term by term, where the package's integer cores
(``joint_numerators`` and the four ``*_numerators`` checks) work in integers
over one common denominator; ``eval_joint`` reads a target's marginal as it
reads a pair's.  ``bins_pmf`` weighs the configurations of
``brute_force_bins`` one by one under any of the three laws, without the
package's marginals.  ``hypercube_entry`` builds one p's exact hypercube
result from Fraction c-values and these oracles, where the package combines
integer numerators over one denominator.

``pair_joint`` runs either engine on one pair and projects the pair out of
its sweep.  ``probabilities``, ``connected``, ``expected``, ``margins``,
``residuals`` and ``ratio`` read the integer cores' numerators as
Fractions, and ``integer_pmf`` feeds a Fraction pmf to them, so the tests
compare the cores with the oracles and with frozen values.

``stable_json`` is the stdlib's indenting JSON encoder, the oracle of the
package's report writer; ``json_values`` draws the trees it is fed.

The Monte Carlo oracles grow one sample at a time: ``eager_cluster_mask``
draws every edge of the sample and then traverses, and
``sample_cluster_mask`` (behind ``sample_cluster``) reveals edges by a DFS,
where the package grows every sample of a chunk at once, one bit each.
``transpose_bins`` bins a chunk's samples from the transpose of the
``reach`` sets, one string of bits per sample, where the package packs
eight vertices into one byte per sample; ``reach_cases`` draws its inputs.

The group oracles close the generators into an explicit element list
(``generate_group``, a ``PermGroup``) and scan it, where the package works
from generators and stabilizer chains and never lists the elements.
``exhaustive_symmetry_report`` decides the symmetry conditions that way;
``element_battery`` counts the failures of the four counting lemmas behind
``verify-group-theorem`` by summing over elements (``orbit``,
``stabilizer_orbit``, ``verify_orbit_product``, ``split_group``,
``pair_orbit`` and ``verify_double_counting``).  ``symmetry_cases`` draws
graphs, generator sets and pairs for them, failing cases included, and
``split_cases`` draws groups that preserve or swap their two sets, so the
lemmas are reached and can fail.

The generator oracles rewrite every label: ``label_map_generator``
resolves a generator spec through ``perm_from_label_map``, one dict lookup
per rewritten label (``layer_swap``, ``axis_rotation``,
``axis_reflection``, ``swap_axes`` and ``coord_permutation``), and lifts a
``base_perm`` with ``lift_first_factor``, where ``groups.build_generator``
maps the row-major index one axis at a time.  ``base_generator_perms``
builds the base symmetries of ``bunkbed`` and ``layered`` as permutations
of the built base, each nested factor's lifted onto the product, and
``hypercube_relation_perms`` builds the generators of the cube's instance
pairs from label maps, where the package writes both as named generator
specs.  ``product_graphs`` and ``generator_specs`` draw the cases on which
the two resolvers are compared.

``distance`` and ``relabel_graph`` are graph helpers that only the tests
use.
"""

import json
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import NamedTuple

from hypothesis import strategies as st

from symperc.exact import (
    IntegerPmf,
    Observables,
    _connected_sets,
    expected_numerators,
    joint_numerators,
    margin_numerators,
    ratio_numerators,
    residual_numerators,
)
from symperc.rationals import format_fraction
from symperc.scenarios import (
    _c_value_gap,
    _hypercube_entry,
    _hypercube_rows,
    discrete_derivative,
)
from symperc.graphs import (
    build_graph,
    cartesian_product,
    complete_graph,
    distances_from,
    explicit_graph,
)
from symperc.groups import (
    GeneratorSpecError,
    GroupError,
    NonAutomorphismElement,
    NoSwapper,
    _check_perm,
    compose,
    identity_perm,
    make_pair,
    random_family_pairs,
)


def distance(g, u, v):
    """Graph distance (edge count of a shortest path)."""
    return distances_from(g, u)[v]


def relabel_graph(g, perm):
    """Apply a vertex permutation: vertex v moves to index perm[v], carrying
    its label along; edges are re-canonicalized."""
    labels = [()] * g.n_vertices
    for v, lab in enumerate(g.labels):
        labels[perm[v]] = lab
    relabeled = explicit_graph(g.n_vertices,
                               [(perm[u], perm[v]) for u, v in g.edges])
    return relabeled._replace(labels=tuple(labels))


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
    the cluster with the brute-force sweep's traversal."""
    from symperc.mc import open_threshold, unit_word

    threshold = open_threshold(p)
    mask = 0
    for eidx in range(g.n_edges):
        if unit_word(seed, sample_index, eidx) < threshold:
            mask |= 1 << eidx
    return _cluster_mask_bond(_incidence(g), mask, o)


def lazy_incidence(g):
    """Per vertex x, one (w, 1 << w, (e + 1) * GOLDEN mod 2^64) entry for
    each edge e = xw: the neighbour, its bit, and the edge's offset in
    ``unit_word``'s second round."""
    from symperc.mc import _GOLDEN, _MASK64

    inc = [[] for _ in range(g.n_vertices)]
    for idx, (u, v) in enumerate(g.edges):
        step = ((idx + 1) * _GOLDEN) & _MASK64
        inc[u].append((v, 1 << v, step))
        inc[v].append((u, 1 << u, step))
    return [tuple(x) for x in inc]


def sample_cluster_mask(inc, seed, sample_index, threshold, o):
    """Per-sample Monte Carlo oracle: grow one sample's cluster by a DFS,
    revealing each edge's state on first contact only.

    Edge e is open iff ``unit_word(seed, sample_index, e) < threshold``;
    the sample's first round is hashed once and the edge's round written
    out inline.
    """
    from symperc.mc import _GOLDEN, _MASK64, _mix64

    mask = _MASK64
    h = _mix64(seed + (sample_index + 1) * _GOLDEN)
    seen = 1 << o
    stack = [o]
    while stack:
        for w, wbit, step in inc[stack.pop()]:
            if seen & wbit:
                continue
            z = (h + step) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            if z ^ (z >> 31) < threshold:
                seen |= wbit
                stack.append(w)
    return seen


def sample_cluster(g, o, p, seed, sample_index=0):
    """The origin's cluster for one sample of the edge process."""
    from symperc.mc import open_threshold

    mask = sample_cluster_mask(lazy_incidence(g), seed, sample_index,
                               open_threshold(p), o)
    return tuple(v for v in range(g.n_vertices) if mask >> v & 1)


def transpose_bins(reach, observed, size):
    """Bin oracle: count the samples by their set of reached observed
    vertices, read off the transpose of the observed vertices' ``reach``
    sets.

    Each row is one sample's string of bits over the observed vertices that
    some sample reached, highest vertex first; the others would add the same
    0 to every row.  A run of consecutive vertices is one binary slice of a
    row, so a row's key costs one ``int`` per run, not one step per vertex.
    """
    verts = [v for v in range(len(reach) - 1, -1, -1)
             if reach[v] and observed >> v & 1]
    if not verts:
        return Counter({0: size})
    runs = []
    start = 0
    for i in range(1, len(verts) + 1):
        if i == len(verts) or verts[i] != verts[i - 1] - 1:
            runs.append((start, i, verts[i - 1]))
            start = i
    width = f"0{size}b"
    rows = Counter(map("".join, zip(*(format(reach[v], width)
                                      for v in verts))))
    bins = Counter()
    for row, cnt in rows.items():
        key = 0
        for a, b, low in runs:
            key |= int(row[a:b], 2) << low
        bins[key] += cnt
    return bins


@st.composite
def reach_cases(draw):
    """A chunk size, per-vertex ``reach`` sets of that many samples (some
    empty) over up to 40 vertices, and 0-20 observed vertices among them."""
    size = draw(st.sampled_from([1, 7, 8, 9, 64, 65, 4097]))
    n = draw(st.integers(1, 40))
    full = (1 << size) - 1
    sets = st.one_of(st.just(0), st.just(full), st.integers(0, full),
                     st.integers(0, size - 1).map(lambda i: 1 << i),
                     st.integers(0, 16).map(lambda k: full >> k))
    reach = draw(st.lists(sets, min_size=n, max_size=n))
    observed = draw(st.lists(st.integers(0, n - 1), max_size=20))
    return reach, sum(1 << v for v in set(observed)), size


# ---------------------------------------------------------------------------
# the brute-force bitmask sweep: every configuration, one cluster growth each


def _incidence(g):
    """Per-vertex list of (neighbor, edge bit) pairs."""
    inc = [[] for _ in range(g.n_vertices)]
    for idx, (u, v) in enumerate(g.edges):
        bit = 1 << idx
        inc[u].append((v, bit))
        inc[v].append((u, bit))
    return [tuple(x) for x in inc]


def _cluster_mask_bond(inc, mask, o):
    """Vertex bitmask of the origin's component in the open subgraph."""
    seen = 1 << o
    stack = [o]
    while stack:
        x = stack.pop()
        for w, ebit in inc[x]:
            if mask & ebit:
                wbit = 1 << w
                if not seen & wbit:
                    seen |= wbit
                    stack.append(w)
    return seen


def _sweep(args):
    """Count configurations in [lo, hi) keyed by (sizes, k) or (sizes, k, c).

    ``inc[x]`` pairs each neighbor w of x with the unit bit that must be
    open to step to w: the joining edge's, or under the site law w's own,
    where ``need`` keeps a closed origin a singleton cell.  ``sizes`` adds
    up ``weights[v]`` over the cluster, one bit field per observed set.
    """
    inc, n, o, weights, need, lo, hi, want_components = args
    obit = 1 << o
    counts = {}
    for mask in range(lo, hi):
        sizes = weights[o]
        if mask & need == need:
            seen = obit
            stack = [o]
            while stack:
                x = stack.pop()
                for w, bit in inc[x]:
                    if mask & bit:
                        wbit = 1 << w
                        if not seen & wbit:
                            seen |= wbit
                            sizes += weights[w]
                            stack.append(w)
        key = (sizes, mask.bit_count())
        if want_components:
            unseen, cells = (1 << n) - 1, 0
            while unseen:
                v = (unseen & -unseen).bit_length() - 1
                unseen &= ~_cluster_mask_bond(inc, mask, v)
                cells += 1
            key += (cells,)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _chunk_ranges(total, chunks):
    chunks = max(1, min(chunks, total))
    step = total // chunks
    bounds = [i * step for i in range(chunks)] + [total]
    return [(bounds[i], bounds[i + 1]) for i in range(chunks)]


def _run_sweeps(jobs, threads):
    """Run sweep jobs over disjoint mask ranges and merge by addition, which
    is commutative, so any schedule gives the single-range result."""
    merged = {}
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_sweep, jobs))
    else:
        results = [_sweep(job) for job in jobs]
    for part in results:
        for key, cnt in part.items():
            merged[key] = merged.get(key, 0) + cnt
    return merged


def unpacked_bins(sweep):
    """A ``ClusterSweep``'s packed rows as counts keyed (sizes, k), or
    (sizes, k, cells) under the random-cluster law, one key per nonzero
    coefficient: the keys of :func:`brute_force_bins`."""
    field, fields = (1 << sweep.width) - 1, range(len(sweep.masks))
    bits, by_cells = sweep.units + 2, sweep.law.kind == "random_cluster"
    bins = {}
    for packed, poly in sweep.rows.items():
        sizes = tuple(packed >> (i * sweep.width) & field for i in fields)
        index = 0
        while poly:
            cnt = poly & ((1 << bits) - 1)
            if cnt:
                cells, k = divmod(index, sweep.units + 1)
                bins[(sizes, k, cells) if by_cells else (sizes, k)] = cnt
            poly >>= bits
            index += 1
    return bins


def brute_force_bins(g, observed, law, chunks=1, threads=1):
    """Configuration counts of ``enumerate_joint(g, observed, law)`` keyed
    as by :func:`unpacked_bins`, by sweeping all 2^units configuration
    masks in ``chunks`` ranges."""
    if law.kind == "site":
        units, need = g.n_vertices, 1 << observed.origin
        inc = [tuple((w, 1 << w) for w in nbrs) for nbrs in g.adjacency]
    else:
        units, need, inc = g.n_edges, 0, _incidence(g)
    masks = observed.masks()
    width = g.n_vertices.bit_length()
    weights = [sum(1 << (i * width) for i, m in enumerate(masks) if m >> v & 1)
               for v in range(g.n_vertices)]
    jobs = [(inc, g.n_vertices, observed.origin, weights, need, lo, hi,
             law.kind == "random_cluster")
            for lo, hi in _chunk_ranges(1 << units, chunks)]
    field = (1 << width) - 1
    raw = _run_sweeps(jobs, threads)
    return {(tuple(packed >> (i * width) & field for i in range(len(masks))),
             *kc): cnt for (packed, *kc), cnt in raw.items()}


def bins_pmf(bins, units, law, p):
    """The law at p of the sizes that keyed :func:`brute_force_bins`, as
    Fractions: each configuration weighs p^k (1−p)^(units−k), times q^cells
    under the random-cluster law, over the total weight."""
    p = Fraction(p)
    q = law.q if law.kind == "random_cluster" else 1
    weights = {}
    for (sizes, k, *cells), cnt in bins.items():
        w = cnt * p**k * (1 - p) ** (units - k) * q ** sum(cells)
        weights[sizes] = weights.get(sizes, Fraction(0)) + w
    total = sum(weights.values())
    return {sizes: w / total for sizes, w in weights.items()}


def per_set_site_rows(g, origin, masks):
    """The packed site-law rows of ``exact._origin_cluster_rows``, keyed as
    there with ``width = n.bit_length()`` and fields of n+2 bits, by the
    per-set loop: every connected S ∋ o is grown level by level, one
    neighbour at a time with duplicates merged, and then rescanned vertex
    by vertex for its sizes and its outer boundary ∂S.  S is open, ∂S
    closed and the rest free; a closed origin is a cell of its own."""
    n = g.n_vertices
    width, bits = n.bit_length(), n + 2
    nbr = [sum(1 << w for w in nbrs) for nbrs in g.adjacency]
    weights = [sum(1 << (i * width) for i, m in enumerate(masks) if m >> v & 1)
               for v in range(n)]
    powers = [1]  # (1 + x)^j
    for _ in range(n):
        powers.append(powers[-1] + (powers[-1] << bits))
    rows = {weights[origin]: powers[n - 1]}
    level = {1 << origin}
    while level:
        grown = set()
        for s in level:
            sizes = around = 0
            for v in range(n):
                if s >> v & 1:
                    sizes += weights[v]
                    around |= nbr[v]
            boundary = around & ~s
            free = n - s.bit_count() - boundary.bit_count()
            rows[sizes] = rows.get(sizes, 0) + (
                powers[free] << (bits * s.bit_count()))
            grown.update(s | 1 << v for v in range(n) if boundary >> v & 1)
        level = grown
    return rows


def _rooted_spanning_polys(nbr, root, allowed, bits, powers, census):
    """C_S(x) and (e(S), Σ census[v] over S) for every connected S with
    root ∈ S ⊆ allowed, in order of size: a vertex v ≠ root with one
    neighbour in S gives C_S = x·C_{S∖v}, and any other S walks its
    connected sub-clusters U ∋ root,
    C_S = (1+x)^e(S) − Σ C_U·(1+x)^e(S∖U) over U ⊊ S, one term per U."""
    polys, extent = {}, {}
    rbit = 1 << root
    for s in sorted(_connected_sets(nbr, root, allowed), key=int.bit_count):
        members = [v for v in range(len(nbr)) if s >> v & 1]
        degrees = [(nbr[v] & s).bit_count() for v in members]
        pendant = [v for v, d in zip(members, degrees)
                   if d == 1 and v != root]
        if pendant:
            v = pendant[0]
            polys[s] = polys[s ^ 1 << v] << bits
            inner, total = extent[s ^ 1 << v]
            extent[s] = (inner + 1, total + census[v])
            continue
        inner = sum(degrees) // 2
        poly = powers[inner]
        for u in _connected_sets(nbr, root, s):
            if u != s:
                rest = s & ~u
                outside = sum((nbr[v] & rest).bit_count()
                              for v in range(len(nbr)) if rest >> v & 1) // 2
                poly -= polys[u] * powers[outside]
        polys[s] = poly
        extent[s] = (inner, sum(census[v] for v in members))
    return polys, extent


def _component(nbr, start, within):
    """The component of G[within] holding the vertex bit ``start``."""
    comp = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = nbr[low.bit_length() - 1] & within & ~comp
        comp |= new
        frontier |= new
    return comp


def per_root_rc_rows(g, origin, masks):
    """The packed random-cluster rows of ``exact._origin_cluster_rows``,
    keyed as there with ``width = n.bit_length()`` and fields of m+2 bits,
    built one root at a time: C_S for the connected sets rooted at their
    lowest vertex, root by root in ascending order, and
    Z_T(x, y) memoized for every T, a connected T splitting off the cell of
    its lowest vertex and any other T the product over its components.
    The origin's cluster S is one cell: y·C_S·Z_{V∖S}."""
    n, m = g.n_vertices, g.n_edges
    width, bits = n.bit_length(), m + 2
    ystride = bits * (m + 1)
    nbr = [sum(1 << w for w in nbrs) for nbrs in g.adjacency]
    weights = [sum(1 << (i * width) for i, mask in enumerate(masks)
                   if mask >> v & 1) for v in range(n)]
    powers = [1]  # (1 + x)^e
    for _ in range(m):
        powers.append(powers[-1] + (powers[-1] << bits))
    everything = (1 << n) - 1
    polys, extent = {}, {}
    for r in range(n):
        rooted = _rooted_spanning_polys(nbr, r, everything >> r << r, bits,
                                        powers, weights)
        polys.update(rooted[0])
        extent.update(rooted[1])
    memo = {0: 1}

    def partition_poly(t):
        if t not in memo:
            low = t & -t
            comp = _component(nbr, low, t)
            if comp != t:
                z = partition_poly(comp) * partition_poly(t ^ comp)
            else:
                z = sum(polys[u] * partition_poly(t ^ u)
                        for u in _connected_sets(nbr, low.bit_length() - 1, t))
                z <<= ystride
            memo[t] = z
        return memo[t]

    rows = {}
    for s, (_, sizes) in extent.items():
        if s >> origin & 1:
            rows[sizes] = rows.get(sizes, 0) + (
                polys[s] * partition_poly(everything ^ s) << ystride)
    return rows


# ---------------------------------------------------------------------------
# evaluation and the exact checks, one Fraction operation per term


def _powers(x, top):
    out = [Fraction(1)]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def eval_joint(poly, p):
    """``exact.joint_numerators`` over its denominator: each outcome's
    probability at p."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    units = poly.units
    pk = _powers(p, units)
    qk = _powers(1 - p, units)
    pmf = {}
    if poly.law.kind == "random_cluster":
        q = poly.law.q
        weights = {}
        total = Fraction(0)
        for key, sub in poly.component_counts.items():
            w = Fraction(0)
            for (k, c), cnt in sub.items():
                w += cnt * pk[k] * qk[units - k] * q**c
            weights[key] = w
            total += w
        for key, w in weights.items():
            pmf[key] = w / total
    else:
        for key, vec in poly.counts.items():
            prob = Fraction(0)
            for k, cnt in enumerate(vec):
                if cnt:
                    prob += cnt * pk[k] * qk[units - k]
            pmf[key] = prob
    assert sum(pmf.values()) == 1
    return pmf


def expectations(pmf):
    """``exact.expected_numerators`` over the pmf's denominator."""
    e_plus = sum((w * a for (a, _), w in pmf.items()), Fraction(0))
    e_minus = sum((w * b for (_, b), w in pmf.items()), Fraction(0))
    return e_plus, e_minus


class Domination(NamedTuple):
    """The tail margins P(a >= t) − P(b >= t) for t = 1, 2, ..., and
    whether none of them is negative."""

    margins: tuple[Fraction, ...]
    passes: bool


def check_domination(pmf):
    """``exact.margin_numerators`` over the pmf's denominator: both tails
    summed afresh at every t."""
    max_a = max((a for (a, _) in pmf), default=0)
    max_b = max((b for (_, b) in pmf), default=0)
    t_max = max(max_a, max_b, 1)
    margins = []
    for t in range(1, t_max + 1):
        tail_a = sum((prob for (a, _), prob in pmf.items() if a >= t), Fraction(0))
        tail_b = sum((prob for (_, b), prob in pmf.items() if b >= t), Fraction(0))
        margins.append(tail_a - tail_b)
    return Domination(tuple(margins), all(m >= 0 for m in margins))


def check_partition_identity(pmf):
    """``exact.residual_numerators`` over their denominator: both sides of
    the identity for each test function, one pass over the pmf per
    function."""
    t_max = max((a + b for (a, b) in pmf), default=1)
    family = [(f"ind_ge_{t}", lambda n, t=t: 1 if n >= t else 0)
              for t in range(1, t_max + 1)]
    family += [("identity", lambda n: n), ("square", lambda n: n * n)]
    residuals = {}
    for name, f in family:
        lhs = Fraction(0)
        rhs = Fraction(0)
        for (a, b), prob in pmf.items():
            if prob == 0:
                continue
            diff = Fraction(f(a)) - Fraction(f(b))
            lhs += prob * diff
            rhs += prob * diff * Fraction(a - b, a + b)
        residuals[name] = lhs - rhs
    return residuals


def check_ratio_identity(pmf):
    """``exact.ratio_numerators`` over their denominator: E(b/a) and
    P(b > 0)."""
    lhs = sum((prob * Fraction(b, a) for (a, b), prob in pmf.items()),
              Fraction(0))
    rhs = sum((prob for (_, b), prob in pmf.items() if b > 0), Fraction(0))
    return lhs, rhs


def _sign(value):
    return "pass" if value >= 0 else "violation"


def hypercube_entry(d, p, c, polys):
    """One p's exact ``hypercube`` result from the Fraction c-values ``c``
    and the instances ``polys``, (k, l, construction, symmetry report,
    joint polynomial) each: every row, derivative and gap a Fraction sum."""
    def measure(stat):
        value = stat(c)
        return format_fraction(value), _sign(value)

    derivatives = []
    for k in range(d + 1):
        val = discrete_derivative(c, k, 0)
        derivatives.append({"k": k, "value": format_fraction(val),
                            "verdict": _sign((-1) ** k * val)})
    instances = []
    for k, l, name, conditions, poly in polys:
        pmf = eval_joint(poly, p)
        e_plus, e_minus = expectations(pmf)
        gap = e_plus - e_minus
        dom = check_domination(pmf)
        predicted = _c_value_gap(name, k, l, c)
        ok = conditions.ok and gap == predicted and gap >= 0 and dom.passes
        instances.append({
            "k": k, "l": l, "construction": name,
            "conditions_ok": conditions.ok,
            "expectation_gap": format_fraction(gap),
            "predicted_gap": format_fraction(predicted),
            "margins_pass": dom.passes,
            "verdict": "pass" if ok else "violation",
        })
    return _hypercube_entry(p, [format_fraction(x) for x in c],
                            _hypercube_rows(d, c, measure),
                            derivatives=derivatives, instances=instances)


# ---------------------------------------------------------------------------
# the package's results as the tests read them


def pair_joint(engine, g, pair, *args, **kwargs):
    """One pair's joint law: ``exact.enumerate_joint`` or
    ``mc.estimate_joint`` run on the pair alone, projected on it."""
    return engine(g, Observables(pair.origin, (pair,)), *args,
                  **kwargs).joint(pair)


def probabilities(pmf):
    """An ``exact.IntegerPmf`` as Fractions."""
    return {key: Fraction(num, pmf.den) for key, num in pmf.nums.items()}


def connected(marginal, p):
    """A target's connection probability at p: its marginal's outcome
    (1, 0) through ``exact.joint_numerators``."""
    return probabilities(joint_numerators(marginal, p)).get((1, 0), Fraction(0))


def expected(pmf):
    e_plus, e_minus = expected_numerators(pmf)
    return Fraction(e_plus, pmf.den), Fraction(e_minus, pmf.den)


def margins(pmf):
    return tuple(Fraction(m, pmf.den) for m in margin_numerators(pmf))


def residuals(pmf):
    den, nums = residual_numerators(pmf)
    return {name: Fraction(num, den) for name, num in nums.items()}


def ratio(pmf):
    den, lhs, rhs = ratio_numerators(pmf)
    return Fraction(lhs, den), Fraction(rhs, den)


def integer_pmf(pmf):
    """A Fraction pmf over the least common denominator of its values."""
    den = lcm(*(prob.denominator for prob in pmf.values()))
    return IntegerPmf(den, {key: prob.numerator * (den // prob.denominator)
                            for key, prob in pmf.items()})


# ---------------------------------------------------------------------------
# the report writer


def stable_json(value):
    """``cli.to_stable_json`` by the stdlib's own encoder."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


_STRINGS = st.text() | st.sampled_from(
    ["", "\x00\x1f\x7f", "tab\tline\nquote\"slash\\", "é ✓ \u2028 𝄞",
     "\ud800"])
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 0.0, 1e300, -1e-300]) | _STRINGS)


def json_values():
    """Trees of dicts with string keys, lists and tuples, empty ones
    included, over None, bools next to ints, finite floats and strings
    with non-ASCII and control characters."""
    return st.recursive(
        _SCALARS,
        lambda inner: (st.lists(inner, max_size=5)
                       | st.lists(inner, max_size=5).map(tuple)
                       | st.dictionaries(_STRINGS, inner, max_size=5)),
        max_leaves=40)


@st.composite
def observed_graphs(draw):
    """A connected graph of at most 10 edges, an origin, one to three pairs
    holding it, and connection targets."""
    n = draw(st.integers(1, 6))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)))):
        if u != v and len(edges) < 10:
            edges.add((min(u, v), max(u, v)))
    g = explicit_graph(n, sorted(edges))
    o = draw(st.integers(0, n - 1))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        side = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        pairs.append(make_pair(
            g, [v for v in range(n) if side[v] == 1 or v == o],
            [v for v in range(n) if side[v] == 2 and v != o], o))
    targets = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return g, o, pairs, targets


@st.composite
def cyclic_site_cases(draw):
    """A connected graph of 3 to 16 vertices with at least one cycle (a
    random tree plus up to n chords), an origin and one to three arbitrary
    observed vertex masks."""
    n = draw(st.integers(3, 16))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              min_size=1, max_size=n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    if len(edges) == n - 1:  # still a tree: close the first missing pair
        edges.add(next((u, v) for v in range(n) for u in range(v)
                       if (u, v) not in edges))
    origin = draw(st.integers(0, n - 1))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                          max_size=3))
    return explicit_graph(n, sorted(edges)), origin, tuple(masks)


DEFAULT_CLOSURE_CAP = 10**6


class ClosureCapExceeded(GroupError):
    """Generator closure grew past the configured element cap."""


@dataclass(frozen=True)
class PermGroup:
    """Generators plus the full element list (deterministic discovery order:
    breadth-first from the identity, generators applied in input order)."""

    n_points: int
    generators: tuple
    elements: tuple

    @property
    def order(self):
        return len(self.elements)


def generate_group(gens, cap=DEFAULT_CLOSURE_CAP, n_points=None):
    """Close a generator list under composition.

    The element list starts at the identity and grows breadth-first, applying
    generators in input order, so the order is reproducible.  ``n_points`` is
    only needed when ``gens`` is empty.
    """
    if cap < 1:
        raise GroupError(f"closure cap must be >= 1, got {cap}")
    n = len(gens[0]) if gens else n_points
    if n is None:
        raise GroupError("empty generator list needs an explicit n_points")
    checked = [_check_perm(p, n) for p in gens]

    ident = identity_perm(n)
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for gen in checked:
                h = compose(gen, e)
                if h not in seen:
                    if len(seen) + 1 > cap:
                        raise ClosureCapExceeded(
                            f"group closure exceeds cap of {cap} elements"
                        )
                    seen.add(h)
                    elements.append(h)
                    nxt.append(h)
        frontier = nxt
    return PermGroup(n_points=n, generators=tuple(checked),
                     elements=tuple(elements))


def orbit(grp, x):
    """All images of x under the group."""
    return tuple(sorted({e[x] for e in grp.elements}))


def stabilizer_orbit(grp, v, w):
    """Images of w under the elements fixing v."""
    return tuple(sorted({e[w] for e in grp.elements if e[v] == v}))


def verify_orbit_product(grp, x, y):
    """Count both sides of the pair-orbit product identity.

    Returns (number of distinct image pairs of (x, y),
             orbit size of x times stabilizer orbit size of y at x).
    The two counts agree for every group action.
    """
    pairs = {(e[x], e[y]) for e in grp.elements}
    return len(pairs), len(orbit(grp, x)) * len(stabilizer_orbit(grp, x, y))


@dataclass(frozen=True)
class GroupSplit:
    """Partition of the elements into set-preservers and set-swappers.

    ``swap`` is the first swapper in the group's deterministic element
    order; the swappers are exactly ``swap`` composed with each preserver.
    """

    preservers: tuple
    swappers: tuple
    swap: tuple


def split_group(grp, pair):
    plus, minus = set(pair.v_plus), set(pair.v_minus)
    preservers = []
    swappers = []
    for e in grp.elements:
        img_plus = {e[v] for v in plus}
        img_minus = {e[v] for v in minus}
        if img_plus == plus and img_minus == minus:
            preservers.append(e)
        elif img_plus == minus and img_minus == plus:
            swappers.append(e)
        else:
            raise GroupError(
                "split requires every element to preserve or swap the sets"
            )
    if not swappers:
        raise NoSwapper(
            "no element swaps the sets (transitivity fails or v_minus is empty)"
        )
    return GroupSplit(preservers=tuple(preservers), swappers=tuple(swappers),
                      swap=swappers[0])


def pair_orbit(elements, pair):
    """Distinct componentwise images of the set pair under the elements."""
    return {
        (frozenset(e[x] for x in pair.a_plus),
         frozenset(e[x] for x in pair.a_minus))
        for e in elements
    }


def verify_double_counting(elements, pair, o, o_prime):
    """Count both sides of the double-counting identity.

    lhs = (#orbit members whose first set contains o) * |a_minus|,
    rhs = (#orbit members whose second set contains o_prime) * |a_plus|.
    Equality holds whenever the elements form a group acting transitively on
    each side with symmetric cross stabilizer-orbit sizes.
    """
    members = pair_orbit(elements, pair)
    hits_o = sum(1 for first, _ in members if o in first)
    hits_o_prime = sum(1 for _, second in members if o_prime in second)
    return hits_o * len(pair.a_minus), hits_o_prime * len(pair.a_plus)


def element_battery(g, gens, pair, trials, seed):
    """``scenarios._group_battery`` by sums over the closed group's
    elements: the same report fields."""
    grp = generate_group(gens, n_points=g.n_vertices)
    conditions = exhaustive_symmetry_report(g, grp, pair)

    orbit_product_failures = []
    for x in range(g.n_vertices):
        for y in range(g.n_vertices):
            lhs, rhs = verify_orbit_product(grp, x, y)
            if lhs != rhs:
                orbit_product_failures.append((x, y, lhs, rhs))

    split = split_group(grp, pair)
    sub = PermGroup(n_points=g.n_vertices, generators=(),
                    elements=split.preservers)
    stab_failures = []
    for v in pair.v_plus:
        for w in pair.v_minus:
            if len(stabilizer_orbit(sub, v, w)) != len(
                    stabilizer_orbit(sub, w, v)):
                stab_failures.append((v, w))

    swap_failures = []
    for x in range(g.n_vertices):
        for y in range(g.n_vertices):
            if any(e[x] == y and e[y] == x for e in grp.elements):
                if len(stabilizer_orbit(grp, x, y)) != len(
                        stabilizer_orbit(grp, y, x)):
                    swap_failures.append((x, y))

    pairs = random_family_pairs(pair.v_plus, pair.v_minus, trials, seed)
    o_prime = pair.v_minus[0]
    double_failures = 0
    for fp in pairs:
        lhs, rhs = verify_double_counting(split.preservers, fp,
                                          pair.origin, o_prime)
        if lhs != rhs:
            double_failures += 1

    return {
        "conditions": conditions,
        "group_order": grp.order,
        "orbit_product_pairs": g.n_vertices ** 2,
        "orbit_product_failures": len(orbit_product_failures),
        "stabilizer_symmetry_failures": len(stab_failures),
        "swap_symmetry_failures": len(swap_failures),
        "double_counting_trials": trials,
        "double_counting_failures": double_failures,
        "all_exact": not (orbit_product_failures or stab_failures
                          or swap_failures or double_failures),
    }


def exhaustive_symmetry_report(g, grp, pair):
    """The conditions block of ``check-symmetry`` by a sweep over the
    elements of the closed group ``grp``, each cross pair rescanning the
    element list: ``groups.check_symmetry_conditions`` decides the fields
    but ``swap_transitive``, ``sets_finite`` and ``group_order``."""
    edges = set(g.edges)
    for e in grp.elements:
        off = [(u, v) for u, v in g.edges
               if (e[u], e[v]) not in edges and (e[v], e[u]) not in edges]
        if off:
            # the first bad element of the breadth-first order is a generator
            u, v = off[0]
            raise NonAutomorphismElement(
                f"generator {grp.generators.index(e)} is not an automorphism: "
                f"it maps the edge ({u}, {v}) to ({e[u]}, {e[v]}), which is "
                "no edge")

    plus, minus = set(pair.v_plus), set(pair.v_minus)
    union = plus | minus
    notes = []

    set_preserving = True
    for e in grp.elements:
        img_plus = {e[v] for v in plus}
        img_minus = {e[v] for v in minus}
        if img_plus not in (plus, minus) or img_minus not in (plus, minus):
            set_preserving = False
            notes.append("an element maps a set off the pair {v_plus, v_minus}")
            break

    transitive = True
    for e in grp.elements:
        if {e[v] for v in union} != union:
            transitive = False
            notes.append("an element moves the union off itself")
            break
    if transitive and union:
        seed = min(union)
        reach = {e[seed] for e in grp.elements}
        if not union <= reach:
            transitive = False
            missing = sorted(union - reach)
            listed = ", ".join(map(str, missing[:10]))
            if len(missing) > 10:
                listed += f"] and {len(missing) - 10} more"
            else:
                listed += "]"
            notes.append(f"vertices [{listed} unreachable from vertex {seed}")

    stabilizer_symmetric = True
    for v in pair.v_plus:
        for w in pair.v_minus:
            if len(stabilizer_orbit(grp, v, w)) != len(
                    stabilizer_orbit(grp, w, v)):
                stabilizer_symmetric = False
                notes.append(f"stabilizer orbit sizes differ for pair ({v},{w})")
                break
        if not stabilizer_symmetric:
            break

    swap_transitive = True
    for v in pair.v_plus:
        for w in pair.v_minus:
            if not any(e[v] == w and e[w] == v for e in grp.elements):
                swap_transitive = False
                break
        if not swap_transitive:
            break

    return {
        "set_preserving": set_preserving,
        "transitive": transitive,
        "stabilizer_symmetric": stabilizer_symmetric,
        "swap_transitive": swap_transitive,
        "sets_finite": True,
        "group_order": grp.order,
        "ok": set_preserving and transitive and stabilizer_symmetric,
        "notes": notes,
    }


@st.composite
def symmetry_cases(draw):
    """A graph on at most 6 vertices, generators and a vertex-set pair.

    The edges are the orbits of a drawn spanning tree and a few more drawn
    edges under the drawn generators, so the graph is connected and the
    generators are automorphisms unless an extra drawn permutation
    spoils it; the sets are arbitrary, so every condition fails somewhere.
    """
    n = draw(st.integers(1, 6))
    perms = st.permutations(range(n)).map(tuple)
    gens = draw(st.lists(perms, max_size=3))
    grp = generate_group(gens, n_points=n)
    seeds = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    seeds += draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1)), max_size=2))
    edges = {tuple(sorted((e[u], e[v]))) for u, v in seeds if u != v
             for e in grp.elements}
    if draw(st.integers(0, 9)) == 0:
        gens.append(draw(perms))
    g = explicit_graph(n, sorted(edges))
    side = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    o = draw(st.integers(0, n - 1))
    pair = make_pair(g, [v for v in range(n) if side[v] == 1 or v == o],
                     [v for v in range(n) if side[v] == 2 and v != o], o)
    return g, gens, pair


@st.composite
def split_cases(draw):
    """A graph, generators and a vertex-set pair that every generator
    preserves or swaps, one at least swapping.

    v_plus is 0..m-1 and v_minus m..2m-1, up to two more points lie
    outside both, and each generator permutes the three blocks on their
    own or exchanges the two sets, so the set-preserving subgroup need not
    act transitively and the lemmas can fail.  The graph is complete, so
    every generator is an automorphism.
    """
    m = draw(st.integers(1, 3))
    rest = draw(st.integers(0, 2))
    n = 2 * m + rest

    def block(lo, size):
        return [lo + x for x in draw(st.permutations(range(size)))]

    gens = []
    for swaps in [True] + draw(st.lists(st.booleans(), max_size=3)):
        plus, minus = block(0, m), block(m, m)
        gens.append(tuple((minus + plus) if swaps else (plus + minus))
                    + tuple(block(2 * m, rest)))
    g = complete_graph(n)
    o = draw(st.integers(0, m - 1))
    return g, draw(st.permutations(gens)), make_pair(
        g, range(m), range(m, 2 * m), o)


def perm_from_label_map(g, fn):
    """The permutation that sends the vertex labeled ``lab`` to the vertex
    labeled ``fn(lab)``; the images must hit every vertex once."""
    index = {lab: v for v, lab in enumerate(g.labels)}
    try:
        image = [index[tuple(fn(lab))] for lab in g.labels]
    except KeyError as exc:
        raise GroupError("label map leaves the vertex set: no vertex "
                         f"labeled {exc.args[0]}") from None
    return _check_perm(image, g.n_vertices)


def _axis_size(g, axis):
    sizes = {lab[axis] for lab in g.labels}
    if sizes != set(range(len(sizes))):
        raise GroupError(f"axis {axis} coordinates are not dense 0..k-1")
    return len(sizes)


def _replace(lab, axis, value):
    """``lab`` with coordinate ``axis`` (from the end if negative) set."""
    out = list(lab)
    out[axis] = value
    return tuple(out)


def layer_swap(g):
    """Exchange the two layers of a product with a binary last coordinate."""
    axis = len(g.labels[0]) - 1
    if _axis_size(g, axis) != 2:
        raise GroupError("layer swap needs a binary last coordinate")
    return perm_from_label_map(
        g, lambda lab: _replace(lab, axis, 1 - lab[axis]))


def axis_rotation(g, axis, step=1):
    """Rotate one cyclic coordinate by ``step`` (mod the axis size)."""
    size = _axis_size(g, axis)
    return perm_from_label_map(
        g, lambda lab: _replace(lab, axis, (lab[axis] + step) % size))


def axis_reflection(g, axis, center2=0):
    """Reflect one coordinate through center2 / 2: i -> (center2 - i) mod
    size."""
    size = _axis_size(g, axis)
    return perm_from_label_map(
        g, lambda lab: _replace(lab, axis, (center2 - lab[axis]) % size))


def swap_axes(g, a, b):
    """Transpose two coordinates (requires equal axis sizes)."""
    if _axis_size(g, a) != _axis_size(g, b):
        raise GroupError(f"axes {a} and {b} have different sizes")

    def fn(lab):
        out = list(lab)
        out[a], out[b] = out[b], out[a]
        return tuple(out)

    return perm_from_label_map(g, fn)


def coord_permutation(g, sigma):
    """Permute all coordinates at once: new[i] = old[sigma[i]]."""
    width = len(g.labels[0])
    sigma = _check_perm(sigma, width)
    return perm_from_label_map(
        g, lambda lab: tuple(lab[sigma[i]] for i in range(width)))


def lift_first_factor(base_perm, n_second):
    """Lift a base-factor permutation to a row-major product with a second
    factor of ``n_second`` vertices."""
    n1 = len(base_perm)
    image = [0] * (n1 * n_second)
    for i1 in range(n1):
        for i2 in range(n_second):
            image[i1 * n_second + i2] = base_perm[i1] * n_second + i2
    return tuple(image)


def _label_axis(g, spec, key):
    """``spec[key]`` as an axis of g's labels, refused past either end."""
    axis, width = int(spec[key]), len(g.labels[0])
    if not -width <= axis < width:
        raise GeneratorSpecError(f"{spec['name']} axis {axis} is outside "
                                 f"the {width} label axes")
    return axis


def label_map_generator(g, spec):
    """The reference resolver of ``groups.build_generator``: each named
    spec by its label map; a ``base_perm`` lifted over the trailing axes
    (one at least) that its factor leaves, and the lift checked as a
    permutation of the whole graph."""
    if isinstance(spec, (list, tuple)):
        return _check_perm(spec, g.n_vertices)
    name = spec.get("name")
    if name is None and "perm" in spec:
        return _check_perm(spec["perm"], g.n_vertices)
    if name == "compose":
        parts = [label_map_generator(g, part) for part in spec["of"]]
        if not parts:
            raise GroupError("compose needs at least one part")
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = compose(part, out)
        return out
    if name == "layer_swap":
        return layer_swap(g)
    if name == "axis_rotation":
        return axis_rotation(g, _label_axis(g, spec, "axis"),
                             int(spec.get("step", 1)))
    if name == "axis_reflection":
        return axis_reflection(g, _label_axis(g, spec, "axis"),
                               int(spec.get("center2", 0)))
    if name == "swap_axes":
        return swap_axes(g, _label_axis(g, spec, "a"),
                         _label_axis(g, spec, "b"))
    if name == "coord_permutation":
        return coord_permutation(g, spec["sigma"])
    if name == "base_perm":
        base = spec["perm"]
        axis = len(g.labels[0]) - 1
        n_rest = _axis_size(g, axis)
        while len(base) * n_rest < g.n_vertices and axis > 0:
            axis -= 1
            n_rest *= _axis_size(g, axis)
        if len(base) * n_rest != g.n_vertices:
            raise GroupError("base_perm length does not match the product")
        return _check_perm(lift_first_factor([int(x) for x in base], n_rest),
                           g.n_vertices)
    raise GeneratorSpecError(f"unknown generator name {name!r}")


_FACTORS = ([{"builder": "path", "n": n} for n in range(1, 5)]
            + [{"builder": "cycle", "n": n} for n in (3, 4, 5)]
            + [{"builder": "complete", "n": n} for n in range(1, 5)]
            + [{"builder": "torus", "n": 3, "m": 4},
               {"builder": "torus", "n": 4, "m": 3}]
            + [{"builder": "hypercube", "d": d} for d in (1, 2, 3)]
            + [{"builder": "explicit", "vertices": 4,
                "edges": [[0, 1], [1, 2], [0, 2], [2, 3]]}])


@st.composite
def product_graphs(draw, max_vertices=64):
    """Row-major products of up to three drawn factors, each on either
    side, of at most ``max_vertices`` vertices: with the path of 2 as a
    factor a product is a bunkbed, with a cycle a cylinder, and a torus is
    itself a product."""
    g = build_graph(draw(st.sampled_from(_FACTORS)))
    for _ in range(draw(st.integers(0, 2))):
        h = build_graph(draw(st.sampled_from(_FACTORS)))
        if g.n_vertices * h.n_vertices <= max_vertices:
            g = cartesian_product(*((g, h) if draw(st.booleans()) else (h, g)))
    return g


@st.composite
def generator_specs(draw, g, depth=1):
    """A named generator spec for ``g``, or a ``compose`` of up to three:
    axes from one past either end, shifts of either sign, coordinate
    permutations that pair axes of other sizes, and ``base_perm`` arrays
    of any leading block (or none), permutations or not."""
    width = len(g.labels[0])
    axis = st.integers(-width - 1, width)
    shift = st.integers(-3, 6)
    names = ["layer_swap", "axis_rotation", "axis_reflection", "swap_axes",
             "coord_permutation", "base_perm"] + ["compose"] * (depth > 0)
    name = draw(st.sampled_from(names))
    if name == "compose":
        return {"name": name, "of": draw(st.lists(
            generator_specs(g, depth - 1), min_size=1, max_size=3))}
    if name == "axis_rotation":
        return {"name": name, "axis": draw(axis), "step": draw(shift)}
    if name == "axis_reflection":
        return {"name": name, "axis": draw(axis), "center2": draw(shift)}
    if name == "swap_axes":
        return {"name": name, "a": draw(axis), "b": draw(axis)}
    if name == "coord_permutation":
        return {"name": name, "sigma": draw(st.permutations(range(width)))}
    if name == "base_perm":
        sizes = [x + 1 for x in g.labels[-1]]
        blocks = [prod(sizes[:k]) for k in range(width + 1)]
        size = draw(st.sampled_from(blocks) | st.integers(0, 7))
        perm = draw(st.permutations(range(size))
                    | st.lists(st.integers(-1, size), min_size=size,
                               max_size=size))
        return {"name": name, "perm": list(perm)}
    return {"name": name}


def base_generator_perms(base_spec, base):
    """Vertex-transitive generator sets for the named builders, as
    permutations of ``base``, the graph of ``base_spec``; the best available
    for the bases that are not vertex-transitive."""
    builder = base_spec.get("builder")
    n = base.n_vertices
    if builder == "path":
        if n == 1:
            return []
        if n == 2:
            return [(1, 0)]
        return [tuple(n - 1 - i for i in range(n))]
    if builder == "cycle":
        return [
            tuple((i + 1) % n for i in range(n)),
            tuple((n - i) % n for i in range(n)),
        ]
    if builder == "complete":
        if n == 1:
            return []
        swap01 = tuple([1, 0] + list(range(2, n)))
        cyc = tuple((i + 1) % n for i in range(n))
        return [swap01, cyc]
    if builder == "hypercube":
        d = int(base_spec["d"])
        gens = [axis_reflection(base, axis=i, center2=1) for i in range(d)]
        gens += [swap_axes(base, i, i + 1) for i in range(d - 1)]
        return gens
    if builder == "torus":
        gens = [
            axis_rotation(base, 0), axis_rotation(base, 1),
            axis_reflection(base, 0), axis_reflection(base, 1),
        ]
        if int(base_spec["n"]) == int(base_spec["m"]):
            gens.append(swap_axes(base, 0, 1))
        return gens
    if builder == "bunkbed":
        inner = build_graph(base_spec["base"])
        lifted = [lift_first_factor(p, 2)
                  for p in base_generator_perms(base_spec["base"], inner)]
        return lifted + [layer_swap(base)]
    if builder == "cylinder":
        inner = build_graph(base_spec["base"])
        m = int(base_spec["m"])
        lifted = [lift_first_factor(p, m)
                  for p in base_generator_perms(base_spec["base"], inner)]
        axis = len(base.labels[0]) - 1
        return lifted + [axis_rotation(base, axis),
                         axis_reflection(base, axis)]
    return []


def hypercube_relation_perms(g, k, l, construction):
    """The generators of the d-cube ``g``'s instance pair at (k, l): the
    flips of the first k + l coordinates for ``double_sum``; for the two
    block constructions, the flips of the first k and the flip of the whole
    block of coordinates k..k+l-1 as one label map."""
    if construction == "double_sum":
        return [axis_reflection(g, axis=i, center2=1) for i in range(k + l)]

    def block_flip(lab):
        return tuple(1 - c if k <= i < k + l else c for i, c in enumerate(lab))

    gens = [axis_reflection(g, axis=i, center2=1) for i in range(k)]
    gens.append(perm_from_label_map(g, block_flip))
    return gens
