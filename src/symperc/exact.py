"""Exact law of the origin's cluster, summed over the cluster itself.

Every observable here is a function of the origin's cluster S: a pair's
outcome (a, b) = (|S ∩ v_plus|, |S ∩ v_minus|) and each target's
connection event.  So the engine never visits the 2^units configurations;
it visits the connected sets S ∋ o and counts, for each, the
configurations whose origin cluster is S, by the number k of open units:

* bond: C_S(x)·(1+x)^F, where C_S counts the connected spanning subgraphs
  of G[S] by edge number and F is the number of edges with no endpoint in
  S (the cut is closed).  C_S follows from splitting every edge set of
  G[S] by the origin's component U:
  C_S = (1+x)^e(S) − Σ C_U·(1+x)^e(S∖U) over connected U, o ∈ U ⊊ S;
* site: x^|S|·(1+x)^(n−|S|−|∂S|), plus (1+x)^(n−1) for a closed origin;
* random cluster: y·C_S(x)·Z_{V∖S}(x, y), with y counting partition
  cells and Z_T the edge sets of G[T] by open edges and cells,
  Z_T = Σ y·C_U·Z_{T∖U} over connected U ∋ min T inside T (the
  vertex-exponential random-cluster evaluation of Björklund, Husfeldt,
  Kaski and Koivisto).

Two rules keep sparse graphs from costing more than a brute-force sweep: a
vertex v ≠ o with one neighbour in S forces its edge open, so
C_S = x·C_{S∖v}, and sub-clusters are enumerated as connected sets, never
as all subsets.  Each S adds its polynomial to the row of its packed
intersection sizes.  One run per (graph, origin, law) keeps these rows;
each pair and target sums them per projected key and unpacks every key
once.  Unpacked, they equal the brute-force sweep's counts, the tests' oracle.

The counts are evaluated at as many parameters as needed, in integers over
one common denominator.  At p = n/d a configuration with k of its units
open has probability n^k·(d−n)^(units−k) / d^units, so each outcome's
probability is one integer dot product over d^units; under the random-
cluster law, q = qn/qd enters as qn^c·qd^(top−c), and the weights are
integers over their own sum.  The checks bring a pmf to its least common
denominator once, and then make one integer pass: suffix sums over t for
the tail margins, a difference array over t for the ``ind_ge_t``
residuals.  A Fraction is built only for each value handed back; the tests
keep the term-by-term Fraction sums as their oracle.

:func:`enumerate_joint` is the only way to these counts.  A pair's law is
``eval_joint(sweep.joint(pair), p)``; a connection probability is
``eval_counts(sweep.connection(v), sweep.units, p)`` for a sweep that
observes the target, ``enumerate_joint(g, Observables(o, targets=(v,)))``.

Polynomials are Python integers with one coefficient per field of
units+2 bits (Kronecker substitution).  No coefficient exceeds 2^units, so
products, sums and the subtraction above never carry across fields.
numpy is deliberately not used: importing it roughly doubles a bare
interpreter's resident memory and costs more start-up time than a small
exact run takes, and its fixed-width integers would need overflow guards
that big integers do not.

Units follow the canonical order: edge k for the bond and random-cluster
laws, vertex k for the site law.  Everything in this module is exact:
counts are Python integers, probabilities are Fractions, and identity
checks mean exact zero.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import mul

from .graphs import Graph
from .groups import VertexSetPair
from .rationals import format_fraction, parse_fraction

DEFAULT_CAP_BITS = 26

Pmf = dict[tuple[int, int], Fraction]


class CapExceeded(RuntimeError):
    """The configuration space is larger than the enumeration cap."""

    def __init__(self, units: int, cap_bits: int):
        super().__init__(
            f"enumeration needs 2^{units} configurations, cap is 2^{cap_bits}"
        )
        self.required_bits = units

    @property
    def required_configs(self) -> int:
        return 1 << self.required_bits


def check_cap(units: int, cap_bits: int) -> None:
    """Refuse a run over ``units`` binary units beyond the cap; callers that
    know the unit count up front check before they build anything."""
    if units > cap_bits:
        raise CapExceeded(units, cap_bits)


# ---------------------------------------------------------------------------
# partition laws


@dataclass(frozen=True)
class PartitionLaw:
    """How a configuration is drawn and partitioned into clusters.

    * bond: edges open independently; clusters are components of the open
      subgraph.
    * site: vertices open independently; open vertices are partitioned by
      connectivity, closed vertices are singleton cells (so the origin's
      cluster is just the origin whenever it is closed).
    * random_cluster: edge configurations weighted by
      p^open (1-p)^closed q^(number of components, isolated vertices
      included), normalized over all configurations.
    """

    kind: str
    q: Fraction | None = None

    def __post_init__(self):
        if self.kind not in ("bond", "site", "random_cluster"):
            raise ValueError(f"unknown law kind {self.kind!r}")
        if self.kind == "random_cluster":
            if self.q is None or self.q <= 0:
                raise ValueError("random_cluster law needs q > 0")
        elif self.q is not None:
            raise ValueError(f"{self.kind} law takes no q")

    def units(self, g: Graph) -> int:
        """The binary units of a configuration: vertices or edges."""
        return g.n_vertices if self.kind == "site" else g.n_edges

    def to_json_dict(self) -> dict:
        if self.kind == "random_cluster":
            return {"kind": self.kind, "q": format_fraction(self.q)}
        return {"kind": self.kind}


BOND = PartitionLaw("bond")
SITE = PartitionLaw("site")


def random_cluster_law(q) -> PartitionLaw:
    return PartitionLaw("random_cluster", parse_fraction(q))


def parse_law(spec) -> PartitionLaw:
    """Parse "bond" | "site" | {"kind": "random_cluster", "q": "2"}."""
    if isinstance(spec, PartitionLaw):
        return spec
    if isinstance(spec, str):
        if spec == "bond":
            return BOND
        if spec == "site":
            return SITE
        if spec.startswith("rc:"):
            return random_cluster_law(spec[3:])
        raise ValueError(f"unknown law {spec!r}")
    if isinstance(spec, Mapping):
        kind = spec.get("kind")
        if kind == "random_cluster":
            return random_cluster_law(spec["q"])
        return parse_law(kind)
    raise ValueError(f"bad law spec: {spec!r}")


# ---------------------------------------------------------------------------
# the joint outcome polynomial


@dataclass(frozen=True)
class JointOutcomePolynomial:
    """Exact counts of configurations by outcome and open-unit number.

    ``counts[(a, b)]`` is the vector (n_0, ..., n_units) with n_k the number
    of configurations having k open units and outcome (a, b).  For the
    random-cluster law ``component_counts[(a, b)]`` additionally resolves
    each n_k by the number of partition cells, which is what the q-weighting
    needs at evaluation time.
    """

    units: int
    n_plus: int
    n_minus: int
    law: PartitionLaw
    counts: dict[tuple[int, int], tuple[int, ...]]
    component_counts: dict[tuple[int, int], dict[tuple[int, int], int]] | None = None

    def total_configs(self) -> int:
        return 1 << self.units

    def to_json_dict(self) -> dict:
        out = {
            "edges": self.units,
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "law": self.law.to_json_dict(),
            "outcomes": [
                {"a": a, "b": b, "counts": list(vec)}
                for (a, b), vec in sorted(self.counts.items())
            ],
        }
        if self.component_counts is not None:
            out["component_counts"] = [
                {"a": a, "b": b, "k": k, "components": c, "count": cnt}
                for (a, b), sub in sorted(self.component_counts.items())
                for (k, c), cnt in sorted(sub.items())
            ]
        return out


# ---------------------------------------------------------------------------
# the one exact run: cluster intersection sizes with every observed set


@dataclass(frozen=True)
class Observables:
    """The vertex sets one exact run (or one Monte Carlo pass, see
    :func:`symperc.mc.estimate_joint`) observes of the origin's cluster.

    Each pair contributes its two sets and each connection target a
    singleton; sets shared by several pairs are observed once.
    """

    origin: int
    pairs: tuple[VertexSetPair, ...] = ()
    targets: tuple[int, ...] = ()

    def __post_init__(self):
        if any(pair.origin != self.origin for pair in self.pairs):
            raise ValueError("every observed pair must share the origin")

    def masks(self) -> tuple[int, ...]:
        sets = [_vertex_mask(side) for pair in self.pairs
                for side in (pair.v_plus, pair.v_minus)]
        sets += [1 << v for v in self.targets]
        return tuple(dict.fromkeys(sets))


@dataclass(frozen=True)
class ClusterSweep:
    """Exact counts of configurations by the origin cluster's intersection
    sizes with each observed set and by open-unit number.

    ``rows[sizes]`` packs the counts of the clusters C with |C ∩ masks[i]|
    in the ``width``-bit field i of ``sizes``: k open units (and c random-
    cluster cells) at field k + (units+1)·c of units+2 bits.  Every pair's
    joint polynomial and every target's connection counts are marginals.
    """

    units: int
    law: PartitionLaw
    origin: int
    masks: tuple[int, ...]
    width: int
    rows: dict[int, int]

    def total_configs(self) -> int:
        return 1 << self.units

    @property
    def counts(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Count vectors by open-unit number, keyed by all the sizes."""
        return self._marginal(range(len(self.masks)))[0]

    def _marginal(self, fields):
        """Count vectors, and random-cluster (k, cells) counts, keyed by the
        sizes in the given fields."""
        field, units = (1 << self.width) - 1, self.units
        keep = sum(field << (i * self.width) for i in fields)
        summed: dict[int, int] = {}
        for sizes, poly in self.rows.items():
            summed[sizes & keep] = summed.get(sizes & keep, 0) + poly
        counts, components = {}, {}
        for sizes, poly in summed.items():
            key = tuple(sizes >> (i * self.width) & field for i in fields)
            vec, sub, index = [0] * (units + 1), {}, 0
            while poly:
                if cnt := poly & ((1 << units + 2) - 1):
                    cells, k = divmod(index, units + 1)
                    vec[k] += cnt
                    sub[(k, cells)] = cnt
                poly >>= units + 2
                index += 1
            counts[key], components[key] = tuple(vec), sub
        return (dict(sorted(counts.items())),
                components if self.law.kind == "random_cluster" else None)

    def joint(self, pair: VertexSetPair) -> JointOutcomePolynomial:
        """The outcome polynomial of an observed pair."""
        i = self.masks.index(_vertex_mask(pair.v_plus))
        j = self.masks.index(_vertex_mask(pair.v_minus))
        counts, components = self._marginal((i, j))
        return JointOutcomePolynomial(
            units=self.units,
            n_plus=len(pair.v_plus),
            n_minus=len(pair.v_minus),
            law=self.law,
            counts=counts,
            component_counts=components,
        )

    def connection(self, v: int) -> tuple[int, ...]:
        """Counts, by open-unit number, of the configurations whose origin
        cluster contains the observed target v."""
        counts, _ = self._marginal((self.masks.index(1 << v),))
        return counts.get((1,), (0,) * (self.units + 1))


def _vertex_mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _connected_sets(nbr, root: int, allowed: int) -> list[int]:
    """Every S with root ∈ S ⊆ allowed that induces a connected subgraph.

    Branches on the lowest frontier vertex, which either joins S or leaves
    ``allowed`` for the rest of that branch, so each set is found once.
    """
    found = []
    stack = [(1 << root, nbr[root] & allowed, allowed)]
    while stack:
        s, frontier, allowed = stack.pop()
        if not frontier:
            found.append(s)
            continue
        low = frontier & -frontier
        stack.append((s, frontier ^ low, allowed ^ low))
        s |= low
        stack.append((s, (frontier | nbr[low.bit_length() - 1]) & allowed & ~s,
                      allowed))
    return found


def _component(nbr, start: int, within: int) -> int:
    """The component of G[within] holding the vertex bit ``start``."""
    comp = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = nbr[low.bit_length() - 1] & within & ~comp
        comp |= new
        frontier |= new
    return comp


def _spanning_polys(nbr, root: int, allowed: int, bits: int,
                    powers: list[int], census: list[int]
                    ) -> tuple[dict[int, int], dict[int, tuple[int, int]]]:
    """For every connected S with root ∈ S ⊆ allowed: C_S(x), packed, which
    counts the connected spanning subgraphs of G[S] by edge number; and
    e(S) with the sum of ``census[v]`` over S.

    Splitting the edge sets of G[S] by the root's component U gives
    (1+x)^e(S) = Σ C_U (1+x)^e(S∖U) over the connected U ∋ root inside S,
    so C_S is (1+x)^e(S) less the terms with U ⊊ S.  A vertex v ≠ root
    with one neighbour in S short-cuts this: its edge must be open, so
    C_S = x C_{S∖v}.
    """
    polys: dict[int, int] = {}
    extent: dict[int, tuple[int, int]] = {}
    rbit = 1 << root
    for s in sorted(_connected_sets(nbr, root, allowed), key=int.bit_count):
        degrees = total = 0
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            d = (nbr[v] & s).bit_count()
            if d == 1 and low != rbit:
                polys[s] = polys[s ^ low] << bits
                inner, rest_total = extent[s ^ low]
                extent[s] = (inner + 1, rest_total + census[v])
                break
            degrees += d
            total += census[v]
        else:
            inner = degrees >> 1
            poly = powers[inner]
            # t counts the edges of G[S] with an endpoint in U
            start = nbr[root] & s
            stack = [(rbit, start, s, start.bit_count())]
            while stack:
                u, frontier, allow, t = stack.pop()
                if frontier:
                    low = frontier & -frontier
                    stack.append((u, frontier ^ low, allow ^ low, t))
                    nv = nbr[low.bit_length() - 1]
                    t += (nv & s & ~u).bit_count()
                    u |= low
                    stack.append((u, (frontier | nv) & allow & ~u, allow, t))
                elif u != s:
                    poly -= polys[u] * powers[inner - t]
            polys[s] = poly
            extent[s] = (inner, total)
    return polys, extent


def _origin_cluster_rows(g: Graph, law: PartitionLaw, origin: int,
                         weights: list[int], bits: int) -> dict[int, int]:
    """Packed count polynomials of the configurations, summed by the packed
    intersection sizes of the origin's cluster S.

    A coefficient sits in a field of ``bits`` bits at index k (open units),
    plus (units+1)·c under the random-cluster law (c partition cells).  No
    count exceeds 2^units < 2^bits, so sums, products and the subtractions
    of :func:`_spanning_polys` never carry across fields.
    """
    n, m = g.n_vertices, g.n_edges
    nbr = [_vertex_mask(nb) for nb in g.adjacency]
    everything = (1 << n) - 1
    powers = [1]  # (1 + x)^e
    for _ in range(n if law.kind == "site" else m):
        powers.append(powers[-1] + (powers[-1] << bits))
    rows: dict[int, int] = {}

    def add(sizes: int, poly: int) -> None:
        rows[sizes] = rows.get(sizes, 0) + poly

    if law.kind == "site":
        # S open, its outer boundary closed, every other vertex free; a
        # closed origin is a singleton cell whatever the others do
        add(weights[origin], powers[n - 1])
        for s in _connected_sets(nbr, origin, everything):
            sizes = around = 0
            rest = s
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                sizes += weights[v]
                around |= nbr[v]
            size = s.bit_count()
            free = n - size - (around & ~s).bit_count()
            add(sizes, powers[free] << (bits * size))
        return rows

    # the census of S packs its sizes and, above them, its degree sum
    shift = sum(weights).bit_length()
    sizes_field = (1 << shift) - 1
    census = [w + (len(nb) << shift) for w, nb in zip(weights, g.adjacency)]
    if law.kind == "bond":
        polys, extent = _spanning_polys(nbr, origin, everything, bits, powers,
                                        census)
    else:
        polys, extent = {}, {}
        for r in range(n):  # every connected set, rooted at its lowest vertex
            rooted = _spanning_polys(nbr, r, everything >> r << r, bits,
                                     powers, census)
            polys.update(rooted[0])
            extent.update(rooted[1])
        ystride = bits * (m + 1)
        memo: dict[int, int] = {}

        def partition_poly(t: int) -> int:
            """Z_T(x, y): the edge sets of G[T] by open edges and cells,
            the product over the components of G[T]."""
            z = 1
            while t:
                low = t & -t
                if nbr[low.bit_length() - 1] & t:
                    comp = _component(nbr, low, t)
                    z *= connected_partition_poly(comp)
                else:  # an isolated vertex: one cell, a factor y
                    comp = low
                    z <<= ystride
                t ^= comp
            return z

        def connected_partition_poly(t: int) -> int:
            """Z_T for a connected T, split by the cell U of T's lowest
            vertex; memoized, so it is kept for connected sets only."""
            z = memo.get(t)
            if z is None:
                z = 0
                for u in _connected_sets(nbr, (t & -t).bit_length() - 1, t):
                    z += polys[u] * partition_poly(t ^ u)
                z = memo[t] = z << ystride
            return z

    obit = 1 << origin
    for s, (inner, total) in extent.items():
        if not s & obit:
            continue
        poly = polys[s]
        sizes = total & sizes_field
        if law.kind == "bond":
            # the cut is closed; the F edges away from S are free
            touching = (total >> shift) - inner
            add(sizes, poly * powers[m - touching])
        else:
            # S is one cell; the rest of the graph splits as it likes
            add(sizes, (poly * partition_poly(everything ^ s)) << ystride)
    return rows


def enumerate_joint(
    g: Graph,
    pair: VertexSetPair | Observables,
    law: PartitionLaw = BOND,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> JointOutcomePolynomial | ClusterSweep:
    """Count all configurations exactly by the origin's cluster.

    Independent of p: the counts are kept by the number of open units, so
    one run serves every parameter value.  Given a pair, returns its
    :class:`JointOutcomePolynomial`; given :class:`Observables`, returns the
    :class:`ClusterSweep` that every observed pair and target projects from.
    """
    observed = pair if isinstance(pair, Observables) else Observables(
        pair.origin, (pair,))
    units = law.units(g)
    check_cap(units, cap_bits)

    masks = observed.masks()
    width = g.n_vertices.bit_length()  # a field holds any size 0..n
    weights = [sum(1 << (i * width) for i, m in enumerate(masks) if m >> v & 1)
               for v in range(g.n_vertices)]
    rows = _origin_cluster_rows(g, law, observed.origin, weights, units + 2)
    sweep = ClusterSweep(units=units, law=law, origin=observed.origin,
                         masks=masks, width=width, rows=rows)
    _check_count_conservation(sweep)
    return sweep if observed is pair else sweep.joint(pair)


def _check_count_conservation(sweep: ClusterSweep) -> None:
    # Every configuration lands in exactly one row: the rows add up to
    # (1+x)^units once the cells fold: y = 2^(bits·(units+1)) ≡ 1 (mod y − 1).
    units, bits = sweep.units, sweep.units + 2
    total = sum(sweep.rows.values()) % ((1 << bits * (units + 1)) - 1)
    if total != sum(comb(units, k) << (bits * k) for k in range(units + 1)):
        raise RuntimeError(f"count conservation: rows sum ≠ (1+x)^{units}")
    # The cluster holds the origin, so it meets every set containing it.
    holding = [((1 << sweep.width) - 1) << (i * sweep.width)
               for i, m in enumerate(sweep.masks) if m >> sweep.origin & 1]
    if any(not sizes & field for sizes in sweep.rows for field in holding):
        raise RuntimeError("outcome with empty origin cluster observed")


# ---------------------------------------------------------------------------
# evaluation and the exact checks, in integers over one common denominator


def _unit_weights(p: Fraction, units: int) -> list[int]:
    """n^k·(d−n)^(units−k) for k = 0..units, at p = n/d: the probability
    of one configuration with k open units, times d^units."""
    if not 0 < p < 1:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    n, d = p.numerator, p.denominator
    up, down = [1], [1]
    for _ in range(units):
        up.append(up[-1] * n)
        down.append(down[-1] * (d - n))
    return [u * v for u, v in zip(up, reversed(down))]


def eval_joint(poly: JointOutcomePolynomial, p) -> Pmf:
    """Exact probability of each outcome at parameter p under the
    polynomial's own law (sums to 1)."""
    p = parse_fraction(p)
    weights = _unit_weights(p, poly.units)
    if poly.law.kind == "random_cluster":
        if poly.component_counts is None:
            raise ValueError("polynomial lacks component counts for this law")
        # q^c = qn^c·qd^(top−c) / qd^top: every weight is an integer over
        # d^units·qd^top, and that scale cancels against the total
        qn, qd = poly.law.q.numerator, poly.law.q.denominator
        top = max((c for sub in poly.component_counts.values()
                   for _, c in sub), default=0)
        cells = [qn**c * qd**(top - c) for c in range(top + 1)]
        numerators = {key: sum(cnt * weights[k] * cells[c]
                               for (k, c), cnt in sub.items())
                      for key, sub in poly.component_counts.items()}
        den = sum(numerators.values())
        if not den:
            raise RuntimeError("pmf does not sum to exactly 1")
    else:
        numerators = {key: sum(map(mul, vec, weights))
                      for key, vec in poly.counts.items()}
        den = p.denominator ** poly.units
        if sum(numerators.values()) != den:
            raise RuntimeError("pmf does not sum to exactly 1")
    return {key: Fraction(num, den) for key, num in numerators.items()}


def eval_counts(vec: Sequence[int], units: int, p) -> Fraction:
    """Evaluate a count vector, such as ``ClusterSweep.connection(v)``, as
    an exact probability at p."""
    p = parse_fraction(p)
    if len(vec) > units + 1:
        raise ValueError(f"{len(vec)} counts for {units} units")
    return Fraction(sum(map(mul, vec, _unit_weights(p, units))),
                    p.denominator ** units)


def _integer_pmf(pmf: Pmf) -> tuple[int, list[tuple[int, int, int]]]:
    """The pmf over its least common denominator L: L and every (a, b,
    L·prob)."""
    den = lcm(*(prob.denominator for prob in pmf.values()))
    return den, [(a, b, prob.numerator * (den // prob.denominator))
                 for (a, b), prob in pmf.items()]


def expected_sizes(pmf: Pmf) -> tuple[Fraction, Fraction]:
    """Exact expectations of the two intersection sizes."""
    den, entries = _integer_pmf(pmf)
    return (Fraction(sum(num * a for a, _, num in entries), den),
            Fraction(sum(num * b for _, b, num in entries), den))


@dataclass(frozen=True)
class DominationReport:
    """Exact tail margins P(a >= t) - P(b >= t) for every threshold."""

    margins: tuple[tuple[int, Fraction], ...]
    passes: bool
    trivial_minus: bool  # the support never touches v_minus (empty set)


def check_domination(pmf: Pmf) -> DominationReport:
    """Compare the two tail distributions at every threshold.

    Threshold indicators generate all bounded increasing functions, so
    nonnegative margins at every t are equivalent to stochastic domination.
    A negative margin is reported as-is; nothing is clamped.  The margins
    come from one suffix sum, over t, of the pmf's numerators.
    """
    den, entries = _integer_pmf(pmf)
    max_a = max((a for a, _, _ in entries), default=0)
    max_b = max((b for _, b, _ in entries), default=0)
    t_max = max(max_a, max_b, 1)
    tails = [0] * (t_max + 2)  # tails[t]: L·(P(a >= t) − P(b >= t))
    for a, b, num in entries:
        tails[a] += num
        tails[b] -= num
    for t in range(t_max, 0, -1):
        tails[t] += tails[t + 1]
    return DominationReport(
        margins=tuple((t, Fraction(tails[t], den))
                      for t in range(1, t_max + 1)),
        passes=all(m >= 0 for m in tails[1:t_max + 1]),
        trivial_minus=max_b == 0,
    )


def check_partition_identity(pmf: Pmf) -> dict[str, Fraction]:
    """Residual of the reweighting identity for each test function: the
    threshold indicators ``ind_ge_t`` for t = 1..max(a + b), then
    ``identity`` (n) and ``square`` (n^2).

    Both sides are exact expectations; under the symmetry conditions the
    residual is exactly 0 for every bounded f.  The residual
    E[f(a) − f(b)] − E[(f(a) − f(b))·(a − b)/(a + b)] equals
    E[(f(a) − f(b))·2b/(a + b)], so an outcome with b = 0, which includes
    a + b = 0, adds nothing.  Over M = lcm(a + b) every other outcome adds
    the integer w = L·prob·2b·M/(a + b), and ``ind_ge_t`` picks up +w for
    b < t ≤ a and −w for a < t ≤ b: one difference array over t gives
    every threshold.
    """
    t_max = max((a + b for (a, b) in pmf), default=1)
    den, entries = _integer_pmf(pmf)
    entries = [(a, b, num) for a, b, num in entries if num and b]
    scale = lcm(*(a + b for a, b, _ in entries))
    steps = [0] * (t_max + 2)
    identity = square = 0
    for a, b, num in entries:
        w = num * 2 * b * (scale // (a + b))
        steps[b + 1] += w
        steps[a + 1] -= w
        identity += w * (a - b)
        square += w * (a * a - b * b)
    den *= scale
    residuals: dict[str, Fraction] = {}
    running = 0
    for t in range(1, t_max + 1):
        running += steps[t]
        residuals[f"ind_ge_{t}"] = Fraction(running, den)
    residuals["identity"] = Fraction(identity, den)
    residuals["square"] = Fraction(square, den)
    return residuals


def check_ratio_identity(pmf: Pmf) -> tuple[Fraction, Fraction]:
    """Both sides of the ratio identity: E(b/a) and P(b > 0).

    Outcomes with b = 0 or probability 0 add nothing to either side;
    over M = lcm(a) the rest add integers.
    """
    den, entries = _integer_pmf(pmf)
    entries = [(a, b, num) for a, b, num in entries if num and b]
    scale = lcm(*(a for a, _, _ in entries))
    lhs = sum(num * b * (scale // a) for a, b, num in entries)
    rhs = sum(num for _, _, num in entries)
    return Fraction(lhs, den * scale), Fraction(rhs, den)
