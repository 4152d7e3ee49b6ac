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
  C_S = (1+x)^e(S) − Σ C_U·(1+x)^e(S∖U) over connected U, o ∈ U ⊊ S,
  where the C_U are first summed by e(S∖U), so each distinct edge count
  costs one multiply;
* site: x^|S|·(1+x)^(n−|S|−|∂S|), plus (1+x)^(n−1) for a closed origin.
  One branching pass finds every S; each branch that adds a vertex also
  adds to one small key, which packs S's sizes and |S|, and to the mask of
  S ∪ ∂S, whose size joins the key when S is found.  The pass only counts
  the sets per key; each distinct key then adds its count times its
  polynomial to its row once;
* random cluster: y·C_S(x)·Z_{V∖S}(x, y), with y counting partition
  cells and Z_T the edge sets of G[T] by open edges and cells.  One pass
  over every connected set, taken in order of size, builds C_S, split by
  the component of any fixed vertex of S.  A connected T splits off the
  cell of its lowest vertex, Z_T = Σ y·C_U·Z_{T∖U} over connected
  U ∋ min T inside T (the vertex-exponential random-cluster evaluation of
  Björklund, Husfeldt, Kaski and Koivisto), and any other T is the product
  over its components; one memo keeps Z_T for every T met.

Two rules keep sparse graphs from costing more than a brute-force sweep.
A vertex v with one neighbour in S forces its edge open, so
C_S = x·C_{S∖v}, where S∖v is smaller and already built (under the bond
law v ≠ o, since every set holds the origin); likewise
Z_T = (x+y)·Z_{T∖v}, v's edge open or v a cell of its own, and an isolated
v gives y·Z_{T∖v}.  And sub-clusters are enumerated as connected sets,
never as all subsets: those of o under the bond law, and under the
random-cluster law those of a vertex with the fewest neighbours in S,
which tend to be the fewest.  Each S adds its polynomial to the row of its
packed intersection sizes.  One run per (graph, origin, law) keeps these
rows; each pair and target sums them per projected key and unpacks every
key once.  Unpacked, they equal the brute-force sweep's counts, the tests'
oracle.

The counts are evaluated at as many parameters as needed, in integers over
one common denominator.  At p = n/d a configuration with k of its units
open has probability n^k·(d−n)^(units−k) / d^units, so each outcome's
probability is one integer dot product over d^units; under the random-
cluster law, q = qn/qd enters as qn^c·qd^(top−c), and the weights are
integers over their own sum.  Either way every projection of one sweep
shares its denominator at each p.  :func:`joint_numerators` makes this one
:class:`IntegerPmf` per (projection, p), and each check is one integer pass
over it that returns numerators over one denominator: the expected sizes,
suffix sums over t for the tail margins, a difference array over t for the
``ind_ge_t`` residuals, and both sides of the ratio identity.  Reports
format these numerators as they are (:func:`symperc.rationals.format_ratio`
reduces each with one gcd), so no Fraction is built on the report path.
The tests keep the term-by-term Fraction sums as their oracle.

:func:`enumerate_joint` is the only way to these counts, and
:func:`joint_numerators` the only way from counts to probabilities.  A
pair's law is ``joint_numerators(sweep.joint(pair), p)``; a target's is
``joint_numerators(sweep.connection(v), p)``, whose outcome (1, 0) is the
connection, for a sweep that observes the target,
``enumerate_joint(g, Observables(o, targets=(v,)))``.

Polynomials are Python integers with one coefficient per field of
units+2 bits (Kronecker substitution).  No coefficient exceeds 2^units, so
products, sums and the subtraction above never carry across fields.
numpy is deliberately not used: importing it roughly doubles a bare
interpreter's resident memory and costs more start-up time than a small
exact run takes, and its fixed-width integers would need overflow guards
that big integers do not.

Units follow the canonical order: edge k for the bond and random-cluster
laws, vertex k for the site law.  Everything in this module is exact:
counts are Python integers, probabilities are integer numerators over one
denominator, and identity checks mean exact zero.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from math import comb, lcm
from operator import mul

from .graphs import Graph
from .groups import VertexSetPair
from .rationals import format_fraction, parse_fraction

DEFAULT_CAP_BITS = 26

# The verdicts of a check; only a Monte Carlo interval can be inconclusive.
PASS = "pass"
VIOLATION = "violation"
INCONCLUSIVE = "inconclusive"


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


class PartitionLaw(namedtuple("PartitionLaw", "kind q", defaults=(None,))):
    """How a configuration is drawn and partitioned into clusters.

    * bond: edges open independently; clusters are components of the open
      subgraph.
    * site: vertices open independently; open vertices are partitioned by
      connectivity, closed vertices are singleton cells (so the origin's
      cluster is just the origin whenever it is closed).
    * random_cluster: edge configurations weighted by
      p^open (1-p)^closed q^(number of components, isolated vertices
      included), normalized over all configurations.

    ``kind`` is one of the three names above; ``q`` is the random-cluster
    weight, a Fraction, and None for the other two.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("bond", "site", "random_cluster"):
            raise ValueError(f"unknown law kind {self.kind!r}")
        if self.kind == "random_cluster":
            if self.q is None or self.q <= 0:
                raise ValueError("random_cluster law needs q > 0")
        elif self.q is not None:
            raise ValueError(f"{self.kind} law takes no q")
        return self

    def _replace(self, **changes):
        """A copy with ``changes``, checked as the constructor checks."""
        return type(self)(*super()._replace(**changes))

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


class JointOutcomePolynomial(namedtuple("JointOutcomePolynomial", (
        "units", "n_plus", "n_minus", "law", "counts", "component_counts"),
        defaults=(None,))):
    """Exact counts of configurations by outcome and open-unit number.

    ``counts[(a, b)]`` is the vector (n_0, ..., n_units) with n_k the number
    of configurations having k open units and outcome (a, b).  For the
    random-cluster law ``component_counts[(a, b)]`` additionally resolves
    each n_k by the number of partition cells, which is what the q-weighting
    needs at evaluation time; it is None under the other laws.
    """

    __slots__ = ()

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


class Observables(namedtuple("Observables", "origin pairs targets",
                             defaults=((), ()))):
    """The vertex sets one exact run (or one Monte Carlo pass, see
    :func:`symperc.mc.estimate_joint`) observes of the origin's cluster.

    Each pair contributes its two sets and each connection target a
    singleton; sets shared by several pairs are observed once.  ``pairs``
    is a tuple of :class:`VertexSetPair`, ``targets`` a tuple of vertices.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if any(pair.origin != self.origin for pair in self.pairs):
            raise ValueError("every observed pair must share the origin")
        return self

    def _replace(self, **changes):
        """A copy with ``changes``, checked as the constructor checks."""
        return type(self)(*super()._replace(**changes))

    def masks(self) -> tuple[int, ...]:
        sets = [_vertex_mask(side) for pair in self.pairs
                for side in (pair.v_plus, pair.v_minus)]
        sets += [1 << v for v in self.targets]
        return tuple(dict.fromkeys(sets))


class ClusterSweep(namedtuple("ClusterSweep",
                              "units law origin masks width rows")):
    """Exact counts of configurations by the origin cluster's intersection
    sizes with each observed set and by open-unit number.

    ``rows[sizes]`` packs the counts of the clusters C with |C ∩ masks[i]|
    in the ``width``-bit field i of ``sizes``: k open units (and c random-
    cluster cells) at field k + (units+1)·c of units+2 bits.  Every pair's
    joint polynomial and every target's connection law are marginals.
    """

    __slots__ = ()

    def total_configs(self) -> int:
        return 1 << self.units

    @property
    def counts(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Count vectors by open-unit number, keyed by all the sizes."""
        return self._marginal(range(len(self.masks)))[0]

    def _marginal(self, fields):
        """Count vectors, and random-cluster (k, cells) counts, keyed by the
        sizes in the given fields."""
        width, units = self.width, self.units
        field = (1 << width) - 1
        keep = sum(field << (i * width) for i in fields)
        summed: dict[int, int] = {}
        for sizes, poly in self.rows.items():
            summed[sizes & keep] = summed.get(sizes & keep, 0) + poly
        counts, components = {}, {}
        for sizes, poly in summed.items():
            key = tuple(sizes >> (i * width) & field for i in fields)
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
        return self._pair(self.masks.index(_vertex_mask(pair.v_plus)),
                          self.masks.index(_vertex_mask(pair.v_minus)),
                          len(pair.v_plus), len(pair.v_minus))

    def connection(self, v: int) -> JointOutcomePolynomial:
        """The outcome polynomial of the pair ({v}, ∅) for an observed
        target v: outcome (1, 0) when the origin's cluster holds v, (0, 0)
        when not.  Field ``len(masks)`` lies past every row's sizes, so it
        reads the empty set's 0."""
        return self._pair(self.masks.index(1 << v), len(self.masks), 1, 0)

    def _pair(self, i: int, j: int, n_plus: int, n_minus: int
              ) -> JointOutcomePolynomial:
        """The outcome polynomial of fields i and j, sets of the given sizes."""
        return JointOutcomePolynomial(self.units, n_plus, n_minus, self.law,
                                      *self._marginal((i, j)))


def _vertex_mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _connected_sets(nbr, root: int, allowed: int) -> list[int]:
    """Every S with root ∈ S ⊆ allowed that induces a connected subgraph.

    Branches on the lowest frontier vertex, which either joins S or leaves
    ``allow``, the vertices still free to join, for the rest of that
    branch, so each set is found once.  The include branch is followed in
    place; the exclude branch is pushed, or, with no frontier vertex left,
    is a leaf at once.  :func:`_spanning_polys` and the site pass of
    :func:`_origin_cluster_rows` walk their sets the same way.
    """
    found = []
    rbit = 1 << root
    stack = [(rbit, nbr[root] & allowed, allowed & ~rbit)]
    pop, push = stack.pop, stack.append
    while stack:
        s, frontier, allow = pop()
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            allow ^= low
            if frontier:
                push((s, frontier, allow))
            else:  # the exclude branch is a leaf: S as it stands
                found.append(s)
            s |= low
            frontier = (frontier | nbr[low.bit_length() - 1]) & allow
        found.append(s)
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


def _spanning_polys(nbr, sets: Iterable[int], root: int | None, bits: int,
                    powers: list[int], census: list[int]
                    ) -> tuple[dict[int, int], dict[int, tuple[int, int]]]:
    """For every S of ``sets``, taken in order of size: C_S(x), packed,
    which counts the connected spanning subgraphs of G[S] by edge number;
    and e(S) with the sum of ``census[v]`` over S.  ``sets`` holds every
    connected set that holds ``root``, or every connected set when the root
    is None.

    A vertex v ≠ root with one neighbour in S must have its edge open, so
    C_S = x C_{S∖v}, and S∖v is a smaller one of ``sets``.  Any other S
    splits its edge sets by the component U of one fixed vertex v ∈ S:
    (1+x)^e(S) = Σ C_U (1+x)^e(S∖U) over the connected U ∋ v inside S, so
    C_S is (1+x)^e(S) less the terms with U ⊊ S.  v is the root when there
    is one, as every U must be one of ``sets``; else it is the lowest of the
    vertices with the fewest neighbours in S, whose sub-clusters tend to be
    the fewest to walk.
    """
    polys: dict[int, int] = {}
    extent: dict[int, tuple[int, int]] = {}
    rbit = 0 if root is None else 1 << root
    for s in sorted(sets, key=int.bit_count):
        degrees = total = 0
        fewest = len(nbr)
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
            if d < fewest:
                fewest, vbit = d, low
        else:
            inner = degrees >> 1
            vbit = rbit or vbit
            # t counts the edges of G[S] with an endpoint in U; the C_U of
            # one t share their factor (1+x)^(e(S)−t), so they are summed
            # first and multiplied once
            acc = [0] * (inner + 1)
            start = nbr[vbit.bit_length() - 1] & s
            stack = [(vbit, start, s ^ vbit, start.bit_count())]
            pop, push = stack.pop, stack.append
            while stack:
                u, frontier, allow, t = pop()
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    allow ^= low
                    if frontier:
                        push((u, frontier, allow, t))
                    else:  # a leaf short of ``low``, so U ⊊ S
                        acc[t] += polys[u]
                    nv = nbr[low.bit_length() - 1] & s
                    t += (nv & ~u).bit_count()
                    u |= low
                    frontier = (frontier | nv) & allow
                if u != s:
                    acc[t] += polys[u]
            poly = powers[inner]
            for t, summed in enumerate(acc):
                if summed:
                    poly -= summed * powers[inner - t]
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
        # Every connected S ∋ o by the branching of _connected_sets, which
        # carries S's tally key as it adds a vertex: S's sizes and, below
        # them, |S|; |S ∪ ∂S| joins the key at the leaf.  Both branches on
        # the lowest frontier vertex take it out of ``avail``, the vertices
        # still free to join S.  The leaves are counted per key, and each
        # distinct key adds its count times x^|S|·(1+x)^(n−|S ∪ ∂S|) once.
        field = n.bit_length()  # |S| and |S ∪ ∂S| are at most n
        ones = (1 << field) - 1
        steps = [(w << 2 * field) + (1 << field) for w in weights]
        obit = 1 << origin
        tally: dict[int, int] = {}
        get = tally.get
        stack = [(nbr[origin], everything ^ obit, steps[origin],
                  obit | nbr[origin])]
        pop, push = stack.pop, stack.append
        while stack:
            frontier, avail, key, around = pop()
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                avail ^= low
                if frontier:
                    push((frontier, avail, key, around))
                else:  # the exclude branch is a leaf: S as it stands
                    leaf = key | around.bit_count()
                    tally[leaf] = get(leaf, 0) + 1
                v = low.bit_length() - 1
                frontier = (frontier | nbr[v]) & avail
                key += steps[v]
                around |= nbr[v]
            key |= around.bit_count()
            tally[key] = get(key, 0) + 1
        for key, count in tally.items():
            add(key >> 2 * field, count * (
                powers[n - (key & ones)] << bits * (key >> field & ones)))
        return rows

    # the census of S packs its sizes and, above them, its degree sum
    shift = sum(weights).bit_length()
    sizes_field = (1 << shift) - 1
    census = [w + (len(nb) << shift) for w, nb in zip(weights, g.adjacency)]
    bond = law.kind == "bond"
    if bond:
        polys, extent = _spanning_polys(
            nbr, _connected_sets(nbr, origin, everything), origin, bits,
            powers, census)
    else:
        # every connected set, found once from its lowest vertex
        polys, extent = _spanning_polys(
            nbr, (s for r in range(n)
                  for s in _connected_sets(nbr, r, everything >> r << r)),
            None, bits, powers, census)
        ystride = bits * (m + 1)
        memo = {0: 1}

        def partition_poly(t: int) -> int:
            """Z_T(x, y): the edge sets of G[T] by open edges and cells;
            memoized for every T.  A vertex v with one neighbour in T gives
            Z_T = (x+y)·Z_{T∖v}, its edge open or v a cell of its own, and
            an isolated one y·Z_{T∖v}.  Otherwise a connected T splits off
            the cell U of its lowest vertex, and any other T is the product
            over its components."""
            z = memo.get(t)
            if z is None:
                rest = t
                while rest:
                    low = rest & -rest
                    rest ^= low
                    d = (nbr[low.bit_length() - 1] & t).bit_count()
                    if d < 2:
                        z = partition_poly(t ^ low)
                        z = (z << ystride) + (z << bits if d else 0)
                        break
                else:
                    low = t & -t
                    comp = _component(nbr, low, t)
                    if comp != t:
                        z = partition_poly(comp) * partition_poly(t ^ comp)
                    else:
                        z = 0
                        for u in _connected_sets(nbr, low.bit_length() - 1,
                                                 t):
                            z += polys[u] * partition_poly(t ^ u)
                        z <<= ystride
                memo[t] = z
            return z

    obit = 1 << origin
    for s, (inner, total) in extent.items():
        if not s & obit:
            continue
        poly = polys[s]
        sizes = total & sizes_field
        if bond:
            # the cut is closed; the F edges away from S are free
            touching = (total >> shift) - inner
            add(sizes, poly * powers[m - touching])
        else:
            # S is one cell; the rest of the graph splits as it likes
            add(sizes, (poly * partition_poly(everything ^ s)) << ystride)
    return rows


def enumerate_joint(
    g: Graph,
    observed: Observables,
    law: PartitionLaw = BOND,
    cap_bits: int = DEFAULT_CAP_BITS,
) -> ClusterSweep:
    """Count all configurations exactly by the origin's cluster.

    Independent of p: the counts are kept by the number of open units, so
    one run serves every parameter value.  Returns the
    :class:`ClusterSweep` that every observed pair and target projects from.
    """
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
    return sweep


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


class IntegerPmf(namedtuple("IntegerPmf", "den nums")):
    """A pmf as integer numerators over one positive denominator:
    P(a, b) = nums[(a, b)] / den.  The denominator need not be the least."""

    __slots__ = ()


def joint_numerators(poly: JointOutcomePolynomial, p) -> IntegerPmf:
    """Each outcome's probability at p under the polynomial's own law, as
    one integer pmf, for a pair or a connection target alike: over
    d^units at p = n/d, and over the sum of the weights under the random-
    cluster law.  Every projection of one sweep gets the same denominator."""
    p = parse_fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    # the probability of one configuration with k open units, times d^units
    n, d, units = p.numerator, p.denominator, poly.units
    weights = [n**k * (d - n)**(units - k) for k in range(units + 1)]
    if poly.law.kind == "random_cluster":
        if poly.component_counts is None:
            raise ValueError("polynomial lacks component counts for this law")
        # q^c = qn^c·qd^(top−c) / qd^top: every weight is an integer over
        # d^units·qd^top, and that scale cancels against the total
        qn, qd = poly.law.q.numerator, poly.law.q.denominator
        top = max((c for sub in poly.component_counts.values()
                   for _, c in sub), default=0)
        cells = [qn**c * qd**(top - c) for c in range(top + 1)]
        nums = {key: sum(cnt * weights[k] * cells[c]
                         for (k, c), cnt in sub.items())
                for key, sub in poly.component_counts.items()}
        den = sum(nums.values())
        if not den:
            raise RuntimeError("pmf does not sum to exactly 1")
    else:
        nums = {key: sum(map(mul, vec, weights))
                for key, vec in poly.counts.items()}
        den = d**units
        if sum(nums.values()) != den:
            raise RuntimeError("pmf does not sum to exactly 1")
    return IntegerPmf(den, nums)


def expected_numerators(pmf: IntegerPmf) -> tuple[int, int]:
    """The expectations of the two intersection sizes, times ``pmf.den``."""
    e_plus = e_minus = 0
    for (a, b), num in pmf.nums.items():
        e_plus += num * a
        e_minus += num * b
    return e_plus, e_minus


def margin_numerators(pmf: IntegerPmf) -> list[int]:
    """The tail margins P(a >= t) − P(b >= t), times ``pmf.den``, for
    t = 1..max(a, b, 1) over the outcomes: one suffix sum over t.

    Threshold indicators generate all bounded increasing functions, so
    nonnegative margins at every t are equivalent to stochastic domination.
    """
    t_max = max([1, *map(max, pmf.nums)])
    tails = [0] * (t_max + 2)
    for (a, b), num in pmf.nums.items():
        tails[a] += num
        tails[b] -= num
    for t in range(t_max, 0, -1):
        tails[t] += tails[t + 1]
    return tails[1:t_max + 1]


def residual_numerators(pmf: IntegerPmf) -> tuple[int, dict[str, int]]:
    """The residual of the reweighting identity for each test function,
    as integers over one denominator, which is returned first: the
    threshold indicators ``ind_ge_t`` for t = 1..max(a + b), then
    ``identity`` (n) and ``square`` (n^2).  Under the symmetry conditions
    every residual is exactly 0.

    The residual E[f(a) − f(b)] − E[(f(a) − f(b))·(a − b)/(a + b)] equals
    E[(f(a) − f(b))·2b/(a + b)], so an outcome with b = 0, which includes
    a + b = 0, adds nothing.  Over M = lcm(a + b) every other outcome adds
    the integer w = num·2b·M/(a + b), and ``ind_ge_t`` picks up +w for
    b < t ≤ a and −w for a < t ≤ b: one difference array over t gives
    every threshold.
    """
    t_max = max((a + b for (a, b) in pmf.nums), default=1)
    entries = [(a, b, num) for (a, b), num in pmf.nums.items() if num and b]
    scale = lcm(*(a + b for a, b, _ in entries))
    steps = [0] * (t_max + 2)
    identity = square = 0
    for a, b, num in entries:
        w = num * 2 * b * (scale // (a + b))
        steps[b + 1] += w
        steps[a + 1] -= w
        identity += w * (a - b)
        square += w * (a * a - b * b)
    residuals: dict[str, int] = {}
    running = 0
    for t in range(1, t_max + 1):
        running += steps[t]
        residuals[f"ind_ge_{t}"] = running
    residuals["identity"] = identity
    residuals["square"] = square
    return pmf.den * scale, residuals


def ratio_numerators(pmf: IntegerPmf) -> tuple[int, int, int]:
    """Both sides of the ratio identity, E(b/a) and P(b > 0), as integers
    over one denominator: (denominator, lhs, rhs).

    Outcomes with b = 0 or probability 0 add nothing to either side;
    over M = lcm(a) the rest add integers.
    """
    entries = [(a, b, num) for (a, b), num in pmf.nums.items() if num and b]
    scale = lcm(*(a for a, _, _ in entries))
    lhs = sum(num * b * (scale // a) for a, b, num in entries)
    rhs = sum(num for _, _, num in entries) * scale
    return pmf.den * scale, lhs, rhs
