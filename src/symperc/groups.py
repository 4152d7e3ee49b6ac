"""Finite permutation groups acting on graph vertices.

A permutation is a plain tuple ``p`` of length n with ``p[i]`` the image of
vertex i.  Composition follows ``(g o h)(x) = g(h(x))``: ``compose(g, h)``
applies h first.

A group is given by its checked generators, whose images and orbits
decide the three symmetry conditions of the cluster-domination pipeline
(set preservation, transitivity on the union, and symmetry of cross
stabilizer-orbit sizes).  Where a report reads the group's order or its
stabilizers, the function that reads them builds a base and strong
generating set by deterministic Schreier–Sims, based at the least point of
each orbit it reads, and never lists the elements.  These chains give swap
transitivity and the counting lemmas behind the conditions
(:func:`lemma_failures`): the orbit product identity, swap symmetry,
stabilizer symmetry across the two sets, and the double-counting identity
on orbits of set pairs.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence

from .graphs import Graph, GraphError, as_vertex_set

Perm = tuple[int, ...]


class GroupError(ValueError):
    """Invalid permutation input or a broken group precondition."""


class GeneratorSpecError(GroupError):
    """A malformed generator spec: an unknown name or not a spec at all."""


class NonAutomorphismElement(GroupError):
    """A group element does not preserve the graph's edge set."""


class NoSwapper(GroupError):
    """No element exchanges the two vertex sets (or one set is empty)."""


# ---------------------------------------------------------------------------
# permutation basics


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(g: Perm, h: Perm) -> Perm:
    """(g o h)(x) = g(h(x)): h is applied first."""
    if len(g) != len(h):
        raise GroupError("cannot compose permutations of different lengths")
    return tuple(g[h[x]] for x in range(len(h)))


def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def _mul(g: Perm, h: Perm) -> Perm:
    """compose(g, h) for permutations of one length, without the check."""
    return tuple(map(g.__getitem__, h))


def _check_perm(p: Sequence[int], n: int) -> Perm:
    """``p`` as ints, if it permutes 0..n-1; else its first fault."""
    p = tuple(map(int, p))
    if len(p) != n:
        raise GroupError(f"not a permutation of 0..{n - 1}: {len(p)} entries")
    if sorted(p) != list(range(n)):  # some entry is repeated or out of range
        seen = set()
        for i, x in enumerate(p):
            if x in seen or not 0 <= x < n:
                raise GroupError(
                    f"not a permutation of 0..{n - 1}: entry {i} is {x}, "
                    + ("repeated" if x in seen else "out of range"))
            seen.add(x)
    return p


def _edge_off(g: Graph, edge_set: set, perm: Perm) -> tuple[int, int] | None:
    """The first edge of ``g`` that ``perm`` maps off ``edge_set``, or None."""
    for u, v in g.edges:
        pu, pv = perm[u], perm[v]
        if (pu, pv) not in edge_set and (pv, pu) not in edge_set:
            return u, v
    return None


def is_automorphism(g: Graph, p: Sequence[int]) -> bool:
    """True iff p maps the edge set onto itself (adjacency both ways)."""
    return _edge_off(g, set(g.edges), _check_perm(p, g.n_vertices)) is None


def perm_from_label_map(g: Graph, fn) -> Perm:
    """Build a permutation from a label-rewriting function.

    ``fn`` maps a coordinate label to a coordinate label; the result must hit
    every vertex exactly once.
    """
    index = g._label_index
    try:
        image = [index[tuple(fn(lab))] for lab in g.labels]
    except KeyError as exc:
        raise GroupError("label map leaves the vertex set: no vertex "
                         f"labeled {exc.args[0]}") from None
    return _check_perm(image, g.n_vertices)


# ---------------------------------------------------------------------------
# stabilizer chain (base and strong generating set)


class _Level:
    """One level of a stabilizer chain.

    ``gens`` are the strong generators that fix every earlier base point.
    ``inverses[x]`` is u_x^-1 for the transversal element u_x, a product of
    ``gens`` with u_x(point) = x; its keys are the basic orbit.  ``done``
    holds the (orbit point, generator index) pairs whose Schreier generator
    is known to lie in the group of the next level.
    """

    __slots__ = ("point", "gens", "gen_inverses", "inverses", "done")

    def __init__(self, point: int, ident: Perm):
        self.point = point
        self.gens: list[Perm] = []
        self.gen_inverses: list[Perm] = []
        self.inverses: dict[int, Perm] = {point: ident}
        self.done: set[tuple[int, int]] = set()

    def add(self, gen: Perm, gen_inv: Perm) -> None:
        """Add a strong generator and grow the basic orbit."""
        self.gens.append(gen)
        self.gen_inverses.append(gen_inv)
        moves = list(enumerate(zip(self.gens, self.gen_inverses)))
        inverses = self.inverses
        frontier = list(inverses)
        while frontier:
            nxt = []
            for x in frontier:
                for k, (s, s_inv) in moves:
                    y = s[x]
                    if y not in inverses:
                        inverses[y] = _mul(inverses[x], s_inv)
                        # u_y = s u_x: the Schreier generator is the identity
                        self.done.add((x, k))
                        nxt.append(y)
            frontier = nxt


def _sift(levels: Sequence[_Level], a: Perm, b: Perm,
          start: int) -> Perm | None:
    """Sift h = a b^-1 through the levels from ``start``: the residue, or
    None when h sifts to the identity.  h stays a quotient, each step
    reading h(point) as a[b.index(point)], so no inverse is formed unless a
    residue remains."""
    for lvl in levels[start:]:
        x = a[b.index(lvl.point)]
        if x != lvl.point:
            u_inv = lvl.inverses.get(x)
            if u_inv is None:
                break
            a = _mul(u_inv, a)
    else:
        if a == b:
            return None
    return _mul(a, invert(b))


def _schreier_sims(gens: Sequence[Perm], n: int, base: Sequence[int] = (),
                   order: int | None = None) -> list[_Level]:
    """Deterministic Schreier–Sims: levels for ``base`` and whatever further
    base points the generators need.

    Each Schreier generator u_{s(x)}^-1 s u_x of a level is sifted through
    the levels below it; a nonidentity residue becomes a new strong
    generator.  When the group order is known, the search stops once the
    basic orbit lengths multiply to it: their product never exceeds the
    order, and reaching it means every level already generates its
    stabilizer.
    """
    ident = identity_perm(n)
    levels = [_Level(b, ident) for b in base]

    def install(h: Perm, first: int) -> int:
        """Add h, which fixes the base points before ``first``, to each
        level from ``first`` to the first whose point it moves, appending a
        base point when it fixes them all; return that level."""
        j = first
        while j < len(levels) and h[levels[j].point] == levels[j].point:
            j += 1
        if j == len(levels):
            levels.append(_Level(next(x for x in range(n) if h[x] != x), ident))
        h_inv = invert(h)
        for lvl in levels[first:j + 1]:
            lvl.add(h, h_inv)
        return j

    for s in gens:
        if s != ident:
            install(s, 0)

    def residue_level(i: int) -> int | None:
        """Sift the unchecked Schreier generators of level i; the level of
        the first nonidentity residue, or None when all of them sift."""
        lvl = levels[i]
        for x, x_inv in list(lvl.inverses.items()):
            for k, s in enumerate(lvl.gens):
                if (x, k) in lvl.done:
                    continue
                lvl.done.add((x, k))
                # u_{s(x)}^-1 s u_x = c x_inv^-1, the identity iff c == x_inv
                c = _mul(lvl.inverses[s[x]], s)
                residue = None if c == x_inv else _sift(levels, c, x_inv, i + 1)
                if residue is not None:
                    return install(residue, i + 1)
        return None

    i = len(levels) - 1
    while i >= 0:
        if order is not None and math.prod(
                len(lvl.inverses) for lvl in levels) == order:
            break
        j = residue_level(i)
        i = i - 1 if j is None else j
    return levels


def _orbit_reps(gens: Sequence[Perm], n: int) -> list[int]:
    """The least point of each point's orbit under the generated group."""
    rep = [-1] * n
    for x in range(n):
        if rep[x] < 0:
            rep[x] = x
            stack = [x]
            while stack:
                y = stack.pop()
                for s in gens:
                    z = s[y]
                    if rep[z] < 0:
                        rep[z] = x
                        stack.append(z)
    return rep


def _orbitals(gens: Sequence[Perm], n: int, reps: Sequence[int],
              ) -> tuple[Callable, Counter[int], Callable[[], int]]:
    """``orbital(v, w)`` is an id of the Stab(v)-orbit of w, whose size is
    ``sizes`` of that id once it is read; and ``order()`` gives the group
    order.  ``reps`` are the group's orbit representatives.

    The first orbital read at a point of an orbit builds that orbit's
    Schreier–Sims chain, based at its least point r: its first level gives
    u_v^-1 with u_v(r) = v, and its second level generates Stab(r), so the
    id is that of the Stab(r)-orbit of u_v^-1(w), made unique across
    orbits.  The first chain gives the group order, at which the later
    ones stop early.  A fixed point's stabilizer is the whole group, whose
    orbits are ``reps``: the fixed points share one id table.
    """
    ident = identity_perm(n)
    orbit_sizes = Counter(reps)
    tables: dict[int | None, tuple] = {}
    view = {}
    sizes: Counter[int] = Counter()
    order = None

    def point_view(v):
        nonlocal order
        key = reps[v] if orbit_sizes[reps[v]] > 1 else None
        if key not in tables:
            if key is None:
                inverses, stab_reps = None, reps
            else:
                levels = _schreier_sims(gens, n, base=(key,), order=order)
                order = math.prod(len(lvl.inverses) for lvl in levels)
                inverses = levels[0].inverses
                stab_reps = _orbit_reps(
                    levels[1].gens if len(levels) > 1 else (), n)
            ids = [len(tables) * n + x for x in stab_reps]
            sizes.update(ids)
            tables[key] = (inverses, ids)
        inverses, ids = tables[key]
        view[v] = (ident if inverses is None else inverses[v], ids)
        return view[v]

    def orbital(v, w):
        inv_v, ids = view.get(v) or point_view(v)
        return ids[inv_v[w]]

    def group_order():  # from a chain with no base if none was built
        return order or math.prod(
            len(lvl.inverses) for lvl in _schreier_sims(gens, n))

    return orbital, sizes, group_order


# ---------------------------------------------------------------------------
# vertex set pairs and the symmetry conditions


class VertexSetPair(namedtuple("VertexSetPair", "v_plus v_minus origin")):
    """The two disjoint vertex sets under comparison, tuples of vertices,
    plus the origin, which must sit in ``v_plus``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if set(self.v_plus) & set(self.v_minus):
            raise GraphError("v_plus and v_minus must be disjoint")
        if self.origin not in self.v_plus:
            raise GraphError(f"origin {self.origin} must belong to v_plus")
        return self

    def _replace(self, **changes):
        """A copy with ``changes``, checked as the constructor checks."""
        return type(self)(*super()._replace(**changes))


def make_pair(g: Graph, v_plus: Iterable[int], v_minus: Iterable[int],
              origin: int) -> VertexSetPair:
    return VertexSetPair(
        v_plus=as_vertex_set(g, v_plus),
        v_minus=as_vertex_set(g, v_minus),
        origin=int(origin),
    )


class SymmetryReport(namedtuple("SymmetryReport", (
        "set_preserving", "transitive", "stabilizer_symmetric", "notes"),
        defaults=((),))):
    """Outcome of the symmetry check, decided without listing the elements.

    ``set_preserving``: every element maps each of the two sets onto one of
    the two sets.  ``transitive``: every element maps the union onto itself
    and one orbit covers the union.  ``stabilizer_symmetric``: for every
    cross pair (v, w) the two stabilizer orbits have equal size.  ``notes``
    is a tuple of strings, one per failed condition.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.set_preserving and self.transitive and self.stabilizer_symmetric

    def to_json_dict(self, **group_fields) -> dict:
        """The report's fields, with ``group_fields`` before ``ok``."""
        return {
            "set_preserving": self.set_preserving,
            "transitive": self.transitive,
            "stabilizer_symmetric": self.stabilizer_symmetric,
            **group_fields,
            "ok": self.ok,
            "notes": list(self.notes),
        }


def check_symmetry_conditions(g: Graph, gens: Sequence[Perm],
                              pair: VertexSetPair) -> SymmetryReport:
    """Decide the three symmetry conditions for a pair of sets, for the
    group the checked generators ``gens`` generate.

    Set preservation, invariance of the union and being an automorphism
    hold for the group iff they hold for each generator, and transitivity
    is one orbit of the generators.  A cross pair (v, w) has
    |Stab(v)·w| = |Stab(v)|/|Stab(v) ∩ Stab(w)| and
    |Stab(v)| = |Γ|/|Γv|, so its two stabilizer orbits have equal size iff
    |Γv| = |Γw|: the generator orbits decide it too.

    Raises :class:`NonAutomorphismElement` unless every generator is an
    automorphism of ``g``, naming the first bad generator's position (from
    0) and the first edge it maps off the edge set; that generator is also
    the first bad element in the breadth-first element order of the
    closure oracle in ``tests/_oracles.py``.
    """
    edge_set = set(g.edges)
    for i, e in enumerate(gens):
        edge = _edge_off(g, edge_set, _check_perm(e, g.n_vertices))
        if edge is not None:
            u, v = edge
            raise NonAutomorphismElement(
                f"generator {i} is not an automorphism: it maps the edge "
                f"({u}, {v}) to ({e[u]}, {e[v]}), which is no edge")

    plus, minus = set(pair.v_plus), set(pair.v_minus)
    union = plus | minus
    notes: list[str] = []

    set_preserving = all(
        {e[v] for v in plus} in (plus, minus)
        and {e[v] for v in minus} in (plus, minus) for e in gens)
    if not set_preserving:
        notes.append("an element maps a set off the pair {v_plus, v_minus}")

    transitive = all({e[v] for v in union} == union for e in gens)
    if not transitive:
        notes.append("an element moves the union off itself")
    reps = _orbit_reps(gens, g.n_vertices)
    if transitive and union:
        seed = min(union)
        missing = sorted(v for v in union if reps[v] != reps[seed])
        if missing:
            transitive = False
            more = len(missing) - 10  # a note lists 10 vertices at most
            listed = f"{missing[:10]} and {more} more" if more > 0 else missing
            notes.append(f"vertices {listed} unreachable from vertex {seed}")

    sizes = Counter(reps)
    size = [sizes[r] for r in reps]
    minus_sizes = {size[w] for w in pair.v_minus}
    v = next((v for v in pair.v_plus if minus_sizes - {size[v]}), None)
    if v is not None:  # the first cross pair with unequal orbit sizes
        w = next(w for w in pair.v_minus if size[w] != size[v])
        notes.append(f"stabilizer orbit sizes differ for pair ({v},{w})")

    return SymmetryReport(
        set_preserving=set_preserving,
        transitive=transitive,
        stabilizer_symmetric=v is None,
        notes=tuple(notes),
    )


def _chain_block(conditions: SymmetryReport, gens: Sequence[Perm],
                 pair: VertexSetPair, reps: Sequence[int],
                 ) -> tuple[dict, Callable, Counter[int]]:
    """The conditions block of a report whose subject is the group itself,
    with the ``orbital`` and ``sizes`` of :func:`_orbitals`.  The block is
    ``conditions`` plus what the chains tell.  ``swap_transitive`` is the
    stronger sufficient condition that some element exchanges v and w for
    every cross pair: with u_v(r) = v for the least point r of v's orbit,
    that is u_w^-1(v) ∈ Stab(r)·u_v^-1(w); it is read up to the first cross
    pair that fails, so only the orbits read up to there get a chain.
    ``sets_finite`` is trivially true, and ``group_order`` is the order
    that :func:`_orbitals` gives.
    """
    orbital, sizes, order = _orbitals(gens, len(reps), reps)
    swap_transitive = all(orbital(v, w) == orbital(w, v)
                          for v in pair.v_plus for w in pair.v_minus)
    return conditions.to_json_dict(
        swap_transitive=swap_transitive, sets_finite=True,
        group_order=order()), orbital, sizes


def chain_conditions(g: Graph, gens: Sequence[Perm],
                     pair: VertexSetPair) -> dict:
    """The conditions block of ``check-symmetry``:
    :func:`check_symmetry_conditions`, decided (or refused) before any
    chain is built, plus what the chains of the orbits it reads tell."""
    conditions = check_symmetry_conditions(g, gens, pair)
    block, _, _ = _chain_block(conditions, gens, pair,
                               _orbit_reps(gens, g.n_vertices))
    return block


# ---------------------------------------------------------------------------
# the counting lemmas, from generators and chains


class FamilyPair(namedtuple("FamilyPair", "a_plus a_minus")):
    """A pair of finite subsets (frozensets), one inside each of the two
    acted-on sets."""

    __slots__ = ()


# The most vertices on each side of a sampled set pair.
_FAMILY_SIDE_MAX = 4


def random_family_pairs(v_plus: Sequence[int], v_minus: Sequence[int],
                        trials: int, seed: int) -> list[FamilyPair]:
    """Reproducible sample of set pairs with sides of size <=
    ``_FAMILY_SIDE_MAX`` (empty sides included, so the degenerate branch
    gets exercised)."""
    import random  # only this battery samples; no other run pays for it

    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        ka = rng.randint(0, min(_FAMILY_SIDE_MAX, len(v_plus)))
        kb = rng.randint(0, min(_FAMILY_SIDE_MAX, len(v_minus)))
        out.append(FamilyPair(
            a_plus=frozenset(rng.sample(list(v_plus), ka)),
            a_minus=frozenset(rng.sample(list(v_minus), kb)),
        ))
    return out


def lemma_failures(g: Graph, gens: Sequence[Perm], pair: VertexSetPair,
                   trials: int, seed: int,
                   ) -> tuple[dict, tuple[int, int, int, int]]:
    """The conditions block, as :func:`chain_conditions` gives it, and the
    failures of the four counting lemmas, all read off one chain per orbit
    (:func:`_orbitals` over every point), never by listing the elements.

    Over all n² pairs (x, y): the orbit product identity, the size of the
    orbit of (x, y) on V × V (a generator search on the points x·n + y)
    against |Γx|·|Stab(x)·y| (generator orbits and the chains); and swap
    symmetry, |Stab(x)·y| = |Stab(y)·x| wherever (y, x) lies in the orbit
    of (x, y).  Over the cross pairs: stabilizer symmetry,
    |Stab(v)·w| = |Stab(w)·v|.  Over ``trials`` sampled set pairs
    (:func:`random_family_pairs`): double counting on the orbit of each,
    found by a search with the generators and kept for every member of it.

    The last two lemmas concern the subgroup H that maps each set onto
    itself, but the whole group gives the same counts: an element fixing a
    vertex of the union cannot swap the sets, and a swapped image of a set
    pair counts on neither side of the identity.

    Raises :class:`GroupError` when a generator neither preserves nor swaps
    the sets, and :class:`NoSwapper` when none swaps them: then no element
    maps the origin into ``v_minus``.
    """
    conditions = check_symmetry_conditions(g, gens, pair)
    if not conditions.set_preserving:
        raise GroupError(
            "split requires every element to preserve or swap the sets")
    n = g.n_vertices
    reps = _orbit_reps(gens, n)
    if all(reps[w] != reps[pair.origin] for w in pair.v_minus):
        raise NoSwapper(
            "no element swaps the sets (transitivity fails or v_minus is empty)"
        )
    pair_reps = _orbit_reps(
        [tuple(s[x] * n + s[y] for x in range(n) for y in range(n))
         for s in gens], n * n)
    orbit_sizes, pair_orbit_sizes = Counter(reps), Counter(pair_reps)

    block, orbital, sizes = _chain_block(conditions, gens, pair, reps)

    def stab_size(v, w):
        """|Stab(v)·w|."""
        return sizes[orbital(v, w)]

    product = swap = 0
    for x in range(n):
        for y in range(n):
            size = stab_size(x, y)
            product += (pair_orbit_sizes[pair_reps[x * n + y]]
                        != orbit_sizes[reps[x]] * size)
            swap += (pair_reps[x * n + y] == pair_reps[y * n + x]
                     and size != stab_size(y, x))

    stab = sum(stab_size(v, w) != stab_size(w, v)
               for v in pair.v_plus for w in pair.v_minus)

    o, o_prime = pair.origin, pair.v_minus[0]
    counted: dict[tuple, tuple[int, int]] = {}
    double = 0
    for fp in random_family_pairs(pair.v_plus, pair.v_minus, trials, seed):
        key = (fp.a_plus, fp.a_minus)
        if key not in counted:
            members = {key}
            frontier = [key]
            while frontier:
                a, b = frontier.pop()
                for e in gens:
                    image = (frozenset(map(e.__getitem__, a)),
                             frozenset(map(e.__getitem__, b)))
                    if image not in members:
                        members.add(image)
                        frontier.append(image)
            counted.update(dict.fromkeys(members, (
                sum(o in a for a, _ in members) * len(fp.a_minus),
                sum(o_prime in b for _, b in members) * len(fp.a_plus))))
        lhs, rhs = counted[key]
        double += lhs != rhs
    return block, (product, stab, swap, double)


# ---------------------------------------------------------------------------
# generator builders for the standard symmetries

def _axis_size(g: Graph, axis: int) -> int:
    sizes = {lab[axis] for lab in g.labels}
    if sizes != set(range(len(sizes))):
        raise GroupError(f"axis {axis} coordinates are not dense 0..k-1")
    return len(sizes)


def _replace(lab: tuple[int, ...], axis: int, value: int) -> tuple[int, ...]:
    return lab[:axis] + (value,) + lab[axis + 1:]


def layer_swap(g: Graph) -> Perm:
    """Exchange the two layers of a product with a binary last coordinate."""
    axis = len(g.labels[0]) - 1
    if _axis_size(g, axis) != 2:
        raise GroupError("layer swap needs a binary last coordinate")
    return perm_from_label_map(g, lambda lab: _replace(lab, axis, 1 - lab[axis]))


def axis_rotation(g: Graph, axis: int, step: int = 1) -> Perm:
    """Rotate one cyclic coordinate by ``step`` (mod the axis size)."""
    size = _axis_size(g, axis)
    return perm_from_label_map(
        g, lambda lab: _replace(lab, axis, (lab[axis] + step) % size))


def axis_reflection(g: Graph, axis: int, center2: int = 0) -> Perm:
    """Reflect one cyclic coordinate through center2 / 2, i.e.
    i -> (center2 - i) mod size."""
    size = _axis_size(g, axis)
    return perm_from_label_map(
        g, lambda lab: _replace(lab, axis, (center2 - lab[axis]) % size))


def swap_axes(g: Graph, a: int, b: int) -> Perm:
    """Transpose two coordinates (requires equal axis sizes)."""
    if _axis_size(g, a) != _axis_size(g, b):
        raise GroupError(f"axes {a} and {b} have different sizes")

    def fn(lab):
        out = list(lab)
        out[a], out[b] = out[b], out[a]
        return tuple(out)

    return perm_from_label_map(g, fn)


def coord_permutation(g: Graph, sigma: Sequence[int]) -> Perm:
    """Permute all coordinates at once: new[i] = old[sigma[i]]."""
    width = len(g.labels[0])
    sigma = _check_perm(sigma, width)
    return perm_from_label_map(
        g, lambda lab: tuple(lab[sigma[i]] for i in range(width)))


def lift_first_factor(base_perm: Sequence[int], n_second: int) -> Perm:
    """Lift a base-factor permutation to a row-major product with a second
    factor of ``n_second`` vertices."""
    n1 = len(base_perm)
    image = [0] * (n1 * n_second)
    for i1 in range(n1):
        for i2 in range(n_second):
            image[i1 * n_second + i2] = base_perm[i1] * n_second + i2
    return tuple(image)


def build_generator(g: Graph, spec) -> Perm:
    """Resolve one generator spec: an explicit image array, or a named
    builder dict like {"name": "axis_rotation", "axis": 0, "step": 1}.
    {"name": "compose", "of": [...]} applies the listed specs right to
    left."""
    if isinstance(spec, (list, tuple)):
        return _check_perm(spec, g.n_vertices)
    if isinstance(spec, Mapping):
        name = spec.get("name")
        if name is None and "perm" in spec:
            return _check_perm(spec["perm"], g.n_vertices)
        if name == "compose":
            parts = [build_generator(g, part) for part in spec["of"]]
            if not parts:
                raise GroupError("compose needs at least one part")
            out = parts[-1]
            for part in reversed(parts[:-1]):
                out = compose(part, out)
            return out
        if name == "layer_swap":
            return layer_swap(g)
        if name == "axis_rotation":
            return axis_rotation(g, int(spec["axis"]), int(spec.get("step", 1)))
        if name == "axis_reflection":
            return axis_reflection(g, int(spec["axis"]), int(spec.get("center2", 0)))
        if name == "swap_axes":
            return swap_axes(g, int(spec["a"]), int(spec["b"]))
        if name == "coord_permutation":
            return coord_permutation(g, spec["sigma"])
        if name == "base_perm":
            # lifted over the trailing axes (one at least) that its factor
            # of len(base) vertices leaves
            base = spec["perm"]
            axis = len(g.labels[0]) - 1
            n_rest = _axis_size(g, axis)
            while len(base) * n_rest < g.n_vertices and axis > 0:
                axis -= 1
                n_rest *= _axis_size(g, axis)
            if len(base) * n_rest != g.n_vertices:
                raise GroupError("base_perm length does not match the product")
            return lift_first_factor([int(x) for x in base], n_rest)
        raise GeneratorSpecError(f"unknown generator name {name!r}")
    raise GeneratorSpecError(f"bad generator spec: {spec!r}")
