"""Finite permutation groups acting on graph vertices.

A permutation is a plain tuple ``p`` of length n with ``p[i]`` the image of
vertex i.  Composition follows ``(g o h)(x) = g(h(x))``: ``compose(g, h)``
applies h first.

A group is given by its generators, whose images and orbits decide the
three symmetry conditions of the cluster-domination pipeline (set
preservation, transitivity on the union, and symmetry of cross
stabilizer-orbit sizes).  Where its order or stabilizers are needed it is
held as a :class:`StabilizerChain`, a base and strong generating set built
by deterministic Schreier–Sims that never lists the elements.  Chains give
swap transitivity and the counting lemmas behind the conditions
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
    p = tuple(int(x) for x in p)
    if len(p) != n or sorted(p) != list(range(n)):
        raise GroupError(f"not a permutation of 0..{n - 1}: {p!r}")
    return p


def is_automorphism(g: Graph, p: Sequence[int]) -> bool:
    """True iff p maps the edge set onto itself (adjacency both ways)."""
    perm = _check_perm(p, g.n_vertices)
    edge_set = set(g.edges)
    for u, v in g.edges:
        pu, pv = perm[u], perm[v]
        if (pu, pv) not in edge_set and (pv, pu) not in edge_set:
            return False
    return True


def perm_from_label_map(g: Graph, fn) -> Perm:
    """Build a permutation from a label-rewriting function.

    ``fn`` maps a coordinate label to a coordinate label; the result must hit
    every vertex exactly once.
    """
    image = [-1] * g.n_vertices
    for v, lab in enumerate(g.labels):
        try:
            image[v] = g.index_of(tuple(fn(lab)))
        except GraphError as exc:
            raise GroupError(f"label map leaves the vertex set: {exc}") from None
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


class StabilizerChain(namedtuple("StabilizerChain",
                                  "n_points generators levels")):
    """A base and strong generating set of the group ``generators`` generate.

    ``levels`` is a tuple of :class:`_Level`: level i holds the i-th base
    point, the strong generators fixing the base points before it, and the
    inverse transversal of its basic orbit.  The group order is the product
    of the basic orbit lengths; no element list is ever built.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return math.prod(len(lvl.inverses) for lvl in self.levels)


def stabilizer_chain(gens: Sequence[Sequence[int]],
                     n_points: int | None = None) -> StabilizerChain:
    """Base and strong generating set of the group the generators generate.

    Deterministic: the base starts at the first point the first
    nonidentity generator moves.  ``n_points`` is only needed when ``gens``
    is empty.
    """
    if gens:
        n = len(gens[0])
    elif n_points is not None:
        n = n_points
    else:
        raise GroupError("empty generator list needs an explicit n_points")
    checked = [_check_perm(p, n) for p in gens]
    return StabilizerChain(n_points=n, generators=tuple(checked),
                           levels=tuple(_schreier_sims(checked, n)))


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


def _rooted(chain: StabilizerChain, v: int, reps: Sequence[int],
            ) -> tuple[Mapping[int, Perm], Sequence[int]]:
    """For the orbit of v, with a root r in it: u_x^-1 for each x in the
    orbit (u_x(r) = x), and the least point of each point's Stab(r)-orbit.

    The root is the chain's first base point when that lies in the orbit;
    otherwise it is v, with a chain of its own that puts v first and stops
    at the known order.  A fixed point's stabilizer is the whole group,
    whose orbits are ``reps``.
    """
    n = chain.n_points
    if reps.count(reps[v]) == 1:
        return {v: identity_perm(n)}, reps
    levels = chain.levels
    if reps[levels[0].point] != reps[v]:
        strong = dict.fromkeys(s for lvl in levels for s in lvl.gens)
        levels = _schreier_sims(list(strong), n, base=(v,), order=chain.order)
    stab_gens = levels[1].gens if len(levels) > 1 else ()
    return levels[0].inverses, _orbit_reps(stab_gens, n)


def _orbitals(chain: StabilizerChain, reps: Sequence[int],
              points: Iterable[int]) -> tuple[Callable, Counter[int]]:
    """``orbital(v, w)``, for v among ``points``, is an id of the
    Stab(v)-orbit of w, read off a chain rooted in v's orbit with
    u_v(root) = v: the id of the Stab(root)-orbit of u_v^-1(w), made unique
    across roots.  The orbit's size is ``sizes`` of its id.  ``reps`` are
    the group's orbit representatives."""
    roots: dict[int, tuple] = {}
    view = {}
    sizes: Counter[int] = Counter()
    for v in points:
        if reps[v] not in roots:
            inverses, stab_reps = _rooted(chain, v, reps)
            offset = len(roots) * chain.n_points
            ids = [offset + x for x in stab_reps]
            sizes.update(ids)
            roots[reps[v]] = (inverses, ids)
        inverses, ids = roots[reps[v]]
        view[v] = (inverses[v], ids)

    def orbital(v, w):
        inv_v, ids = view[v]
        return ids[inv_v[w]]

    return orbital, sizes


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

    @property
    def union(self) -> tuple[int, ...]:
        return tuple(sorted(self.v_plus + self.v_minus))


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
    automorphism of ``g``; the first bad generator is also the first bad
    element in the breadth-first element order of the closure oracle in
    ``tests/_oracles.py``.
    """
    for e in gens:
        if not is_automorphism(g, e):
            raise NonAutomorphismElement(f"element {e} is not an automorphism")

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
            notes.append(f"vertices {missing} unreachable from vertex {seed}")

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


def chain_conditions(g: Graph, gens: Sequence[Perm], pair: VertexSetPair,
                     ) -> tuple[dict, StabilizerChain]:
    """The conditions block of a report whose subject is the group itself,
    and the stabilizer chain it reads.  The block is
    :func:`check_symmetry_conditions`, decided (or refused) before the
    chain is built, plus what the chain tells.  ``swap_transitive`` is the
    stronger sufficient condition that some element exchanges v and w for
    every cross pair: with u_v(root) = v in a chain rooted in v's orbit,
    that is u_w^-1(v) ∈ Stab(root)·u_v^-1(w).  ``sets_finite`` is
    trivially true, and ``group_order`` is the product of the basic orbit
    lengths.
    """
    conditions = check_symmetry_conditions(g, gens, pair)
    chain = stabilizer_chain(gens, n_points=g.n_vertices)
    reps = _orbit_reps(chain.generators, chain.n_points)
    orbital, _ = _orbitals(chain, reps, pair.v_plus + pair.v_minus)
    swap_transitive = all(orbital(v, w) == orbital(w, v)
                          for v in pair.v_plus for w in pair.v_minus)
    return conditions.to_json_dict(
        swap_transitive=swap_transitive, sets_finite=True,
        group_order=chain.order), chain


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


def lemma_failures(chain: StabilizerChain, pair: VertexSetPair, trials: int,
                   seed: int) -> tuple[int, int, int, int]:
    """Failures of the four counting lemmas, each found from generators and
    stabilizer chains, never by listing the elements.

    Over all n² pairs (x, y): the orbit product identity, the size of the
    orbit of (x, y) on V × V (a generator search on the points x·n + y)
    against |Γx|·|Stab(x)·y| (generator orbits and the chain); and swap
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
    the sets, and :class:`NoSwapper` when none swaps them.
    """
    n, gens = chain.n_points, chain.generators
    plus, minus = set(pair.v_plus), set(pair.v_minus)
    images = [({e[v] for v in plus}, {e[v] for v in minus}) for e in gens]
    if any(image not in ((plus, minus), (minus, plus)) for image in images):
        raise GroupError(
            "split requires every element to preserve or swap the sets")
    if (minus, plus) not in images:
        raise NoSwapper(
            "no element swaps the sets (transitivity fails or v_minus is empty)"
        )
    reps = _orbit_reps(gens, n)
    pair_reps = _orbit_reps(
        [tuple(s[x] * n + s[y] for x in range(n) for y in range(n))
         for s in gens], n * n)
    orbit_sizes, pair_orbit_sizes = Counter(reps), Counter(pair_reps)

    orbital, sizes = _orbitals(chain, reps, range(n))

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

    stab = sum(stab_size(v, w) != stab_size(w, v) for v in plus for w in minus)

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
    return product, stab, swap, double


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
            n_second = _axis_size(g, len(g.labels[0]) - 1)
            base = spec["perm"]
            if len(base) * n_second != g.n_vertices:
                raise GroupError("base_perm length does not match the product")
            return lift_first_factor([int(x) for x in base], n_second)
        raise GeneratorSpecError(f"unknown generator name {name!r}")
    raise GeneratorSpecError(f"bad generator spec: {spec!r}")
