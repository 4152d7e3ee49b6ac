"""Finite simple graphs with canonical vertex labels and canonical edge order.

Every graph used anywhere in this package comes out of :func:`build_graph`
(or one of the named builders it dispatches to).  Two conventions are fixed
here:

* edges are sorted lexicographically as (min endpoint, max endpoint) pairs,
  and edge k corresponds to bit k of every configuration bitmask, which the
  exact engine relies on for bit-exact reproducibility;
* a Cartesian product indexes its vertices row-major over the factor
  indices, i.e. (i1, i2) -> i1 * n2 + i2, and concatenates factor labels,
  so every built graph's labels are the row-major product of 0..k-1 on
  each axis.  :mod:`groups` relies on this layout: a named generator spec
  is computed from the vertex index, not looked up by label.
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property


class GraphError(ValueError):
    """Invalid graph parameters or a structurally invalid graph."""


class GraphSpecError(GraphError):
    """A malformed graph spec: no or unknown builder, or a missing field."""


VertexSet = tuple[int, ...]


class Graph(namedtuple("Graph", "n_vertices labels edges adjacency")):
    """Immutable connected simple graph on vertices 0..n_vertices-1.

    ``labels[v]`` is the coordinate tuple assigned by the builder, e.g.
    (i, j) on a torus or a 0/1 tuple on a hypercube.  ``edges`` holds the
    (u, v) pairs with u < v in sorted order.  ``adjacency[v]`` lists
    neighbors in increasing order.

    Unlike most records, a graph declares no ``__slots__``: its
    instance dict holds the label index that :meth:`index_of` builds on
    first use, and the axis sizes that named generators read, outside the
    tuple and so outside equality, hash and repr.
    """

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _label_index(self) -> dict[tuple[int, ...], int]:
        return {lab: v for v, lab in enumerate(self.labels)}

    @cached_property
    def _axis_sizes(self) -> tuple[int, ...] | None:
        """The sizes of the label axes, if the labels are the row-major
        product of 0..size-1 on each axis, as every builder lays them out;
        None for any other (hand-made) graph."""
        sizes = tuple(x + 1 for x in self.labels[-1])
        if self.labels != tuple(itertools.product(*map(range, sizes))):
            return None
        return sizes

    def index_of(self, label: Sequence[int]) -> int:
        """Vertex index carrying the given coordinate label."""
        try:
            return self._label_index[tuple(label)]
        except KeyError:
            raise GraphError(f"no vertex labeled {tuple(label)}") from None

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def _canonical(labels: Sequence[tuple[int, ...]],
               edge_pairs: Iterable[tuple[int, int]]) -> Graph:
    n = len(labels)
    if n == 0:
        raise GraphError("empty graph")
    seen: set[tuple[int, int]] = set()
    for u, v in edge_pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for {n} vertices")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphError(f"duplicate edge {e}")
        seen.add(e)
    edges = tuple(sorted(seen))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    g = Graph(
        n_vertices=n,
        labels=tuple(tuple(lab) for lab in labels),
        edges=edges,
        adjacency=tuple(tuple(sorted(nb)) for nb in adj),
    )
    if not _is_connected(g):
        raise GraphError("graph is not connected")
    return g


def _is_connected(g: Graph) -> bool:
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n_vertices


# ---------------------------------------------------------------------------
# named builders


def path_graph(n: int) -> Graph:
    """Line graph on n vertices (n = 1 gives the single-vertex graph)."""
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    return _canonical([(i,) for i in range(n)],
                      [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3 to stay simple, got {n}")
    return _canonical([(i,) for i in range(n)],
                      [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"complete graph needs n >= 1, got {n}")
    return _canonical([(i,) for i in range(n)],
                      [(i, j) for i in range(n) for j in range(i + 1, n)])


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product; vertex (i1, i2) gets index i1 * |V2| + i2."""
    n2 = g2.n_vertices
    labels = [g1.labels[i1] + g2.labels[i2]
              for i1 in range(g1.n_vertices) for i2 in range(n2)]
    edges: list[tuple[int, int]] = []
    for (u, v) in g1.edges:
        for i2 in range(n2):
            edges.append((u * n2 + i2, v * n2 + i2))
    for i1 in range(g1.n_vertices):
        for (u, v) in g2.edges:
            edges.append((i1 * n2 + u, i1 * n2 + v))
    return _canonical(labels, edges)


def hypercube_graph(d: int) -> Graph:
    """d-fold product of the single-edge graph; labels are 0/1 tuples."""
    if d < 1:
        raise GraphError(f"hypercube needs d >= 1, got {d}")
    g = path_graph(2)
    for _ in range(d - 1):
        g = cartesian_product(g, path_graph(2))
    return g


def bunkbed_graph(base: Graph) -> Graph:
    """Two copies of the base joined by a post at every vertex."""
    return cartesian_product(base, path_graph(2))


def cylinder_graph(base: Graph, m: int) -> Graph:
    if m < 3:
        raise GraphError(f"cylinder needs m >= 3, got {m}")
    return cartesian_product(base, cycle_graph(m))


def torus_graph(n: int, m: int) -> Graph:
    if n < 3 or m < 3:
        raise GraphError(f"torus needs n, m >= 3 to stay simple, got {n}x{m}")
    return cartesian_product(cycle_graph(n), cycle_graph(m))


def explicit_graph(n_vertices: int, edge_pairs: Iterable[Sequence[int]]) -> Graph:
    pairs = []
    for e in edge_pairs:
        if len(e) != 2:
            raise GraphError(f"edge must be a pair, got {e!r}")
        pairs.append((int(e[0]), int(e[1])))
    return _canonical([(i,) for i in range(n_vertices)], pairs)


def build_graph(spec: Mapping) -> Graph:
    """Build a graph from a JSON-style spec dict, e.g. {"builder": "torus",
    "n": 5, "m": 5} or {"builder": "bunkbed", "base": {...}}."""
    try:
        builder = spec["builder"]
    except (KeyError, TypeError):
        raise GraphSpecError(
            f"graph spec needs a 'builder' key: {spec!r}") from None
    try:
        if builder == "path":
            return path_graph(int(spec["n"]))
        if builder == "cycle":
            return cycle_graph(int(spec["n"]))
        if builder == "complete":
            return complete_graph(int(spec["n"]))
        if builder == "hypercube":
            return hypercube_graph(int(spec["d"]))
        if builder == "torus":
            return torus_graph(int(spec["n"]), int(spec["m"]))
        if builder == "bunkbed":
            return bunkbed_graph(build_graph(spec["base"]))
        if builder == "cylinder":
            return cylinder_graph(build_graph(spec["base"]), int(spec["m"]))
        if builder == "explicit":
            return explicit_graph(int(spec["vertices"]), spec["edges"])
    except KeyError as exc:
        raise GraphSpecError(
            f"graph spec for {builder!r} misses {exc}") from None
    raise GraphSpecError(f"unknown builder {builder!r}")


def spec_size(spec: Mapping) -> tuple[int, int]:
    """(vertices, edges) of the graph that :func:`build_graph` makes of the
    spec, found without building it, so that a caller can refuse a graph
    too large to build.  A spec the builder would refuse gives (0, 0): the
    builder reports it."""
    try:
        builder = spec["builder"]
        if builder in ("path", "cycle", "complete"):
            n = int(spec["n"])
            edges = {"path": n - 1, "cycle": n, "complete": n * (n - 1) // 2}
            return n, edges[builder]
        if builder == "hypercube":
            d = int(spec["d"])
            return 1 << d, d << (d - 1)
        if builder == "torus":
            cells = int(spec["n"]) * int(spec["m"])
            return cells, 2 * cells
        if builder in ("bunkbed", "cylinder"):
            # base x factor has v·fv vertices and e·fv + v·fe edges
            v, e = spec_size(spec["base"])
            fv, fe = (2, 1) if builder == "bunkbed" else (int(spec["m"]),) * 2
            return v * fv, e * fv + v * fe
        if builder == "explicit":
            return int(spec["vertices"]), len(spec["edges"])
    except (KeyError, TypeError, ValueError):
        pass
    return 0, 0


# ---------------------------------------------------------------------------
# queries


def distances_from(g: Graph, source: int) -> tuple[int, ...]:
    """BFS distances from source to every vertex."""
    _check_vertex(g, source)
    dist = [-1] * g.n_vertices
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return tuple(dist)


def as_vertex_set(g: Graph, vertices: Iterable[int]) -> VertexSet:
    """Validate and canonicalize a vertex collection (sorted, no duplicates)."""
    out = sorted(int(v) for v in vertices)
    for v in out:
        _check_vertex(g, v)
    for x, y in zip(out, out[1:]):
        if x == y:
            raise GraphError(f"duplicate vertex {x}")
    return tuple(out)


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n_vertices:
        raise GraphError(f"vertex {v} out of range for {g.n_vertices} vertices")
