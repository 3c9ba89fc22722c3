"""Half-edge multigraph model.

A graph is a set of darts (half-edges) with a pairing involution, a partial
incidence map to vertices, and per-edge color / type / direction data.  Edges
are the pairing orbits of size two; a dart fixed by the pairing is a
standalone half-edge.  Everything downstream (isomorphism, automorphisms,
blocks, atoms, reductions, quotients) works on this one structure.

Graphs are immutable after construction and all functions here are pure.
An edited graph is built from the one it edits: `Graph.restrict` drops
items and vertices, and a `GraphBuilder` seeded with a base graph adds
items under names from `GraphBuilder.fresh`, so new darts never take the
name of a dart the base keeps.
A subgraph (a component here; a block, a part of the block tree or an
atom elsewhere) is a plain pair of frozensets, (darts, vertices), and its
graph is `g.restrict(darts, vertices)`.  Structures derived from a graph
(its components here; its block tree, atoms and iso index elsewhere) are
built once and kept on it by `cached`, as plain data that never names the
graph.

A graph's points are its vertices and then its darts, numbered from 0
(`point_index`).  An automorphism, a group element in `groups`, is one
tuple over the points: the point number of each point's image.
`point_images` encodes a vertex map and a dart map as such a tuple and
`point_maps` decodes one; no other module converts between the two forms.
"""

from __future__ import annotations

from functools import cached_property

from .errors import GraphError

HALVABLE = "halvable"
UNDIRECTED = "undirected"
DIRECTED = "directed"
EDGE_TYPES = (HALVABLE, UNDIRECTED, DIRECTED)

# Edge kinds derived from pairing/incidence.
STANDARD = "standard"
LOOP = "loop"
PENDANT = "pendant"
FREE = "free"
HALF = "half"


class Graph:
    """Immutable half-edge multigraph.

    darts, vertices: frozensets of string identifiers.
    pairing: involution on darts.
    incidence: partial map dart -> vertex (missing key = free end).
    edge_type: map dart -> type, defined exactly on darts of 2-dart edges,
        equal on both darts of an edge.
    color: map dart -> non-negative int, defined on every dart, equal on
        both darts of an edge.
    tails: the tail dart of every directed edge.
    """

    def __init__(self, darts, vertices, pairing, incidence, edge_type, color,
                 tails=()):
        self.darts = frozenset(darts)
        self.vertices = frozenset(vertices)
        self.pairing = dict(pairing)
        self.incidence = dict(incidence)
        self.edge_type = dict(edge_type)
        self.color = dict(color)
        self.tails = frozenset(tails)

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def dart_list(self):
        return tuple(sorted(self.darts))

    @cached_property
    def vertex_list(self):
        return tuple(sorted(self.vertices))

    @cached_property
    def _darts_at(self):
        at = {v: [] for v in self.vertices}
        for h in self.dart_list:
            v = self.incidence.get(h)
            if v is not None:
                at[v].append(h)
        return {v: tuple(hs) for v, hs in at.items()}

    def darts_at(self, v):
        if v not in self.vertices:
            raise GraphError(f"unknown vertex {v!r}")
        return self._darts_at[v]

    def pair(self, h):
        return self.pairing[h]

    def vertex_of(self, h):
        return self.incidence.get(h)

    @cached_property
    def edges(self):
        """Sorted list of 2-dart edges as ordered (min, max) dart pairs."""
        out = []
        for h in self.dart_list:
            k = self.pairing[h]
            if k != h and h < k:
                out.append((h, k))
        return tuple(out)

    @cached_property
    def halfedges(self):
        return tuple(h for h in self.dart_list if self.pairing[h] == h)

    def edge_kind(self, h):
        k = self.pairing[h]
        if k == h:
            return HALF
        u, w = self.incidence.get(h), self.incidence.get(k)
        if u is not None and w is not None:
            return LOOP if u == w else STANDARD
        if u is None and w is None:
            return FREE
        return PENDANT

    def degree(self, v):
        return len(self.darts_at(v))

    def restrict(self, darts, vertices=None):
        """The graph on a pairing-closed dart subset; GraphError when the
        subset is not closed under the pairing.

        With `vertices`, only those vertices are kept, and darts at any other
        vertex become free ends.
        """
        darts = frozenset(darts)
        if not darts.issuperset(map(self.pairing.__getitem__, darts)):
            raise GraphError("dart subset not closed under pairing")
        vertices = self.vertices if vertices is None else frozenset(vertices)
        return Graph(
            darts, vertices,
            {h: self.pairing[h] for h in darts},
            {h: v for h, v in self.incidence.items()
             if h in darts and v in vertices},
            {h: t for h, t in self.edge_type.items() if h in darts},
            {h: c for h, c in self.color.items() if h in darts},
            self.tails & darts,
        )

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_darts(self):
        return len(self.darts)

    @property
    def n_edges(self):
        return len(self.edges)

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.darts == other.darts and self.vertices == other.vertices
                and self.pairing == other.pairing
                and self.incidence == other.incidence
                and self.edge_type == other.edge_type
                and self.color == other.color and self.tails == other.tails)

    __hash__ = None

    def __repr__(self):
        return (f"Graph(v={self.n_vertices}, darts={self.n_darts}, "
                f"edges={self.n_edges}, halfedges={len(self.halfedges)})")


class GraphBuilder:
    """Constructs graphs item by item, mirroring the text format.

    Item names become dart names `<name>.1` / `<name>.2`; vertex and item
    identifiers are coerced to strings.

    With a `base` graph, building starts from the base's vertices and darts
    and keeps them unchanged: `build` returns the base with the new items
    added.  A name is refused when the base already has either of its
    darts; `fresh(name)` gives the first of name, name + "x", name + "xx",
    ... that is free, which is how every edited graph names its new items.
    """

    def __init__(self, base=None):
        self._base = base if base is not None else Graph((), (), {}, {}, {}, {})
        self._vseen = set(self._base.vertices)
        self._items = {}

    def vertex(self, name):
        name = str(name)
        if name in self._vseen:
            raise GraphError(f"duplicate vertex {name!r}")
        self._vseen.add(name)
        return self

    def _taken(self, name):
        darts = self._base.darts
        return (name in self._items or f"{name}.1" in darts
                or f"{name}.2" in darts)

    def fresh(self, name):
        """The first free item name of name, name + "x", name + "xx", ..."""
        name = str(name)
        while self._taken(name):
            name += "x"
        return name

    def _claim(self, name):
        name = str(name)
        if self._taken(name):
            raise GraphError(f"duplicate item name {name!r}")
        return name

    def _need_vertex(self, v):
        v = str(v)
        if v not in self._vseen:
            raise GraphError(f"unknown vertex {v!r}")
        return v

    def edge(self, name, u, v, type=UNDIRECTED, color=0, tail=None):
        name = self._claim(name)
        u, v = self._need_vertex(u), self._need_vertex(v)
        if u == v:
            raise GraphError(f"edge {name!r} endpoints coincide; use loop")
        return self._add(name, "edge", u, v, type, color, tail)

    def loop(self, name, v, type=UNDIRECTED, color=0):
        name = self._claim(name)
        return self._add(name, "loop", self._need_vertex(v), None, type, color)

    def pendant(self, name, v, color=0):
        name = self._claim(name)
        return self._add(name, "pendant", self._need_vertex(v), None,
                         UNDIRECTED, color)

    def halfedge(self, name, v=None, color=0):
        name = self._claim(name)
        v = self._need_vertex(v) if v is not None else None
        return self._add(name, "halfedge", v, None, None, color)

    def free(self, name, color=0, type=UNDIRECTED):
        name = self._claim(name)
        return self._add(name, "free", None, None, type, color)

    def _add(self, name, kind, u, v, type, color, tail=None):
        """Record an item once its type, tail and color are checked; the
        GraphError for a bad field names the item.  Only an edge takes a
        tail: a directed loop or free edge has its first dart as tail."""
        if type is not None and type not in EDGE_TYPES:
            raise GraphError(f"item {name!r}: unknown edge type {type!r}")
        if kind == "edge" and type == DIRECTED and tail is None:
            raise GraphError(f"directed edge {name!r} needs a tail")
        if type != DIRECTED and tail is not None:
            raise GraphError(f"tail given for non-directed edge {name!r}")
        if tail is not None and str(tail) not in (u, v):
            raise GraphError(f"edge {name!r}: tail must be one of its ends")
        try:
            color = int(color)
        except (TypeError, ValueError):
            raise GraphError(f"item {name!r}: color must be an integer, "
                             f"not {color!r}") from None
        if color < 0:
            raise GraphError(f"item {name!r}: negative color")
        self._items[name] = (kind, u, v, type, color, tail)
        return self

    def build(self):
        g = self._base
        darts, tails = set(g.darts), set(g.tails)
        pairing, incidence = dict(g.pairing), dict(g.incidence)
        edge_type, color = dict(g.edge_type), dict(g.color)
        for name in sorted(self._items):
            kind, u, v, typ, col, tail = self._items[name]
            d1, d2 = f"{name}.1", f"{name}.2"
            if kind == "halfedge":
                darts.add(d1)
                pairing[d1] = d1
                if u is not None:
                    incidence[d1] = u
                color[d1] = col
                continue
            darts.update((d1, d2))
            pairing[d1], pairing[d2] = d2, d1
            color[d1] = color[d2] = col
            if kind == "edge":
                incidence[d1], incidence[d2] = u, v
                edge_type[d1] = edge_type[d2] = typ
                if typ == DIRECTED:
                    tails.add(d1 if str(tail) == u else d2)
            elif kind == "loop":
                incidence[d1] = incidence[d2] = u
                edge_type[d1] = edge_type[d2] = typ
                if typ == DIRECTED:
                    tails.add(d1)
            elif kind == "pendant":
                incidence[d1] = u
                edge_type[d1] = edge_type[d2] = UNDIRECTED
            elif kind == "free":
                edge_type[d1] = edge_type[d2] = typ
                if typ == DIRECTED:
                    tails.add(d1)
        return Graph(darts, self._vseen, pairing, incidence, edge_type, color, tails)


# -- module-level operations -----------------------------------------------

def validate(g):
    """Return the list of invariant violations (empty list = ok)."""
    bad = []
    for h in g.dart_list:
        k = g.pairing.get(h)
        if k not in g.darts:
            bad.append(f"pairing of {h!r} leaves the dart set")
        elif g.pairing.get(k) != h:
            bad.append(f"pairing not involutive at {h!r}")
    for h, v in sorted(g.incidence.items()):
        if h not in g.darts:
            bad.append(f"incidence on unknown dart {h!r}")
        if v not in g.vertices:
            bad.append(f"dart {h!r} incident to unknown vertex {v!r}")
    for h in g.dart_list:
        if h not in g.color:
            bad.append(f"dart {h!r} has no color")
        elif not isinstance(g.color[h], int) or g.color[h] < 0:
            bad.append(f"dart {h!r} has invalid color {g.color[h]!r}")
    for h in g.tails:
        if h not in g.darts:
            bad.append(f"tail on unknown dart {h!r}")
    for h in g.dart_list:
        k = g.pairing.get(h)
        if k == h:
            if h in g.edge_type:
                bad.append(f"standalone half-edge {h!r} carries an edge type")
            if h in g.tails:
                bad.append(f"standalone half-edge {h!r} marked as tail")
            continue
        if k not in g.darts or h > k:
            continue
        t1, t2 = g.edge_type.get(h), g.edge_type.get(k)
        if t1 is None or t2 is None:
            bad.append(f"edge {h!r}/{k!r} missing edge type")
            continue
        if t1 != t2:
            bad.append(f"edge {h!r}/{k!r} has mismatched types")
        if t1 not in EDGE_TYPES:
            bad.append(f"edge {h!r}/{k!r} has unknown type {t1!r}")
        if g.color.get(h) != g.color.get(k):
            bad.append(f"edge {h!r}/{k!r} has mismatched colors")
        n_tails = (h in g.tails) + (k in g.tails)
        if t1 == DIRECTED and n_tails != 1:
            bad.append(f"directed edge {h!r}/{k!r} needs exactly one tail")
        if t1 != DIRECTED and n_tails:
            bad.append(f"direction on non-directed edge {h!r}/{k!r}")
        kind = g.edge_kind(h)
        if kind == PENDANT and t1 != UNDIRECTED:
            bad.append(f"pendant edge {h!r}/{k!r} must be undirected")
    return bad


def degree(g, v):
    return g.degree(v)


def normalize(g):
    """Turn every degree-1 vertex into a pendant-edge free end.

    The K2 graph is left unchanged, as is a lone vertex carrying a single
    standalone half-edge.  Idempotent; preserves the automorphism group.
    """
    if not is_connected(g):
        raise GraphError("normalize requires a connected graph")
    drop_vertices = set()
    for v in g.vertex_list:
        hs = g.darts_at(v)
        if len(hs) != 1:
            continue
        h = hs[0]
        if g.edge_kind(h) != STANDARD:
            continue
        other = g.vertex_of(g.pair(h))
        if g.n_vertices == 2 and g.degree(other) == 1:
            continue  # K2
        drop_vertices.add(v)
    if not drop_vertices:
        return g
    return g.restrict(g.darts, g.vertices - drop_vertices)


def cached(g, name, build):
    """`build(g)`, computed on first use and kept on g as attribute `name`.

    Graphs and atoms are immutable, so a derived structure stays valid for
    g's lifetime.  The slot is written once: when two threads race to build
    it, both get the value stored first.

    A value cached on an object never refers back to it, directly or
    through a structure that names it: it holds plain data, such as dart
    and vertex sets, indices and graphs built from g.  Then g and
    all that is kept on it are freed by reference counting once its last
    user drops it, and nothing is left for the cyclic collector.
    """
    try:
        return g.__dict__[name]
    except KeyError:
        return g.__dict__.setdefault(name, build(g))


def point_index(g):
    """({vertex: point}, {dart: point}) for g's points: its vertices in
    `vertex_list` order, then its darts in `dart_list` order, from 0.
    Kept on g as `_points` (see `cached`)."""
    return cached(g, "_points", _index_points)


def _index_points(g):
    nv = len(g.vertex_list)
    return ({v: i for i, v in enumerate(g.vertex_list)},
            {h: nv + i for i, h in enumerate(g.dart_list)})


def point_images(g, vertex_map, dart_map):
    """The image tuple of the map of g's points given by its two maps."""
    vidx, didx = point_index(g)
    return tuple([vidx[vertex_map[v]] for v in g.vertex_list]
                 + [didx[dart_map[h]] for h in g.dart_list])


def point_maps(g, images):
    """(vertex_map, dart_map) of an image tuple over g's points; GraphError
    unless it permutes the vertex points and the dart points of g."""
    vl, dl = g.vertex_list, g.dart_list
    nv = len(vl)
    if (sorted(images[:nv]) != list(range(nv))
            or sorted(images[nv:]) != list(range(nv, nv + len(dl)))):
        raise GraphError("image tuple does not permute the graph's "
                         "vertices and darts")
    return ({v: vl[j] for v, j in zip(vl, images)},
            {h: dl[j - nv] for h, j in zip(dl, images[nv:])})


def connected_components(g):
    """Components as (darts, vertices) pairs, a fresh list of the pairs
    kept on g as `_components`; free items each form their own component."""
    return list(cached(g, "_components", _components))


def _components(g):
    """(darts, vertices) of each component: walk from each unseen vertex
    through its darts and their mates; the darts left over are free edges
    and free half-edges, one component per edge."""
    at, pairing, incidence = g._darts_at, g.pairing, g.incidence
    seen_v, seen_d = set(), set()
    comps = []
    for v in g.vertex_list:
        if v in seen_v:
            continue
        vv, dd = {v}, set()
        stack = [v]
        while stack:
            for h in at[stack.pop()]:
                k = pairing[h]
                dd.add(h)
                dd.add(k)
                w = incidence.get(k)
                if w is not None and w not in vv:
                    vv.add(w)
                    stack.append(w)
        seen_v |= vv
        seen_d |= dd
        comps.append((frozenset(dd), frozenset(vv)))
    for h in g.dart_list:
        if h not in seen_d:
            edge = frozenset((h, pairing[h]))
            seen_d |= edge
            comps.append((edge, frozenset()))
    comps.sort(key=lambda c: (min(c[1]) if c[1] else "",
                              min(c[0]) if c[0] else ""))
    return tuple(comps)


def is_connected(g):
    return len(cached(g, "_components", _components)) == 1


def require_standard_input(g, op):
    """Top-level algorithms take connected graphs with at least one vertex."""
    if not g.vertices:
        raise GraphError(f"{op}: graph has no vertices")
    if not is_connected(g):
        raise GraphError(f"{op}: graph is not connected")


def with_halvable_edges(g):
    """Retype every undirected edge as halvable (directed edges keep their
    orientation); admits quotients with half-edges."""
    types = {h: (HALVABLE if t == UNDIRECTED else t)
             for h, t in g.edge_type.items()}
    return Graph(g.darts, g.vertices, g.pairing, g.incidence, types,
                 g.color, g.tails)


def is_cycle(g):
    """True for cycles C_n (n >= 1; C_1 is a single vertex with a loop)."""
    if g.halfedges or not g.vertices or not is_connected(g):
        return False
    if any(g.edge_kind(h) in (PENDANT, FREE) for h in g.dart_list):
        return False
    return all(g.degree(v) == 2 for v in g.vertices) and g.n_edges == g.n_vertices


def is_path_with_two_halfedges(g):
    """A path of n >= 1 vertices whose two loose ends are half-edges."""
    if len(g.halfedges) != 2 or not g.vertices or not is_connected(g):
        return False
    if any(g.edge_kind(h) in (PENDANT, FREE, LOOP) for h in g.dart_list):
        return False
    if any(g.degree(v) != 2 for v in g.vertices):
        return False
    return g.n_edges == g.n_vertices - 1
