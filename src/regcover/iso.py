"""Canonical forms and isomorphism testing for half-edge multigraphs.

Isomorphisms act on darts: they must commute with the pairing, preserve
incidence (including definedness), colors, edge types, and the direction of
directed edges.  Optional boundary markings (sets of one or two vertices, or
ordered tuples) must be mapped onto each other.

One item index per graph, built once and cached on the graph (`_items`),
is the only place the search decodes graph structure.  It groups every edge
and half-edge under a key (kind tag, vertices, type, color, tail role), and
lists the darts at each vertex by their other end.  It has three readers:

- refinement colors each vertex by the signatures of its darts and the
  colors at their other ends, until the partition is stable;
- the canonical form is the lexicographic minimum of an encoding of the
  item groups over all vertex orders reached by individualization and
  refinement.  A leaf whose encoding equals the first or the best leaf's
  gives a vertex automorphism (the map between their orders); a node skips
  a child in the orbit of an explored child under the automorphisms found
  so far that fix its individualized prefix, since that subtree is an
  image of an explored one and holds the same encodings;
- the isomorphism search grows vertex bijections under the refined colors,
  compares each vertex's own items and the darts between assigned pairs by
  lookup, then extends a bijection to darts group by group: each key of g1
  maps to its image key in g2, the target items are permuted, and each
  item's darts follow one of its allowed ways.

`verify_isomorphism` reads the raw graph, so a witness check does not
depend on the index.
"""

from __future__ import annotations

import itertools

from .errors import InternalError, size_limit
from .graph import DIRECTED, HALF, LOOP, PENDANT, STANDARD, cached

MAX_VERTICES = 24

_TYPE_CODE = {"halvable": 0, "undirected": 1, "directed": 2}
_FLIP = (0, 2, 1)  # tail role of a standard edge seen from its other end


# -- the item index -----------------------------------------------------------

def _items(g):
    """Per-graph item index, kept on g as `_iso_items` (see `graph.cached`).

    groups: {(tag, vertices, type, color, tail role): [darts, ...]}, in key
        order.  Tags run 0-5 over standard edges, loops, pendant edges,
        attached half-edges, free edges and free half-edges.  Each item is
        its dart tuple in role order: (dart at a, dart at b) for a < b,
        (tail, head), (attached, free), or the lone dart of a half-edge.
        The tail role of a directed standard edge is 1 when the tail is at
        a, 2 when it is at b.
    ends: {v: {other end: sorted signatures (kind, type, color, role) of
        the darts at v}}.  The other end is a vertex (v itself for a loop),
        -1 for a free end, or -2 for a half-edge; a dart's role is 1 for a
        tail, 2 for a head, else 0.
    own: {v: the loops, free ends and half-edges at v, from ends[v]}.
    """
    return cached(g, "_iso_items", _index_items)


def _index_items(g):
    groups, ends = {}, {v: {} for v in g.vertex_list}

    def end(h, v, other, kind, typ, c):
        role = 0 if typ != DIRECTED else 1 if h in g.tails else 2
        ends[v].setdefault(other, []).append((kind, typ, c, role))

    for h, k in g.edges:
        kind, typ, c = g.edge_kind(h), g.edge_type[h], g.color[h]
        if k in g.tails:
            h, k = k, h
        u, w = g.vertex_of(h), g.vertex_of(k)
        if kind == STANDARD:
            role = 0 if typ != DIRECTED else 1 if u < w else 2
            if w < u:
                h, k, u, w = k, h, w, u
            key = (0, (u, w), typ, c, role)
            end(h, u, w, kind, typ, c)
            end(k, w, u, kind, typ, c)
        elif kind == LOOP:
            key = (1, (u,), typ, c, 0)
            end(h, u, u, kind, typ, c)
            end(k, u, u, kind, typ, c)
        elif kind == PENDANT:
            if u is None:
                h, k, u = k, h, w
            key = (2, (u,), typ, c, 0)
            end(h, u, -1, kind, typ, c)
        else:  # free edge
            key = (4, (), typ, c, 0)
        groups.setdefault(key, []).append((h, k))
    for h in g.halfedges:
        v = g.vertex_of(h)
        if v is None:
            key = (5, (), "", g.color[h], 0)
        else:
            key = (3, (v,), "", g.color[h], 0)
            end(h, v, -2, HALF, "", g.color[h])
        groups.setdefault(key, []).append((h,))
    ends = {v: {o: tuple(sorted(s)) for o, s in m.items()}
            for v, m in ends.items()}
    own = {v: (m.get(v), m.get(-1), m.get(-2)) for v, m in ends.items()}
    return dict(sorted(groups.items())), ends, own


# -- refinement ---------------------------------------------------------------

def _initial_colors(g, marking, ordered_marking):
    ends = _items(g)[1]
    marked = {}
    if ordered_marking:
        for i, v in enumerate(ordered_marking):
            marked[v] = i + 1
    elif marking:
        for v in marking:
            marked[v] = 1
    colors = {}
    for v in g.vertex_list:
        sig = tuple(sorted(s for sigs in ends[v].values() for s in sigs))
        colors[v] = (marked.get(v, 0), sig)
    return colors


def _refine(graph_colors):
    """Jointly refine vertex partitions of several graphs to a stable one.

    graph_colors: list of (graph, {vertex: color}) with arbitrary hashable
    colors.  Returns list of {vertex: int} with class ids comparable across
    the graphs.
    """
    all_ends = [_items(g)[1] for g, _ in graph_colors]

    def ranked(sig_maps):
        pool = sorted({s for m in sig_maps for s in m.values()})
        rank = {s: i for i, s in enumerate(pool)}
        return [{v: rank[s] for v, s in m.items()} for m in sig_maps]

    current = ranked([dict(cm) for _, cm in graph_colors])
    while True:
        sig_maps = []
        for ends, colors in zip(all_ends, current):
            # a free end (-1) or half-edge (-2) keeps its code as its color
            sig_maps.append({
                v: (colors[v], tuple(sorted((s, colors.get(o, o))
                                            for o, sigs in around.items()
                                            for s in sigs)))
                for v, around in ends.items()})
        nxt = ranked(sig_maps)
        if nxt == current:
            return current
        current = nxt


# -- canonical form -----------------------------------------------------------

def _encode(g, index, marking, ordered_marking):
    """One entry (tag, i, j, type code, color, role) per item; vertices are
    replaced by their index, and a standard edge's tail role follows."""
    items = []
    for (tag, vs, typ, c, role), its in _items(g)[0].items():
        i, j = [index[v] for v in vs] + [0] * (2 - len(vs))
        if tag == 0 and i > j:
            i, j, role = j, i, _FLIP[role]
        t = _TYPE_CODE.get(typ, -1) if tag in (0, 1, 4) else 0
        items += [(tag, i, j, t, c, role)] * len(its)
    mark = ()
    if ordered_marking:
        mark = tuple(index[v] for v in ordered_marking)
    elif marking:
        mark = tuple(sorted(index[v] for v in marking))
    return (len(index), tuple(sorted(items)), mark)


def _orbit_closure(points, maps):
    """The union of the orbits of `points` under the group the vertex
    maps generate."""
    closed, todo = set(points), list(points)
    while todo:
        x = todo.pop()
        for m in maps:
            if m[x] not in closed:
                closed.add(m[x])
                todo.append(m[x])
    return closed


def canonical_form(g, marking=None, ordered_marking=None, max_vertices=MAX_VERTICES):
    """Byte string determined exactly by the (marked) isomorphism class."""
    if g.n_vertices > max_vertices:
        raise size_limit("canonical_form", f"{g.n_vertices} vertices",
                         max_vertices, g, "max_vertices")
    marking = frozenset(marking) if marking else None
    ordered_marking = tuple(ordered_marking) if ordered_marking else None
    key = (marking, ordered_marking)
    cache = getattr(g, "_iso_canon", None)
    if cache is None:
        cache = g._iso_canon = {}
    if key in cache:
        return cache[key]

    base = _initial_colors(g, marking, ordered_marking)
    leaves = []  # (encoding, order) of the first leaf and of the best
    autos = []   # vertex automorphisms found at leaves

    def search(forced):
        init = {v: (1, forced.index(v)) if v in forced else (0, base[v])
                for v in g.vertex_list}
        colors = _refine([(g, init)])[0]
        cells = {}
        for v in g.vertex_list:
            if v not in forced:
                cells.setdefault(colors[v], []).append(v)
        big = sorted(c for c, vs in cells.items() if len(vs) > 1)
        if not big:
            order = sorted(g.vertex_list, key=lambda v: colors[v])
            index = {v: i for i, v in enumerate(order)}
            enc = _encode(g, index, marking, ordered_marking)
            if not leaves:
                leaves.extend([(enc, order)] * 2)
                return
            for ref_enc, ref_order in leaves:
                if enc == ref_enc:
                    autos.append(dict(zip(ref_order, order)))
                    return
            if enc < leaves[1][0]:
                leaves[1] = (enc, order)
            return
        explored = set()
        for v in sorted(cells[big[0]]):
            fixing = [a for a in autos if all(a[u] == u for u in forced)]
            if v in _orbit_closure(explored, fixing):
                continue
            explored.add(v)
            search(forced + (v,))

    search(())
    form = repr(leaves[1][0]).encode("ascii")
    cache[key] = form
    return form


# -- isomorphism search --------------------------------------------------------

def _free_items(groups):
    return [(key, len(items)) for key, items in groups.items() if not key[1]]


def _vertex_bijections(g1, g2, marking1, marking2, ordered1, ordered2, pinned):
    if g1.n_vertices != g2.n_vertices or g1.n_darts != g2.n_darts:
        return
    groups1, ends1, own1 = _items(g1)
    groups2, ends2, own2 = _items(g2)
    if _free_items(groups1) != _free_items(groups2):
        return
    init1 = _initial_colors(g1, marking1, ordered1)
    init2 = _initial_colors(g2, marking2, ordered2)
    colors1, colors2 = _refine([(g1, init1), (g2, init2)])
    hist1 = sorted(colors1.values())
    hist2 = sorted(colors2.values())
    if hist1 != hist2:
        return
    by_color = {}
    for w in g2.vertex_list:
        by_color.setdefault(colors2[w], []).append(w)
    order = sorted(g1.vertex_list, key=lambda v: (colors1[v], v))
    used = set()
    assignment = {}

    def compatible(v, w):
        if own1[v] != own2[w]:
            return False
        at1, at2 = ends1[v], ends2[w]
        for v2, w2 in assignment.items():
            if at1.get(v2) != at2.get(w2):
                return False
        return True

    def rec(i):
        if i == len(order):
            yield dict(assignment)
            return
        v = order[i]
        want = pinned.get(v)
        for w in by_color.get(colors1[v], ()):
            if w in used or (want is not None and w != want):
                continue
            if not compatible(v, w):
                continue
            used.add(w)
            assignment[v] = w
            yield from rec(i + 1)
            used.remove(w)
            del assignment[v]

    yield from rec(0)


def _dart_variants(g1, g2, vmap):
    """All dart bijections extending a structure-compatible vertex bijection.

    Each group of g1 is matched with the group of g2 under the image of its
    key; every permutation of the target items is tried, and each item maps
    its darts along one of its allowed ways (an undirected loop or free
    edge may also be turned around).
    """
    groups2 = _items(g2)[0]
    jobs = []
    for (tag, vs, typ, c, role), items in _items(g1)[0].items():
        image = tuple(vmap[v] for v in vs)
        if tag == 0 and image[0] > image[1]:
            image, role, ways = image[::-1], _FLIP[role], ((1, 0),)
        elif tag in (1, 4) and typ != DIRECTED:
            ways = ((0, 1), (1, 0))
        else:
            ways = (tuple(range(len(items[0]))),)
        targets = groups2.get((tag, image, typ, c, role))
        if targets is None or len(targets) != len(items):
            return
        jobs.append((items, targets, ways))
    dmap = {}

    def rec(ji):
        if ji == len(jobs):
            yield dict(dmap)
            return
        items, targets, ways = jobs[ji]
        for perm in itertools.permutations(targets):
            for combo in itertools.product(ways, repeat=len(items)):
                for src, dst, way in zip(items, perm, combo):
                    for h, i in zip(src, way):
                        dmap[h] = dst[i]
                yield from rec(ji + 1)

    yield from rec(0)


def isomorphisms_iter(g1, g2, marking1=None, marking2=None,
                      ordered1=None, ordered2=None, pinned=None):
    """Yield (vertex_map, dart_map) pairs for every isomorphism g1 -> g2."""
    pinned = dict(pinned) if pinned else {}
    for vmap in _vertex_bijections(g1, g2, marking1, marking2,
                                   ordered1, ordered2, pinned):
        for dmap in _dart_variants(g1, g2, vmap):
            yield vmap, dmap


def verify_isomorphism(g1, g2, vmap, dmap, marking1=None, marking2=None):
    """Direct check that (vmap, dmap) is a marking-respecting isomorphism."""
    if set(dmap) != set(g1.darts) or set(dmap.values()) != set(g2.darts):
        return False
    if set(vmap) != set(g1.vertices) or set(vmap.values()) != set(g2.vertices):
        return False
    for h in g1.dart_list:
        if dmap[g1.pairing[h]] != g2.pairing[dmap[h]]:
            return False
        v = g1.vertex_of(h)
        w = g2.vertex_of(dmap[h])
        if (v is None) != (w is None) or (v is not None and vmap[v] != w):
            return False
        if g1.color[h] != g2.color[dmap[h]]:
            return False
        if g1.edge_type.get(h) != g2.edge_type.get(dmap[h]):
            return False
        if (h in g1.tails) != (dmap[h] in g2.tails):
            return False
    if marking1 or marking2:
        m1 = frozenset(marking1 or ())
        m2 = frozenset(marking2 or ())
        if frozenset(vmap[v] for v in m1) != m2:
            return False
    return True


def are_isomorphic(g1, g2, marking1=None, marking2=None, max_vertices=MAX_VERTICES):
    """Return a witness dart map, or None.

    The witness is verified by a direct check before being returned.
    """
    for g in (g1, g2):
        if g.n_vertices > max_vertices:
            raise size_limit("are_isomorphic", f"{g.n_vertices} vertices",
                             max_vertices, g, "max_vertices")
    if g1 == g2 and frozenset(marking1 or ()) == frozenset(marking2 or ()):
        return {h: h for h in g1.dart_list}
    for vmap, dmap in isomorphisms_iter(g1, g2, marking1, marking2):
        if not verify_isomorphism(g1, g2, vmap, dmap, marking1, marking2):
            raise InternalError("are_isomorphic: witness failed verification")
        return dmap
    return None


def automorphisms_iter(g, pinned=None, marking=None):
    """Yield (vertex_map, dart_map) for every automorphism of g."""
    yield from isomorphisms_iter(g, g, marking1=marking, marking2=marking,
                                 pinned=pinned)
