"""Canonical forms and isomorphism testing for half-edge multigraphs.

Isomorphisms act on darts: they must commute with the pairing, preserve
incidence (including definedness), colors, edge types, and the direction of
directed edges.  Optional boundary markings (sets of one or two vertices, or
ordered tuples) must be mapped onto each other.

One item index per graph, built once and cached on the graph (`_items`),
is the only place the search decodes graph structure.  It groups every edge
and half-edge under a key (kind tag, vertices, type, color, tail role), and
lists the darts at each vertex by their other end.  It has four readers:

- refinement colors each vertex by the signatures of its darts and the
  colors at their other ends, until the partition is stable.  It works in
  rounds over the cells in class-id order: after the first round it
  re-signs only the cells next to a part, but the largest, of a cell that
  split in the round before, and a cell's id is its position.  Any other
  cell sees ids shift only in order or move together, so it cannot
  split, and the ids equal those of a pass re-signing every vertex;
- the canonical form is the lexicographic minimum of an encoding of the
  item groups over all vertex orders reached by individualization and
  refinement.  A leaf whose encoding equals the first or the best leaf's
  gives a vertex automorphism (the map between their orders); a node skips
  a child in the orbit of an explored child under the automorphisms found
  so far that fix its individualized prefix, since that subtree is an
  image of an explored one and holds the same encodings.  A leaf that
  repeats the first leaf at its depth returns the search to where its path
  left the first path (McKay & Piperno's first-path rule): forced vertices
  take the last class ids in the order forced, so the automorphism sends
  the first path onto the current one position by position, fixes their
  common prefix, and maps the explored child of the first path there onto
  the current one.  Every leaf skipped repeats an encoding met earlier, so
  the first leaf with the least encoding, the form and its order, stay
  those of the search without the return; the nodes of theta(1^7), the
  cube and Petersen go 86/14/19 -> 36/10/10.  Seeded automorphisms: a
  graph may carry a provider of vertex automorphisms known without a
  search (`seed_automorphisms`, a write-once slot read only by the
  unmarked search, once its root branches).  Each map is checked to be a
  bijection of the vertices with dart jobs, so an automorphism, and the
  search starts its list of found automorphisms from them.  A child they
  skip is the image of an explored one under a genuine automorphism
  fixing the prefix, so its leaves repeat encodings met earlier and the
  form is unchanged; the first child of every node is still explored, so
  the first path and the chain's base are too.  The first leaf with the
  least encoding may lie in a skipped subtree, so the best-leaf order of
  a seeded graph may differ from an unseeded copy's;
- the stabilizer chain is read off the canonical search.  Its base is the
  first path, and the orbit of each base vertex is closed under the
  automorphisms found at leaves that fix the base vertices before it,
  composed as image tuples over g's points (`graph.point_index`); a map
  is lifted to darts, by its first dart map, only when it extends the
  orbit (Schreier-Sims; `chain_lifts`).  A first-path child is skipped
  only as the image of an explored one under automorphisms fixing the
  prefix, and an explored child in the orbit leads to a leaf repeating
  the first leaf, so the orbits are complete; with the base
  individualized, refinement is discrete, so the automorphisms fixing it
  fix every vertex.  Counts come from the chain: the product of the orbit
  sizes and, per group, of |items|! * |ways|^|items| for the identity
  map, listing no dart map.  The chain is multiplied out here alone:
  `chain_cosets` lists its coset representatives and `chain_kernel` the
  automorphisms fixing every vertex, as image tuples, and the group layer
  builds each element it needs as a product of the two.  Its one base and
  one generating set are the chain's too (`chain_base`,
  `chain_generators`), and no other module reads a kernel job.
  The automorphisms agreeing with a vertex map `pinned` are one coset:
  the map between the best-leaf orders with its vertices and with their
  images marked in order, times the chain of the pinned vertices, empty
  when those two forms differ.  A listed vertex map extends to darts
  group by group: each key maps to its image key, the target items are
  permuted, and each item's darts follow one of its allowed ways, choices
  that are independent;
- the involution builder extends a vertex map that is a fixed-point-free
  involution to the dart maps that are too, reversing no non-halvable
  edge, one per class under conjugation by the automorphisms fixing every
  vertex: the first of the class in the order the dart maps are listed.
  Under such a map the groups come in pairs of image keys, and the kernel
  conjugates each group's maps on its own.  Two partner groups have one
  class, and a group that is its own image one per number of its items
  left in place, so each first is built directly and no other map is.

Two graphs are isomorphic exactly when their canonical forms are equal.
The map between their best-leaf orders then preserves the encoding, so its
first dart extension is a witness.  The canonical search is the only
backtracking search: isomorphisms, groups, counts and listings all read
it.

`verify_isomorphism` reads the raw graph, so a witness check does not
depend on the index.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

from .errors import GraphError, InternalError, size_limit
from .graph import (DIRECTED, HALF, HALVABLE, LOOP, PENDANT, STANDARD,
                    cached, point_images, point_index)

MAX_VERTICES = 24

_TYPE_CODE = {"halvable": 0, "undirected": 1, "directed": 2}
_FLIP = (0, 2, 1)  # tail role of a standard edge seen from its other end
_ONE_WAY = {1: ((0,),), 2: ((0, 1),)}  # item size: its darts kept in place


# -- the item index -----------------------------------------------------------

def _items(g):
    """Per-graph item index, kept on g as `_iso_items` (see `graph.cached`).

    groups: {(tag, vertices, type, color, tail role): (darts, ...)}, in key
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
    sigs: {v: the sorted signatures of all darts at v}, v's initial color.
    codes: {v: (code, other end) per dart at v}.  The code is the rank of
        the dart's signature among g's times n + 2, plus 2, so the code
        plus the other end's class id (or its -1 or -2) orders darts as
        (signature, id) pairs do.
    encoding: the groups as `_encode` reads them: (a, b, type code, color,
        role, count) per standard edge group, (tag, vertex, ...) per group
        at one vertex, and the entries of the groups at no vertex.
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
    rank = {s: i for i, s in enumerate(sorted(
        {s for m in ends.values() for ss in m.values() for s in ss}))}
    k = len(ends) + 2
    sigs, codes = {}, {}
    for v, m in ends.items():
        mine = []
        for o, ss in m.items():
            ss.sort()
            m[o] = tuple(ss)
            mine += ss
        mine.sort()
        sigs[v] = tuple(mine)
        codes[v] = tuple((rank[s] * k + 2, o)
                         for o, ss in m.items() for s in ss)
    groups = {key: tuple(its) for key, its in sorted(groups.items())}
    edges, ones, rest = [], [], []
    for (tag, vs, typ, c, role), its in groups.items():
        t = _TYPE_CODE.get(typ, -1) if tag in (0, 1, 4) else 0
        if tag == 0:
            edges.append((*vs, t, c, role, len(its)))
        elif vs:
            ones.append((tag, *vs, t, c, role, len(its)))
        else:
            rest += [(tag, 0, 0, t, c, role)] * len(its)
    return groups, ends, sigs, codes, (edges, ones, rest)


# -- refinement ---------------------------------------------------------------

def _initial_colors(g, marking, ordered_marking):
    for v in ordered_marking or marking or ():
        if v not in g.vertices:
            raise GraphError(f"unknown vertex {v!r}")
    sigs = _items(g)[2]
    marked = {}
    if ordered_marking:
        for i, v in enumerate(ordered_marking):
            marked[v] = i + 1
    elif marking:
        for v in marking:
            marked[v] = 1
    return {v: (marked.get(v, 0), sigs[v]) for v in g.vertex_list}


def _ranked(colors):
    """Replace each color by its rank among the distinct colors."""
    rank = {c: i for i, c in enumerate(sorted(set(colors.values())))}
    return {v: rank[c] for v, c in colors.items()}


def _refine(g, colors):
    """Refine a vertex coloring of g (any sortable colors) to the coarsest
    stable one; returns {vertex: class id}.

    The cells are kept in class-id order, and a round splits each cell by
    the sorted distinct signatures of its members: (dart signature, color
    at the other end) for every dart, read from the previous round's ids.
    A cell's new id is its position.  The first round signs every
    non-singleton cell; later rounds re-sign only those with a member next
    to a part, but the largest, of a cell that split in the previous round
    (Hopcroft's rule; a loop makes a vertex its own neighbour).  Any other
    cell sees ids of unsplit cells, which shift in order, and the largest
    part's id where it saw the whole old cell, so its members keep equal
    signatures and it cannot split.  The result is therefore the coloring
    a full pass gets by ranking (color, signature) of every vertex each
    round until no class splits.
    """
    _, ends, _, codes, _ = _items(g)
    rank = {c: i for i, c in enumerate(sorted(set(colors.values())))}
    cells, current = [[] for _ in rank], {}
    for v, c in colors.items():
        current[v] = i = rank[c]
        cells[i].append(v)
    touched = range(len(cells))
    while True:
        split, new_cells, color = [], [], current.get
        for i, cell in enumerate(cells):
            if len(cell) > 1 and i in touched:
                by_sig = {}
                for v in cell:
                    # a free end (-1) or half-edge (-2) keeps its code
                    sig = tuple(sorted([c + color(o, o)
                                        for c, o in codes[v]]))
                    by_sig.setdefault(sig, []).append(v)
                if len(by_sig) > 1:
                    parts = [by_sig[sig] for sig in sorted(by_sig)]
                    new_cells += parts
                    split += sorted(parts, key=len)[:-1]
                    continue
            new_cells.append(cell)
        if not split:
            return current
        cells = new_cells
        current = {v: i for i, cell in enumerate(cells) for v in cell}
        touched = {current[o] for part in split for u in part
                   for o in ends[u] if o in current}


# -- canonical form -----------------------------------------------------------

def _encode(g, index, marking, ordered_marking):
    """One entry (tag, i, j, type code, color, role) per item; vertices are
    replaced by their index, and a standard edge's tail role follows."""
    edges, ones, rest = _items(g)[4]
    items = list(rest)
    for a, b, t, c, role, n in edges:
        i, j = index[a], index[b]
        items += [(0, i, j, t, c, role) if i < j
                  else (0, j, i, t, c, _FLIP[role])] * n
    for tag, a, t, c, role, n in ones:
        items += [(tag, index[a], 0, t, c, role)] * n
    mark = ()
    if ordered_marking:
        mark = tuple(index[v] for v in ordered_marking)
    elif marking:
        mark = tuple(sorted(index[v] for v in marking))
    return (len(index), tuple(sorted(items)), mark)


def orbit_closure(points, maps):
    """The union of the orbits of `points` under the group the maps
    generate; a map is anything indexed by point (a dict or an image
    tuple)."""
    closed, todo = set(points), list(points)
    while todo:
        x = todo.pop()
        for m in maps:
            y = m[x]
            if y not in closed:
                closed.add(y)
                todo.append(y)
    return closed


def canonical_form(g, marking=None, ordered_marking=None, max_vertices=MAX_VERTICES):
    """Byte string determined exactly by the (marked) isomorphism class.
    A graph is marked by a set or by a sequence of vertices, not both: a
    GraphError.

    `max_vertices` caps the input size; None means no cap, which is what
    the library's own comparisons pass, as none of their graphs is larger
    than the input graph."""
    if max_vertices is not None and g.n_vertices > max_vertices:
        raise size_limit("canonical_form", f"{g.n_vertices} vertices",
                         max_vertices, g, "max_vertices")
    return _canonical(g, marking, ordered_marking)[0]


def _canonical(g, marking, ordered_marking):
    """(form bytes, vertex order of the best leaf, first path, vertex
    automorphisms seeded or found), kept on g per marking."""
    marking = frozenset(marking) if marking else None
    ordered_marking = tuple(ordered_marking) if ordered_marking else None
    if marking and ordered_marking:
        raise GraphError("a marking and an ordered marking were both given")
    cache = cached(g, "_iso_canon", lambda g: {})
    key = (marking, ordered_marking)
    if key not in cache:
        (enc, order), first, autos = _best_leaf(g, marking, ordered_marking)
        cache[key] = (repr(enc).encode("ascii"), order, tuple(first), autos)
    return cache[key]


def transfer_form(g1, g2, vmap, dmap, marking1, marking2):
    """Give g2 its `marking2`-marked canonical entry from g1's, searched if
    need be, without a search of g2; returns whether it did.  Nothing is
    written unless `verify_isomorphism` accepts (vmap, dmap) as a map of g1
    onto g2 that sends marking1 onto marking2, so a map of the wrong size
    or structure leaves g2 to its own search.  Isomorphic graphs share
    form bytes, so the entry holds g1's
    bytes with its best-leaf order, first path and automorphisms carried
    through vmap: an order of g2 with the same encoding, possibly not the
    one g2's own search would pick first."""
    if not verify_isomorphism(g1, g2, vmap, dmap, marking1, marking2):
        return False
    form, order, first, autos = _canonical(g1, marking1, None)
    cached(g2, "_iso_canon", lambda g: {}).setdefault(
        (frozenset(marking2) if marking2 else None, None),
        (form, [vmap[v] for v in order], tuple(vmap[v] for v in first),
         [{vmap[v]: vmap[w] for v, w in a.items()} for a in autos]))
    return True


def _best_leaf(g, marking, ordered_marking):
    search = _Search(g, marking, ordered_marking)
    search.search(())
    return search.leaves[1], search.first, search.autos


class _Search:
    """The state of one canonical search of g.  The search recurses through
    a method, so no frame or closure of it outlives the search, and all it
    leaves behind is what `_best_leaf` returns."""

    __slots__ = ("g", "marking", "ordered_marking", "base", "after",
                 "leaves", "autos", "first")

    def __init__(self, g, marking, ordered_marking):
        self.g = g
        self.marking, self.ordered_marking = marking, ordered_marking
        # forced vertices rank after every base color, in the order forced
        self.base = _ranked(_initial_colors(g, marking, ordered_marking))
        self.after = len(set(self.base.values()))
        self.leaves = []  # (encoding, order) of the first leaf and of the best
        self.autos = []   # vertex automorphisms seeded or found at leaves
        self.first = []   # the first leaf's individualized vertices

    def search(self, forced):
        """Explore the node that individualized `forced`; returns the depth
        to go back to when a leaf below repeated the first leaf, else None."""
        g, leaves, autos, first = self.g, self.leaves, self.autos, self.first
        init = dict(self.base)
        for i, v in enumerate(forced):
            init[v] = self.after + i
        colors = _refine(g, init)
        cells = {}
        for v, c in colors.items():
            cells.setdefault(c, []).append(v)
        if len(cells) == len(colors):
            # discrete: each vertex's class id is its position
            order = sorted(colors, key=colors.get)
            enc = _encode(g, colors, self.marking, self.ordered_marking)
            if not leaves:
                leaves.extend([(enc, order)] * 2)
                first.extend(forced)
                return None
            for i, (ref_enc, ref_order) in enumerate(leaves):
                if enc == ref_enc:
                    autos.append(dict(zip(ref_order, order)))
                    if i == 0 and len(forced) == len(first):
                        # the map sends first[j] to forced[j]: below their
                        # common prefix, this path's subtree is the image
                        # of the first path's, so go back there
                        k = 0
                        while first[k] == forced[k]:
                            k += 1
                        return k
                    return None
            if enc < leaves[1][0]:
                leaves[1] = (enc, order)
            return None
        # `explored` is the explored children's orbit closure under
        # `fixing`: closed again only when `fixing` grows, and otherwise
        # extended by the orbit of each newly explored child
        explored, fixing, seen = set(), [], 0
        # forced vertices are singletons: the target is the first cell of
        # two or more vertices
        target = min(c for c, vs in cells.items() if len(vs) > 1)
        if not forced and not (self.marking or self.ordered_marking):
            autos.extend(_seeds(g))  # read once the unmarked root branches
        for v in sorted(cells[target]):
            # automorphisms found since the last child, if they fix forced
            new = [a for a in autos[seen:] if all(a[u] == u for u in forced)]
            seen = len(autos)
            if new:
                fixing += new
                explored = orbit_closure(explored, fixing)
            if v in explored:
                continue
            explored |= orbit_closure((v,), fixing)
            back = self.search(forced + (v,))
            if back is not None and back < len(forced):
                return back
        return None


def seed_automorphisms(g, provider):
    """Give g's unmarked canonical search a start: `provider(g)` returns
    vertex automorphisms of g, {vertex: image} over every vertex, known
    without a search.  It is called when that search first branches, and
    not before; the slot is written once (see `graph.cached`)."""
    cached(g, "_iso_seeds", lambda g: provider)


def found_automorphisms(g):
    """The vertex automorphisms g's unmarked canonical search started
    from or found, or () if that search has not run; none is started."""
    entry = cached(g, "_iso_canon", lambda g: {}).get((None, None))
    return () if entry is None else entry[3]


def _seeds(g):
    """The maps of g's seed provider (see `seed_automorphisms`), each
    checked to be a vertex automorphism: a bijection of the vertices whose
    image keys match g's item groups, which then extends to darts."""
    provider = g.__dict__.get("_iso_seeds")
    if provider is None:
        return []
    maps = provider(g)
    vertices = g.vertices
    for m in maps:
        if (m.keys() != vertices or set(m.values()) != vertices
                or _dart_jobs(g, g, m) is None):
            raise InternalError("canonical search: a seeded map is not an "
                                "automorphism of the graph")
    return maps


# -- automorphism groups -------------------------------------------------------

def stabilizer_chain(g, fixed=()):
    """(transversals, kernel): the automorphisms of g fixing each vertex
    of `fixed`, read off the canonical search that marks `fixed` in order
    (see the module docstring for why it is complete).  Kept on g per
    `fixed`, as the search is (see `graph.cached`).

    Along the search's first path v_1 ... v_m, transversals[i] holds, as
    image tuples over g's points (see `graph.point_index`), one
    automorphism fixing v_1 ... v_i-1 and sending v_i to w for each w != v_i
    they reach, in point order.  kernel is the dart jobs of the identity
    vertex map, whose `dart_maps` fix every vertex.  Every automorphism
    fixing `fixed` is t_1 * ... * t_m * k for exactly one k and one t_i
    from each transversal or the identity.  Every caller shares the one
    chain kept on g, so it is tuples throughout.
    """
    return chain_lifts(g, fixed)[0]


def chain_lifts(g, fixed=()):
    """(chain, path, lifts): `stabilizer_chain(g, fixed)`, the points of
    its first path, and the automorphisms it lifted to close its orbits,
    image tuples in the order lifted, of which each coset representative
    is a product."""
    fixed = tuple(fixed or ())
    chains = cached(g, "_iso_chains", lambda g: {})
    if fixed not in chains:
        chains[fixed] = _read_chain(g, fixed)
    return chains[fixed]


def chain_base(g):
    """Points whose images tell apart the automorphisms of g: its chain's
    first path, which names the vertex part t of t * k, and a dart of each
    item that a kernel job moves, but the last one of a job that cannot
    turn it, which then name k."""
    return cached(g, "_iso_chain_extras", _chain_extras)[0]


def chain_generators(g):
    """Image tuples that generate the automorphisms of g: the maps
    `chain_lifts` lifted and, per kernel job, the transposition of its
    first two items, the cycle of all its items, and its first item turned
    along its second way if it has one, which generate Sym(items) wreath
    the ways."""
    return cached(g, "_iso_chain_extras", _chain_extras)[1]


def _chain_extras(g):
    """(`chain_base`, `chain_generators`), kept on g when first asked for
    (see `graph.cached`)."""
    (_, kernel), first, lifts = chain_lifts(g)
    didx = point_index(g)[1]
    base, gens = list(first), list(lifts)
    for _, items, _, ways in kernel:
        n = len(items)
        base += [didx[item[0]] for item in items[:n - (len(ways) == 1)]]
        moves = []  # {item position: (target position, way)} per move
        if n > 1:
            moves.append({0: (1, 0), 1: (0, 0)})
        if n > 2:
            moves.append({i: ((i + 1) % n, 0) for i in range(n)})
        if len(ways) > 1:
            moves.append({0: (0, 1)})
        for move in moves:
            images = list(range(len(g.vertex_list) + len(g.dart_list)))
            for i, (j, w) in move.items():
                for h, r in zip(items[i], ways[w]):
                    images[didx[h]] = didx[items[j][r]]
            gens.append(tuple(images))
    return tuple(base), tuple(gens)


def _read_chain(g, fixed):
    first, autos = _canonical(g, None, fixed or None)[2:]
    point = point_index(g)[0]
    vertices = g.vertex_list
    one = tuple(range(len(vertices) + len(g.dart_list)))
    lifted = {}  # position in autos: image tuple
    live = range(len(autos))  # positions of the autos fixing the prefix
    transversals = []
    for v in first:
        orbit = orbit_closure((v,), [autos[j] for j in live])
        reps, gens = {point[v]: one}, []
        while len(reps) < len(orbit):
            for j in live:
                a = autos[j]
                if any(point[a[vertices[x]]] not in reps for x in reps):
                    if j not in lifted:
                        lifted[j] = point_images(
                            g, a, _first_dart_map(_dart_jobs(g, g, a)))
                    gens.append(lifted[j])
                    _close_orbit(reps, gens)
        transversals.append(tuple(reps[x] for x in sorted(reps)
                                  if x != point[v]))
        live = [j for j in live if autos[j][v] == v]
    kernel = _dart_jobs(g, g, {v: v for v in vertices})
    return ((tuple(transversals), tuple(kernel)),
            tuple(point[v] for v in first), tuple(lifted.values()))


def chain_cosets(g, fixed=()):
    """The coset representatives t_1 * ... * t_m of `stabilizer_chain(g,
    fixed)`, each t_i from transversal i or the identity, as image tuples
    composed as (t * x)[p] = t[x[p]], in the order of nested loops over
    t_1 ... t_m, the identity first at each.  Two that share a vertex part
    are an InternalError, as the chain names one coset of the kernel by
    each vertex map."""
    nv = len(g.vertex_list)
    cosets = [tuple(range(nv + len(g.dart_list)))]
    for reps in reversed(stabilizer_chain(g, fixed)[0]):
        # t * x looks x's images up in t; a representative moves a vertex,
        # so there are two points and each getter returns a tuple
        times = [itemgetter(*x) for x in cosets]
        cosets += [times_x(t) for t in reps for times_x in times]
    parts = len({x[:nv] for x in cosets})
    if parts != len(cosets):
        raise InternalError(f"stabilizer chain: {len(cosets)} coset "
                            f"representatives have {parts} distinct vertex "
                            f"parts")
    return cosets


def chain_kernel(g):
    """The image tuples of the automorphisms of g fixing every vertex, the
    `dart_maps` of the kernel of `stabilizer_chain(g)`, the identity
    first.  A job of one item with one way fixes that item's darts, so
    only the other jobs are listed."""
    didx = point_index(g)[1]
    one = range(len(g.vertex_list) + len(g.dart_list))
    kernel = []
    for dmap in dart_maps([job for job in stabilizer_chain(g)[1]
                           if len(job[1]) * len(job[3]) > 1]):
        images = list(one)
        for h, k in dmap.items():
            images[didx[h]] = didx[k]
        kernel.append(tuple(images))
    return kernel


def _close_orbit(reps, gens):
    """Close {point: image tuple sending the base point there} under the
    tuples in `gens`, adding s * reps[x] = s[reps[x][p]] at each new s[x]."""
    todo = list(reps)
    while todo:
        x = todo.pop()
        for s in gens:
            y = s[x]
            if y not in reps:
                reps[y] = tuple(map(s.__getitem__, reps[x]))
                todo.append(y)


def _dart_jobs(g1, g2, vmap):
    """One (image key, items, target items, ways) job per group of g1, in
    key order, or None when an image key has no group of equal size in g2.

    An item maps its darts along one of its ways: a tuple giving, for each
    of its darts in role order, the role of the image dart in the target
    item (an undirected loop or free edge may also be turned around).
    """
    groups2 = _items(g2)[0]
    jobs = []
    image_of = vmap.__getitem__
    for (tag, vs, typ, c, role), items in _items(g1)[0].items():
        image = tuple(map(image_of, vs))
        if tag == 0 and image[0] > image[1]:
            image, role, ways = image[::-1], _FLIP[role], ((1, 0),)
        elif tag in (1, 4) and typ != DIRECTED:
            ways = ((0, 1), (1, 0))
        else:
            ways = _ONE_WAY[len(items[0])]
        key = (tag, image, typ, c, role)
        targets = groups2.get(key)
        if targets is None or len(targets) != len(items):
            return None
        jobs.append((key, items, targets, ways))
    return jobs


def _dart_variants(g1, g2, vmap):
    """All dart bijections extending a structure-compatible vertex
    bijection (see `dart_maps`)."""
    jobs = _dart_jobs(g1, g2, vmap)
    if jobs is not None:
        yield from dart_maps(jobs)


def dart_maps(jobs):
    """The dart maps of a vertex map's dart jobs: each group of g1 is
    matched with its image group, every permutation of the target items
    is tried, and each item maps its darts along one of its ways.  They
    follow nested loops over the jobs in order and, within a job, over the
    permutations and then the ways."""
    choices = [[tuple((h, dst[i]) for src, dst, way in zip(items, perm, combo)
                      for h, i in zip(src, way))
                for perm in itertools.permutations(targets)
                for combo in itertools.product(ways, repeat=len(items))]
               for _, items, targets, ways in jobs]
    for choice in itertools.product(*choices):
        yield dict(itertools.chain.from_iterable(choice))


def _first_dart_map(jobs):
    """The first of `dart_maps(jobs)`: each item onto the target item in
    its own position, along its first way."""
    dmap = {}
    for _, items, targets, ways in jobs:
        for src, dst in zip(items, targets):
            for h, i in zip(src, ways[0]):
                dmap[h] = dst[i]
    return dmap


def chain_order(chain):
    """The order of a `stabilizer_chain`'s group: the product of the
    transversal sizes, each plus one for the identity, and the number of
    the kernel's `dart_maps`, |items|! * |ways|^|items| per job."""
    transversals, kernel = chain
    return math.prod([len(reps) + 1 for reps in transversals]
                     + [math.factorial(len(items)) * len(ways) ** len(items)
                        for _, items, _, ways in kernel])


def _coset_shift(g, pinned):
    """(fixed, shift): the vertices `pinned` maps, in its order, and a
    vertex automorphism of g that agrees with it, the map between the
    best-leaf orders with `fixed` and with its images marked in order;
    shift is None when those two forms differ, so that none agrees."""
    fixed = tuple(pinned or ())
    form, order = _canonical(g, None, fixed or None)[:2]
    form2, order2 = _canonical(g, None,
                               tuple(pinned[v] for v in fixed) or None)[:2]
    return fixed, dict(zip(order, order2)) if form == form2 else None


def count_automorphisms(g, pinned=None):
    """Number of automorphisms of g that agree with `pinned` on vertices:
    one coset of the group fixing every pinned vertex, whose `chain_order`
    it is, or none when no automorphism maps the pinned vertices, marked in
    order, onto their images (see `_coset_shift`)."""
    fixed, shift = _coset_shift(g, pinned)
    return 0 if shift is None else chain_order(stabilizer_chain(g, fixed))


def _automorphism_vmaps(g, pinned):
    """The vertex maps of the automorphisms of g that agree with `pinned`:
    shift * h over the vertex parts h of `chain_cosets` of the pinned
    vertices (see `_coset_shift`), each once, lexicographic in the
    point order of the images along the vertices sorted by (refined
    color, vertex)."""
    fixed, shift = _coset_shift(g, pinned)
    if shift is None:
        return []
    point, vertices = point_index(g)[0], g.vertex_list
    to = [point[shift[v]] for v in vertices]
    maps = [[to[p] for p in x[:len(vertices)]]
            for x in chain_cosets(g, fixed)]
    colors = _refine(g, _initial_colors(g, None, None))
    along = [point[v] for v in sorted(vertices, key=lambda v: (colors[v], v))]
    maps.sort(key=lambda m: [m[p] for p in along])
    return [dict(zip(vertices, map(vertices.__getitem__, m))) for m in maps]


def automorphisms_iter(g, pinned=None):
    """Yield (vertex_map, dart_map) for every automorphism of g that agrees
    with `pinned`: each vertex map of `_automorphism_vmaps` with its
    `dart_maps`, in order."""
    for vmap in _automorphism_vmaps(g, pinned):
        for dmap in _dart_variants(g, g, vmap):
            yield vmap, dmap


def semiregular_involutions_iter(g, pinned=None):
    """Yield (vertex_map, dart_map) for the first of each class, under
    conjugation by the automorphisms fixing every vertex, of the
    semiregular involutions that `automorphisms_iter(g, pinned)` yields,
    in the same order.  Only the vertex maps of the pinned coset that are
    fixed-point-free involutions are extended (`_involution_dart_maps`)."""
    for vmap in _automorphism_vmaps(g, pinned):
        if all(w != v and vmap[w] == v for v, w in vmap.items()):
            for dmap in _involution_dart_maps(g, vmap):
                yield vmap, dmap


def _involution_dart_maps(g, vmap):
    """The first of each class, under conjugation by the kernel (the
    automorphisms fixing every vertex), of the dart maps extending the
    fixed-point-free vertex involution vmap that are fixed-point-free
    involutions reversing no non-halvable edge, in `_dart_variants` order.

    vmap sends each group's image key back to the group, so each group is
    its own image or has a partner, and the kernel conjugates each group's
    maps on its own, so a class is one choice per group.  Two partners
    have one class: the first maps its items onto the partner's in
    position order along the first way, and the second takes the inverse.
    A group that is its own image has one class per number of items left
    in place (`_item_involutions`).  The first of a class is its first
    choice at every group, and the classes follow in the order of their
    firsts.
    """
    jobs = _dart_jobs(g, g, vmap)
    if jobs is None:
        return
    position = {key: i for i, key in enumerate(_items(g)[0])}
    choices = []  # per group first of its pair: (item, image, way) lists
    for ji, (image_key, items, targets, ways) in enumerate(jobs):
        partner = position[image_key]
        if partner == ji:
            maps = _item_involutions(items, ways, image_key[2] == HALVABLE)
        elif partner > ji:
            maps = [(targets, (ways[0],) * len(items))]
        else:
            continue
        choices.append([tuple(zip(items, *m)) for m in maps])
    for choice in itertools.product(*choices):
        dmap = {}
        for src, dst, way in itertools.chain.from_iterable(choice):
            for h, i in zip(src, way):
                dmap[h], dmap[dst[i]] = dst[i], h
        yield dmap


def _item_involutions(items, ways, halvable):
    """The first (item permutation, ways) pair, in `_dart_variants` order,
    of each class of those that make a group's own items swap in pairs,
    under the kernel's permutations and turns of the items: one class per
    number f of items left in place, f = n, n - 2, ..., in that order.  An
    item stays put only by turning its edge around, which needs a halvable
    edge, so f > 0 only then.  The first of a class turns items 0 ... f-1
    along the first way that turns an item and exchanges f with f+1, f+2
    with f+3, ... along the first way, which is its own inverse."""
    turned = [w for w in ways if all(w[r] != r for r in range(len(w)))]
    n = len(items)
    for f in range(n, -1, -2):
        if f == 0 or halvable and turned:
            perm = [*range(f), *(f + (i ^ 1) for i in range(n - f))]
            yield (tuple(items[j] for j in perm),
                   (*turned[:1] * f, *(ways[0],) * (n - f)))


# -- isomorphism --------------------------------------------------------------

def verify_isomorphism(g1, g2, vmap, dmap, marking1=None, marking2=None):
    """Direct check that (vmap, dmap) is a marking-respecting isomorphism."""
    # onto maps between sets of equal size are bijections; without this a
    # covering projection of a larger g1 would pass
    if g1.n_vertices != g2.n_vertices or g1.n_darts != g2.n_darts:
        return False
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

    The graphs are isomorphic exactly when their canonical forms are equal;
    the witness maps the best-leaf vertex order of g1 onto that of g2 and is
    verified by a direct check before being returned.  `max_vertices`
    caps both inputs as in `canonical_form`; None means no cap.
    """
    for g in (g1, g2):
        if max_vertices is not None and g.n_vertices > max_vertices:
            raise size_limit("are_isomorphic", f"{g.n_vertices} vertices",
                             max_vertices, g, "max_vertices")
    if (sorted(_initial_colors(g1, marking1, None).values())
            != sorted(_initial_colors(g2, marking2, None).values())):
        return None
    if _canonical(g1, marking1, None)[0] != _canonical(g2, marking2, None)[0]:
        return None
    witness = leaf_isomorphism(g1, g2, marking1, marking2)
    if witness is None:
        raise InternalError("are_isomorphic: witness failed verification")
    return witness[1]


def leaf_isomorphism(g1, g2, marking1=None, marking2=None):
    """(vmap, dmap), or None: vmap maps the best-leaf vertex order of g1
    onto that of g2 under the set markings, and dmap is the first dart map
    of its dart jobs.  None unless `verify_isomorphism` accepts the pair
    with both markings; it is an isomorphism when the two forms are equal,
    which the caller has established."""
    order1 = _canonical(g1, marking1, None)[1]
    order2 = _canonical(g2, marking2, None)[1]
    vmap = dict(zip(order1, order2))
    jobs = _dart_jobs(g1, g2, vmap)
    dmap = None if jobs is None else _first_dart_map(jobs)
    if dmap is None or not verify_isomorphism(g1, g2, vmap, dmap,
                                              marking1, marking2):
        return None
    return vmap, dmap
