"""Atoms: the inclusion-minimal subgraphs replaced during reduction.

Three kinds exist.  Block atoms hang off a single articulation (stars of
pendant-like items, or pendant blocks).  Proper atoms are cut out by a
non-trivial 2-cut inside a block.  Dipoles are maximal bundles of parallel
edges between two vertices of degree at least three.  A graph with no atoms
is primitive: essentially 3-connected, essentially a cycle, K2, or a lone
vertex with at most one pendant-like item.

Proper atoms and the 3-connectivity test both need a graph's 2-cuts: the
pairs {a, b} of vertices of degree three or more whose removal disconnects
the rest through standard edges.  They come from the one cut walk of
`blocks.lowpoints`, run once per such vertex a on G - a: the children
that a vertex b cuts off, with its parent's side, are the pieces b leaves
(`_cut_pairs`), so no search runs per pair.  The sides of a 2-cut are the
search trees of the same walk on G - {a, b}.

Every part found on the way, a block-tree part, a side of a 2-cut or a
dipole, is a (darts, vertices) pair.  An atom keeps its pair and its own
graph, `g.restrict(darts, vertices)`, built when it is found, and not the
graph it is cut from, so the atoms kept on a graph do not refer back to it
(see `graph.cached`).

Atoms are sorted by their canonical forms with the boundary marked as a
set, and isomorphic atoms share one search (`_share_forms`).

An atom's symmetry type is asymmetric when its canonical forms with the
boundary marked in the two orders differ (no automorphism exchanges the
boundary), halvable when a boundary-exchanging automorphism is a
semiregular involution, and symmetric otherwise, as is every block atom.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .blocks import block_tree, is_pendant_like, lowpoints
from .errors import GraphError
from .graph import (LOOP, PENDANT, STANDARD, GraphBuilder, cached,
                    is_connected, is_cycle, normalize, point_images,
                    require_standard_input)
from .groups import _mate_points, _shared_cycle_length
from .iso import canonical_form, semiregular_involutions_iter, transfer_form

STAR_BLOCK = "star_block"
NONSTAR_BLOCK = "nonstar_block"
PROPER = "proper"
DIPOLE = "dipole"

HALVABLE_SYM = "halvable"
SYMMETRIC_SYM = "symmetric"
ASYMMETRIC_SYM = "asymmetric"


class Atom:
    """A detected atom: its darts and vertices in the graph g it was cut
    from, its kind, its boundary, and its graph, the subgraph they span,
    `g.restrict(darts, vertices)`; g itself is not kept.

    Its symmetry type, involutions and quotients are write-once slots on
    the atom (`graph.cached`); its canonical forms live on its graph and
    carry no vertex cap, as an atom is no larger than the graph it is cut
    from.
    """

    def __init__(self, g, darts, vertices, kind, boundary):
        self.darts = darts
        self.vertices = vertices
        self.kind = kind
        self.boundary = tuple(sorted(boundary))
        self._graph = g.restrict(darts, vertices)

    @property
    def is_block(self):
        return self.kind in (STAR_BLOCK, NONSTAR_BLOCK)

    def as_graph(self):
        return self._graph

    @property
    def interior_vertices(self):
        return self.vertices - frozenset(self.boundary)

    def form(self):
        """Canonical form with the boundary marked setwise."""
        return canonical_form(self.as_graph(), marking=self.boundary,
                              max_vertices=None)

    def _ordered_forms(self):
        """Canonical forms with the boundary marked in both orders."""
        u, v = self.boundary
        g = self.as_graph()
        return (canonical_form(g, ordered_marking=(u, v), max_vertices=None),
                canonical_form(g, ordered_marking=(v, u), max_vertices=None))

    def ordered_boundary(self):
        """Boundary in a canonical order, the one whose ordered-marked form
        is smaller; strict for asymmetric atoms, where the first vertex is
        the tail role.  `reduction.reduce_step` asks only a class
        representative, and reads the other members' ends off its answer
        (see `reduction._member_ends`)."""
        if len(self.boundary) == 2:
            fu, fv = self._ordered_forms()
            if fv < fu:
                return self.boundary[::-1]
        return self.boundary

    @property
    def symmetry(self):
        return cached(self, "_symmetry_type", atom_symmetry_type)

    def swap_involutions(self):
        """The semiregular involutions of the atom graph that exchange its
        two boundary vertices, the first of each class under conjugation
        by the automorphisms fixing every vertex, built directly (see
        `iso.semiregular_involutions_iter`)."""
        return cached(self, "_swap_involutions", _swap_involutions)

    def __repr__(self):
        return (f"Atom({self.kind}, boundary={self.boundary}, "
                f"darts={len(self.darts)})")


def _component_vertex_sets(g, removed):
    """Components of g minus a vertex set, via standard edges: the trees of
    one `blocks.lowpoints` search, each a run of its discovery order."""
    _, parent, _ = lowpoints(g, removed)
    comps = []
    for v, p in parent.items():
        if p is None:
            comps.append(set())
        comps[-1].add(v)
    return comps


def _cut_pairs(g):
    """The 2-cuts of g between vertices of degree at least three: pairs
    (a, b), a < b, whose removal leaves the other vertices in two or more
    components through standard edges.  Only such pairs cut out proper
    atoms, and a 3-connected graph has no other vertices.  Kept on g as
    `_cut_pairs` (see `graph.cached`)."""
    return cached(g, "_cut_pairs", _find_cut_pairs)


def _find_cut_pairs(g):
    # g - {a, b} has n - 1 + pieces components, where n counts those of
    # g - a, and b's own component falls into pieces without b: one per
    # child that b cuts off, plus its parent's side unless b is a root
    ends = [v for v in g.vertex_list if g.degree(v) >= 3]
    if len(ends) < 2:
        return frozenset()
    pairs = []
    for i, a in enumerate(ends[:-1]):
        _, parent, cut = lowpoints(g, (a,))
        n = list(parent.values()).count(None)
        pieces = Counter(map(parent.__getitem__, cut))
        pairs += [(a, b) for b in ends[i + 1:]
                  if n - 1 + pieces[b] + (parent[b] is not None) >= 2]
    return frozenset(pairs)


def _part_for_component(g, cut, comp):
    """Darts of the side subgraph: everything incident to the component."""
    darts = set()
    for v in comp:
        for h in g.darts_at(v):
            darts.add(h)
            darts.add(g.pairing[h])
    return frozenset(darts), frozenset(comp) | frozenset(cut)


def find_atoms(g):
    """All atoms of a connected normalized graph, deterministically ordered.

    The atoms are found on first use and kept on g.
    """
    return list(cached(g, "_atoms", _find_atoms))


def _find_atoms(g):
    require_standard_input(g, "find_atoms")
    if normalize(g) is not g:
        raise GraphError("find_atoms requires a normalized graph")
    bt = block_tree(g)

    parts = []  # ((darts, vertices), kind, boundary)

    center = bt.center
    for node in bt.nodes:
        if node == center:
            continue
        part = bt.part(node)
        if not part[0] or is_pendant_like(g, part):
            continue
        at = node if node[0] == "articulation" else bt.parents[node]
        parts.append((part, "block", (at[1],)))

    if center[0] == "articulation":
        # the star of all pendant-like items at the central articulation,
        # admitted when nothing else hangs there
        c = center[1]
        pend, other = [], []
        for node in bt.adj[center]:
            block = bt.blocks[node[1]]
            (pend if is_pendant_like(g, block) else other).append(block)
        if not other and len(pend) >= 2:
            darts = frozenset().union(*(d for d, _ in pend))
            parts.append(((darts, frozenset((c,))), "block", (c,)))

    central = bt.central_block()
    for i, (_, block_vertices) in enumerate(bt.blocks):
        if len(block_vertices) < 3:
            continue
        for a, b in sorted(_cut_pairs(bt.block_graph(g, i))):
            for comp in _component_vertex_sets(g, {a, b}):
                if not comp & block_vertices:
                    continue
                part = _part_for_component(g, (a, b), comp)
                if central is not None:
                    if central[0] <= part[0]:
                        continue
                elif center[1] in comp:
                    continue
                parts.append((part, PROPER, (a, b)))

    by_pair = {}
    for h, k in g.edges:
        if g.edge_kind(h) == STANDARD:
            u, w = sorted((g.vertex_of(h), g.vertex_of(k)))
            by_pair.setdefault((u, w), set()).update((h, k))
    for (u, w), darts in sorted(by_pair.items()):
        if len(darts) < 4:
            continue
        if g.degree(u) < 3 or g.degree(w) < 3:
            continue
        parts.append(((frozenset(darts), frozenset((u, w))), DIPOLE, (u, w)))

    # deduplicate, then keep the inclusion-minimal parts
    uniq = {part: (kind, boundary) for part, kind, boundary in parts}
    atoms = []
    for (darts, vertices), (kind, boundary) in uniq.items():
        if any(d != darts and d <= darts for d, _ in uniq):
            continue
        if kind == "block":
            kind = _classify_block_part(g, darts, boundary[0])
        atoms.append(Atom(g, darts, vertices, kind, boundary))

    _share_forms(atoms)
    atoms.sort(key=lambda a: (a.form(), min(a.vertices)))
    return tuple(atoms)


def _share_forms(atoms):
    """Search only the first atom of each size (vertices, darts, boundary
    vertices) and give each later one that first atom's boundary-marked
    form, with no search of its own, where a checked map allows.

    For each boundary order of the later atom, `_boundary_map` walks out
    from the boundary and pairs the unmapped darts at each mapped vertex
    by edge kind, type, color, tail and degree at the far end, names only
    breaking ties.  `iso.transfer_form` writes the form only once
    `verify_isomorphism` accepts that map as one sending boundary onto
    boundary; when neither order gives such a map, the atom is searched
    when its form is first asked for.  Isomorphic graphs have equal forms,
    so atom order, classes and every output are those of one search per
    atom.  Only a member's best-leaf order may differ from its own
    search's, and `reduction._member_ends` reads that order for asymmetric
    classes alone, where every marked isomorphism maps the boundary the
    same way."""
    first = {}
    for a in atoms:
        rep = first.setdefault(
            (len(a.vertices), len(a.darts), len(a.boundary)), a)
        if rep is a:
            continue
        g1, g2 = rep.as_graph(), a.as_graph()
        # each order of the boundary once: a block atom's is one vertex
        for ends in dict.fromkeys((a.boundary, a.boundary[::-1])):
            maps = _boundary_map(g1, g2, rep.boundary, ends)
            if maps is not None and transfer_form(
                    g1, g2, *maps, rep.boundary, a.boundary):
                break


def _boundary_map(g1, g2, ends1, ends2):
    """(vmap, dmap), a candidate isomorphism of g1 onto g2 sending ends1
    onto ends2 in order, or None when the walk meets a mismatch (see
    `_share_forms`); the caller checks the result."""
    vmap, dmap, taken = dict(zip(ends1, ends2)), {}, set()
    reached = list(ends1)  # in the order mapped; the loop extends it
    for v in reached:
        hs = sorted((_dart_key(g1, h), h) for h in g1.darts_at(v)
                    if h not in dmap)
        ks = sorted((_dart_key(g2, k), k) for k in g2.darts_at(vmap[v])
                    if k not in taken)
        if [key for key, _ in hs] != [key for key, _ in ks]:
            return None
        for (_, h), (_, k) in zip(hs, ks):
            h2, k2 = g1.pairing[h], g2.pairing[k]
            dmap.update(((h, k), (h2, k2)))
            taken.update((k, k2))
            x, y = g1.vertex_of(h2), g2.vertex_of(k2)
            if x is None:
                continue
            if x not in vmap:
                vmap[x] = y
                reached.append(x)
            elif vmap[x] != y:
                return None
    return vmap, dmap


def _dart_key(g, h):
    """What `_boundary_map` pairs darts by: edge kind, type, color, tail,
    and the degree at the far end, -1 at a free end."""
    far = g.vertex_of(g.pairing[h])
    return (g.edge_kind(h), g.edge_type.get(h, ""), g.color[h],
            h in g.tails, -1 if far is None else g.degree(far))


def _classify_block_part(g, darts, boundary):
    for h in darts:
        kind = g.edge_kind(h)
        if kind == STANDARD:
            return NONSTAR_BLOCK
        v = g.vertex_of(h)
        if v is None:
            v = g.vertex_of(g.pairing[h])
        if v != boundary:
            return NONSTAR_BLOCK
    return STAR_BLOCK


@dataclass(frozen=True)
class PrimitiveClass:
    tag: str                 # not_primitive | three_connected | cycle |
                             # k2 | k1 | unrecognized
    n: int | None            # cycle length when tag == "cycle"
    center_kind: str         # "block" or "articulation"
    decorated: bool          # pendant-like items attached
    admitted: bool           # shape allowed for an atom-free graph

    @property
    def is_primitive(self):
        return self.tag != "not_primitive"


def strip_pendant_like(g):
    """Remove pendant edges, loops and attached half-edges (vertices stay)."""
    drop = set()
    for h, k in g.edges:
        if g.edge_kind(h) in (PENDANT, LOOP):
            drop.update((h, k))
    for h in g.halfedges:
        drop.add(h)
    if not drop:
        return g
    return g.restrict(g.darts - drop)


def is_three_connected(g):
    if g.n_vertices < 4 or not is_connected(g):
        return False
    if g.halfedges or any(g.edge_kind(h) != STANDARD for h, _ in g.edges):
        return False
    if any(g.degree(v) < 3 for v in g.vertex_list):
        return False
    return not _cut_pairs(g)


def classify_primitive(g):
    require_standard_input(g, "classify_primitive")
    bt = block_tree(g)
    center_kind = bt.center[0]
    if find_atoms(g):
        return PrimitiveClass("not_primitive", None, center_kind, False, True)

    # when the standard edges form one block, it holds every vertex of the
    # connected g, so its graph is the stripped graph, and `_find_atoms`
    # has searched its 2-cuts; the other blocks are the decorations
    pendant_like = [is_pendant_like(g, block) for block in bt.blocks]
    blocks = [i for i, p in enumerate(pendant_like) if not p]
    if len(blocks) == 1:
        core = bt.block_graph(g, blocks[0])
    else:
        core = strip_pendant_like(g)
    deco = {v for (_, vertices), p in zip(bt.blocks, pendant_like) if p
            for v in vertices}
    n_deco_items = sum(pendant_like)

    if core.n_darts == 0 and core.n_vertices == 1:
        return PrimitiveClass("k1", None, center_kind, bool(deco),
                              n_deco_items <= 1)
    admitted_decoration = (not deco) or len(deco) >= 2
    if core.n_vertices == 2 and core.n_edges == 1:
        return PrimitiveClass("k2", None, center_kind, bool(deco),
                              admitted_decoration)
    if is_cycle(core):
        return PrimitiveClass("cycle", core.n_vertices, center_kind,
                              bool(deco), admitted_decoration)
    if is_three_connected(core):
        return PrimitiveClass("three_connected", None, center_kind,
                              bool(deco), admitted_decoration)
    return PrimitiveClass("unrecognized", None, center_kind, bool(deco), False)


def _swap_involutions(a):
    """The boundary-exchanging semiregular involutions, the first of each
    class under conjugation by the automorphisms fixing every vertex, in
    the order `iso.automorphisms_iter` lists them, as image tuples over
    the atom graph's points.  Only fixed-point-free vertex involutions are
    extended, and only to dart maps that are involutions reversing no
    non-halvable edge; each one's cycles are checked again before it is
    kept.  None is the identity, as each swaps u and v."""
    if a.is_block:
        return ()  # a single boundary vertex: nothing to exchange
    u, v = a.boundary
    ag = a.as_graph()
    mates = _mate_points(ag)
    swaps = (point_images(ag, vmap, dmap)
             for vmap, dmap in semiregular_involutions_iter(
                 ag, pinned={u: v, v: u}))
    return tuple(x for x in swaps
                 if _shared_cycle_length(x, range(len(x)), mates=mates,
                                         n=2) == 2)


def atom_symmetry_type(a):
    """halvable / symmetric / asymmetric, by the tests in the module doc."""
    if a.is_block:
        return SYMMETRIC_SYM
    fu, fv = a._ordered_forms()
    if fu != fv:
        return ASYMMETRIC_SYM
    return HALVABLE_SYM if a.swap_involutions() else SYMMETRIC_SYM


def extended_atom(a):
    """A proper atom with the extra boundary edge uv added."""
    if a.kind != PROPER:
        raise GraphError("extended atom is defined for proper atoms only")
    b = GraphBuilder(a.as_graph())
    return b.edge(b.fresh("plus"), *a.boundary).build()
