"""Regular quotients, atom quotients, expansion, and the cover decision.

A semiregular group acting on a graph defines the quotient whose vertices
and darts are the orbits.  An edge whose two darts share an orbit collapses
to a standalone half-edge (the acting element swaps its darts, so the edge
is halvable).  The orbits, and whether the group is semiregular, are
read off one point per orbit (`groups.orbit_rows`).  The quotient by the
trivial group is the graph itself, not an equal copy, so the unmarked
canonical form that the graph's stabilizer chain left on it serves the
deduplication of quotients too.  Expansion reverses a reduction step on a
quotient: colored edges, loops and half-edges are replaced by the edge-,
loop- and half-quotients of the corresponding atom class, built once and
kept on the class representative as a write-once slot (`graph.cached`).
Each expanded graph's unmarked canonical search starts from the
automorphisms its expansion already knows (`iso.seed_automorphisms`):
swaps of the interiors of copies of one piece glued onto parallel sites,
and lifts of the automorphisms that the expanded quotient's own search
started from or found, which lift as the reduction's epimorphism
Aut(G_i) -> Aut(G_i+1) says.  They are built when that search first
branches, and only prune it, so forms and outputs do not change.

Conjugate subgroups give isomorphic quotients, so the bruteforce route and
the cover decision build one quotient per conjugacy class of semiregular
subgroups: the first of each class in `semiregular_subgroups` order, as
the semiregular search registers the classes while it lists the
subgroups.  The first subgroup with a given quotient is the first of its
class, so the kept representatives and the returned witness are those of
a pass over every subgroup.  Half-quotients are built from the first
boundary-swapping involution of each class under conjugation by the
automorphisms that fix every vertex, which are all an atom lists
(`atoms.Atom.swap_involutions`): conjugates give equal marked forms, so
the first involution with a given form is the first of its class, and
the pieces kept are those of one quotient per involution.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

from .atoms import HALVABLE_SYM
from .errors import GraphError, InternalError
from .graph import (DIRECTED, LOOP, PENDANT, STANDARD, Graph,
                    cached, normalize, point_index, require_standard_input)
from .groups import (MAX_GROUP_ORDER, Group, orbit_rows,
                     semiregular_class_representatives,
                     semiregularity_violation)
from .iso import (are_isomorphic, canonical_form, found_automorphisms,
                  seed_automorphisms)
from .reduction import COLOR_STRIDE, reduction_series


@dataclass
class Quotient:
    source: Graph
    group: Group
    result: Graph
    dart_map: dict
    vertex_map: dict


def quotient(g, gamma):
    """The quotient of g by a semiregular group acting on it.

    GraphError unless g is standard input, gamma acts on g and gamma is
    semiregular.  G/1 is g itself with identity maps, so it shares the
    canonical searches already cached on g (see `graph.cached`).  A refusal
    names an element by its position in gamma.elements."""
    require_standard_input(g, "quotient")
    if gamma.graph is not g and gamma.graph != g:
        raise GraphError("group does not act on this graph")
    if gamma.is_trivial:
        return Quotient(g, gamma, g, {h: h for h in g.dart_list},
                        {v: v for v in g.vertex_list})
    rows, culprit = orbit_rows(gamma)
    if culprit is not None:
        why = semiregularity_violation(g, gamma.elements[culprit])
        raise GraphError(f"group is not semiregular: element {culprit} {why}")

    vl, dl, nv = g.vertex_list, g.dart_list, len(g.vertex_list)
    vertex_rep = {vl[q]: vl[p] for p, row in rows.items() if p < nv
                  for q in row}
    dart_rep = {dl[q - nv]: dl[p - nv] for p, row in rows.items() if p >= nv
                for q in row}

    darts = sorted(set(dart_rep.values()))
    pairing = {d: dart_rep[g.pairing[d]] for d in darts}
    edges = [d for d in darts if pairing[d] != d]
    result = Graph(darts, set(vertex_rep.values()), pairing,
                   {d: vertex_rep[g.incidence[d]] for d in darts
                    if d in g.incidence},
                   {d: g.edge_type[d] for d in edges},
                   {d: g.color[d] for d in darts}, g.tails.intersection(edges))
    if (result.n_darts * gamma.order != g.n_darts
            or result.n_vertices * gamma.order != g.n_vertices):
        raise InternalError("quotient: orbit counts do not match |group|")
    for v in g.vertex_list:
        if len({dart_rep[h] for h in g.darts_at(v)}) != g.degree(v):
            raise InternalError("quotient: projection not locally bijective")
    return Quotient(g, gamma, result, dart_rep, vertex_rep)


def atom_projection_type(a, gamma):
    """How a covering projection treats an atom: edge, loop, or half.
    GraphError unless gamma acts on the atom's graph."""
    if gamma.graph is not a.ref.parent and gamma.graph != a.ref.parent:
        raise GraphError("group does not act on this graph")
    if a.is_block:
        return "edge"
    vidx, didx = point_index(gamma.graph)
    u, v = vidx[a.boundary[0]], vidx[a.boundary[1]]
    darts = frozenset(didx[h] for h in a.ref.darts)
    others = gamma.elements[1:]  # the identity sorts first
    if any(all(x[h] in darts for h in darts) for x in others):
        return "half"
    return "loop" if any(x[u] == v for x in others) else "edge"


@dataclass
class AtomQuotientSet:
    atom: object
    edge_quotient: tuple        # (graph, ordered boundary vertices)
    loop_quotient: tuple | None  # (graph, merged vertex)
    half_quotients: tuple       # ((graph, image vertex), ...)


def _merge_boundary(g, u, v):
    m = min(u, v)
    other = max(u, v)
    incidence = {h: (m if w == other else w) for h, w in g.incidence.items()}
    return Graph(g.darts, g.vertices - {other}, g.pairing, incidence,
                 g.edge_type, g.color, g.tails), m


def atom_quotients(a):
    """Edge-, loop- and half-quotients of an atom.

    The edge and loop quotients are unique; half-quotients are built from
    the atom's boundary-swapping semiregular involutions, deduplicated up
    to isomorphism fixing the image of the boundary, and sorted by that
    marked form.

    The atom lists only the first involution of each class under
    conjugation by the kernel, the automorphisms fixing every vertex
    (`Atom.swap_involutions`).  A kernel element k fixes u, so it maps the
    quotient by tau onto the quotient by k*tau*k^-1 and the image of u
    onto the image of u: conjugates give equal marked forms.  The first
    involution with a given form is therefore the first of its class, and
    the pieces kept, with their vertex and dart names, are those of one
    quotient per involution.
    """
    ag = a.as_graph()
    if a.is_block:
        return AtomQuotientSet(a, (ag, a.boundary), None, ())
    u, v = a.boundary
    loop_g, merged = _merge_boundary(ag, u, v)
    halves = {}
    # only a halvable atom has a semiregular boundary-swapping involution
    if a.symmetry == HALVABLE_SYM:
        ident = range(ag.n_vertices + ag.n_darts)
        for tau in a.swap_involutions():
            q = quotient(ag, Group(ag, [ident, tau], verify=False))
            w = q.vertex_map[u]
            key = canonical_form(q.result, marking=(w,), max_vertices=None)
            if key not in halves:
                halves[key] = (q.result, w)
    half_list = tuple(halves[k] for k in sorted(halves))
    return AtomQuotientSet(a, (ag, a.ordered_boundary()), (loop_g, merged),
                           half_list)


def _class_quotients(cls):
    return cached(cls.rep, "_quotients", atom_quotients)


def _namespace(host_ids, piece_ids, seed):
    ns = seed
    while any(f"{ns}${x}" in host_ids for x in piece_ids):
        ns += "+"
    return ns


def _substitute(h_next, placements):
    """Remove site items and glue in renamed copies of quotient pieces.

    placements: list of (site_darts, piece_graph, {piece_vertex: host_vertex}).
    The result's unmarked canonical search is seeded with the automorphisms
    the expansion already knows (see `_expansion_automorphisms`).
    """
    removed = set()
    for site_darts, _, _ in placements:
        removed |= set(site_darts)
    kept = h_next.restrict(h_next.darts - removed)
    vertices = set(h_next.vertices)
    pairing, incidence, edge_type, color, tails = {}, {}, {}, {}, set()

    host_ids = set(h_next.darts) | vertices
    spaces = []
    for site_darts, piece, attach in placements:
        seed = min(site_darts)
        ns = _namespace(host_ids, set(piece.darts) | set(piece.vertices), seed)
        spaces.append(ns)

        def vname(x, _a=attach, _ns=ns):
            return _a.get(x, f"{_ns}${x}")

        dname = {d: f"{ns}${d}" for d in piece.darts}
        host_ids |= set(dname.values())
        for d in piece.darts:
            pairing[dname[d]] = dname[piece.pairing[d]]
            color[dname[d]] = piece.color[d]
            if d in piece.edge_type:
                edge_type[dname[d]] = piece.edge_type[d]
            if d in piece.tails:
                tails.add(dname[d])
            pv = piece.vertex_of(d)
            if pv is not None:
                incidence[dname[d]] = vname(pv)
        for pv in piece.vertex_list:
            nv = vname(pv)
            if nv not in vertices:
                vertices.add(nv)
                host_ids.add(nv)

    g = Graph(kept.darts | set(pairing), vertices, kept.pairing | pairing,
              kept.incidence | incidence, kept.edge_type | edge_type,
              kept.color | color, kept.tails | tails)
    seed_automorphisms(g, functools.partial(
        _expansion_automorphisms, found_automorphisms(h_next), placements,
        spaces))
    return g


def _expansion_automorphisms(lifts, placements, spaces, g):
    """Vertex automorphisms of g, the expansion of a graph h by
    `placements` whose interiors were named in the namespaces `spaces`,
    known without a search.  Placements of one piece with one attach map
    are copies glued onto parallel sites, and one map swaps the interiors
    of each two consecutive copies.  Each automorphism alpha of h in
    `lifts`, the ones h's unmarked search started from or found, lifts as
    the reduction's epimorphism Aut(g) -> Aut(h) allows: the copies of a
    piece at the host vertices of its boundary roles go onto the copies at
    alpha's images, in placement order.  alpha is skipped when an image
    group is missing or of another size, as when it reverses an undirected
    site, whose attach map is ordered.  Only moved entries are written."""
    sites = {}  # (piece, attach items): positions of its copies
    for i, (_, piece, attach) in enumerate(placements):
        sites.setdefault((id(piece), tuple(attach.items())), []).append(i)
    if not lifts and all(len(copies) == 1 for copies in sites.values()):
        return []
    interiors = [[f"{ns}${x}" for x in piece.vertex_list if x not in attach]
                 for (_, piece, attach), ns in zip(placements, spaces)]
    identity = dict(zip(g.vertex_list, g.vertex_list))
    maps = []
    for copies in sites.values():
        for i, j in zip(copies, copies[1:]):
            if interiors[i]:
                m = identity.copy()
                for a, b in zip(interiors[i], interiors[j]):
                    m[a], m[b] = b, a
                maps.append(m)
    for alpha in lifts:
        m = identity.copy()
        for v, w in alpha.items():
            if v != w:
                m[v] = w
        for (piece, ends), copies in sites.items():
            image = sites.get((piece, tuple((b, alpha[x]) for b, x in ends)))
            if image is None or len(image) != len(copies):
                break
            if image is not copies:
                for i, j in zip(copies, image):
                    for a, b in zip(interiors[i], interiors[j]):
                        m[a] = b
        else:
            maps.append(m)
    return maps


def expand_step(h_next, step):
    """All expansions of a quotient of the step's target back one level."""
    classes = {cls.color: cls for cls in step.classes}
    # a step's classes take colors upward from a multiple of COLOR_STRIDE
    # above its source's colors: from there up, a color must name a class
    floor = min(classes, default=0) // COLOR_STRIDE * COLOR_STRIDE
    for h in h_next.dart_list:
        c = h_next.color[h]
        if classes and c >= floor and c not in classes:
            raise GraphError(f"item {h!r} has color {c}, a color of this "
                             f"step that names none of its classes")

    fixed_placements = []
    half_groups = {}
    for h, k in h_next.edges:
        c = h_next.color[h]
        cls = classes.get(c)
        if cls is None:
            continue
        kind = h_next.edge_kind(h)
        quots = _class_quotients(cls)
        if kind == PENDANT:
            if not cls.rep.is_block:
                raise GraphError(
                    f"colored pendant edge of non-block class {c}")
            p = h_next.vertex_of(h)
            if p is None:
                p = h_next.vertex_of(k)
            g_piece, (b,) = quots.edge_quotient
            fixed_placements.append(((h, k), g_piece, {b: p}))
        elif kind == STANDARD:
            if cls.rep.is_block:
                raise GraphError(f"colored standard edge of block class {c}")
            u, w = h_next.vertex_of(h), h_next.vertex_of(k)
            g_piece, (b0, b1) = quots.edge_quotient
            if h_next.edge_type[h] == DIRECTED:
                tailv = u if h in h_next.tails else w
                headv = w if tailv == u else u
                attach = {b0: tailv, b1: headv}
            else:
                attach = {b0: min(u, w), b1: max(u, w)}
            fixed_placements.append(((h, k), g_piece, attach))
        elif kind == LOOP:
            if cls.rep.is_block or quots.loop_quotient is None:
                raise GraphError(f"colored loop of class {c} admits no "
                                 "loop-quotient")
            g_piece, m = quots.loop_quotient
            fixed_placements.append(((h, k), g_piece,
                                     {m: h_next.vertex_of(h)}))
        else:
            raise GraphError(f"unsupported colored item of class {c}")
    for h in h_next.halfedges:
        c = h_next.color[h]
        cls = classes.get(c)
        if cls is None:
            continue
        if not _class_quotients(cls).half_quotients:
            raise GraphError(
                f"colored half-edge of class {c} admits no half-quotient")
        p = h_next.vertex_of(h)
        if p is None:
            raise GraphError("free colored half-edge in a quotient")
        half_groups.setdefault((c, p), []).append(h)

    group_keys = sorted(half_groups)
    option_lists = []
    for key in group_keys:
        c, p = key
        n_opts = len(_class_quotients(classes[c]).half_quotients)
        count = len(half_groups[key])
        option_lists.append(list(
            itertools.combinations_with_replacement(range(n_opts), count)))

    out = []
    for combo in itertools.product(*option_lists):
        placements = list(fixed_placements)
        for key, choice in zip(group_keys, combo):
            c, p = key
            quots = _class_quotients(classes[c])
            for h, opt in zip(sorted(half_groups[key]), choice):
                g_piece, w = quots.half_quotients[opt]
                placements.append(((h,), g_piece, {w: p}))
        out.append(_substitute(h_next, placements))
    return out


def _dedup_sorted(graphs):
    seen = {}
    for g in graphs:
        key = canonical_form(g, max_vertices=None)
        if key not in seen:
            seen[key] = g
    return [seen[k] for k in sorted(seen)]


def all_quotients(g, via="bruteforce", max_order=MAX_GROUP_ORDER):
    """All regular quotients up to isomorphism, sorted by canonical form;
    the bruteforce route builds one per conjugacy class of semiregular
    subgroups.  `max_order` caps the group listed; no vertex cap applies,
    as no quotient, atom or half-quotient compared is larger than g."""
    require_standard_input(g, "all_quotients")
    if via == "bruteforce":
        out = [quotient(g, gamma).result
               for gamma in semiregular_class_representatives(
                   g, max_order=max_order)]
        return _dedup_sorted(out)
    if via != "reduction":
        raise GraphError(f"unknown route {via!r}")
    series = reduction_series(g)
    level = all_quotients(series.graphs[-1], "bruteforce",
                          max_order=max_order)
    for level in _expanded_levels(level, series):
        pass
    return level


def _expanded_levels(level, series):
    """Expand quotients of the primitive graph back down the series,
    yielding each level deduplicated and sorted by canonical form."""
    for step in reversed(series.steps):
        nxt = []
        for h in level:
            nxt.extend(expand_step(h, step))
        level = _dedup_sorted(nxt)
        yield level


def expansion_chain(h_r, series):
    """Expand one primitive quotient down every level; list per level."""
    return [[h_r], *_expanded_levels([h_r], series)]


def _local_profiles(g):
    """{profile: number of g's vertices with it}, where a vertex's profile
    is the sorted (color, is-tail) pairs of its darts."""
    return Counter(
        tuple(sorted((g.color[h], h in g.tails) for h in g.darts_at(v)))
        for v in g.vertex_list)


def regular_cover_test(g, h, max_order=MAX_GROUP_ORDER):
    """None, or a semiregular witness group with g/witness isomorphic to h:
    the first such subgroup of order k = |V(g)|/|V(h)|, trying the first of
    each conjugacy class only.

    A covering projection is locally bijective and keeps dart colors and
    tails, so g has k times as many vertices of each profile as h (see
    `_local_profiles`).  A pair that fails this, or the vertex and dart
    counts, is refused before Aut(g) is built.  Edge kinds and types are
    not compared, since an edge may fold onto a loop, or a halvable one
    onto a half-edge.  For k = 1 the answer is the trivial group exactly
    when g is isomorphic to h, and no group is built.

    No vertex cap applies, since g is the largest graph compared;
    `max_order` caps the group listed.  A witness is checked against the
    raw graph by its generators (`Group.check_closure`), as neither
    `quotient` nor the semiregular search would catch a product of the
    stabilizer chain that is no automorphism."""
    for name, gr in (("covering graph", g), ("target graph", h)):
        require_standard_input(gr, name)
        if normalize(gr) is not gr:
            raise GraphError(f"{name} is not normalized")
    if g.n_vertices % h.n_vertices:
        return None
    k = g.n_vertices // h.n_vertices
    if g.n_darts != k * h.n_darts:
        return None
    if _local_profiles(g) != {p: k * n
                              for p, n in _local_profiles(h).items()}:
        return None
    if k == 1:
        if are_isomorphic(g, h, max_vertices=None) is None:
            return None
        return Group(g, [range(g.n_vertices + g.n_darts)], verify=False)
    for gamma in semiregular_class_representatives(g, order=k,
                                                   max_order=max_order):
        q = quotient(g, gamma)
        if are_isomorphic(q.result, h, max_vertices=None) is not None:
            try:
                gamma.check_closure()
            except GraphError as err:
                raise InternalError("regular_cover_test: a witness element "
                                    "is not an automorphism of the "
                                    "covering graph") from err
            return gamma
    return None
