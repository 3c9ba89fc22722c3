"""Independent brute-force oracles used to validate the fast paths."""

import itertools
from operator import itemgetter

from regcover import groups, iso
from regcover.errors import GraphError
from regcover.graph import (DIRECTED, HALVABLE, STANDARD, point_images,
                            point_index, point_maps)
from regcover.groups import Group
from regcover.quotient import quotient


# -- group elements: image tuples over a graph's points -----------------------

def compose(a, b):
    """a after b: (a * b)[p] = a[b[p]]."""
    return tuple([a[i] for i in b])


def inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def inverse_indices(grp):
    """Per element of a group, the position of its inverse, read off the
    multiplication table."""
    e = grp.identity_index
    return tuple(row.index(e) for row in grp.table)


def ref_product_table(images, base):
    """The multiplication table over the image tuples by their positions,
    None where a product is not among them, with every entry looked up:
    the base images of a * b are a's images of b's base images, and `base`
    tells apart the elements of a group that holds the tuples."""
    if not base:
        return [(0,)]
    key = itemgetter(*base)
    position = {key(img): k for k, img in enumerate(images)}.get
    times = [itemgetter(*[img[p] for p in base]) for img in images]
    return [tuple([position(b(img)) for b in times]) for img in images]


def ref_generating_set(table, e=0):
    """Positions that generate the group of a full multiplication table:
    each position in order that the earlier ones do not generate, each
    span closed again by `groups._close_indices`."""
    gens = ()
    span = frozenset({e})
    for x in range(len(table)):
        if x not in span:
            gens += (x,)
            span = groups._close_indices(table, span, gens)
    assert len(span) == len(table)
    return gens


def greedy_base(images):
    """Points whose images tell all the image tuples apart, picked
    greedily: each point, in order, that tells more of them apart."""
    distinct = 1
    base = []
    for point in range(len(images[0])):
        if distinct == len(images):
            break
        n = len(set(map(itemgetter(*base, point), images)))
        if n > distinct:
            base.append(point)
            distinct = n
    return tuple(base)


def ref_check_closure(grp):
    """GraphError unless every element of the group is an automorphism of
    its graph and every product of two elements is an element, each
    element checked against the raw graph and every pair multiplied."""
    g = grp.graph
    for x in grp.elements:
        if not iso.verify_isomorphism(g, g, *point_maps(g, x)):
            raise GraphError("group element is not an automorphism of "
                             "the graph")
    pool = set(grp.elements)
    for a in grp.elements:
        for b in grp.elements:
            if compose(a, b) not in pool:
                raise GraphError("group not closed under composition")


def ref_chain_generators(g, fixed=()):
    """Image tuples that generate the automorphisms of g fixing `fixed`:
    the coset representatives of `stabilizer_chain(g, fixed)` and, for each
    kernel job, the transposition of its first two items, the cycle of all
    its items, and its first item turned along its second way when it has
    one."""
    transversals, kernel = iso.stabilizer_chain(g, fixed)
    gens = [t for reps in transversals for t in reps]
    didx = point_index(g)[1]
    one = range(len(g.vertex_list) + len(g.dart_list))
    for _, items, _, ways in kernel:
        n = len(items)
        moves = []  # (item, target item, way) per moved item
        if n > 1:
            moves.append([(items[0], items[1], ways[0]),
                          (items[1], items[0], ways[0])])
        if n > 2:
            moves.append([(items[i], items[i - n + 1], ways[0])
                          for i in range(n)])
        if len(ways) > 1:
            moves.append([(items[0], items[0], ways[1])])
        for move in moves:
            images = list(one)
            for src, dst, way in move:
                for h, i in zip(src, way):
                    images[didx[h]] = didx[dst[i]]
            gens.append(tuple(images))
    return gens


def is_identity(a):
    return tuple(a) == tuple(range(len(a)))


def is_involution(a):
    return not is_identity(a) and is_identity(compose(a, a))


def vmap(g, a):
    """The vertex map of an image tuple over g's points."""
    return point_maps(g, a)[0]


def dmap(g, a):
    """The dart map of an image tuple over g's points."""
    return point_maps(g, a)[1]


def naive_dart_automorphism_count(g, cap=50000):
    """All dart bijections checked directly; only viable for tiny graphs."""
    darts = g.dart_list
    assert len(darts) <= 8, "oracle restricted to <= 8 darts"
    count = 0
    for perm in itertools.permutations(range(len(darts))):
        m = {darts[i]: darts[j] for i, j in enumerate(perm)}
        if _is_dart_automorphism(g, m):
            count += 1
        if count > cap:
            raise RuntimeError("oracle blew up")
    return count


def _is_dart_automorphism(g, m):
    vmap = {}
    for h in g.dart_list:
        if m[g.pairing[h]] != g.pairing[m[h]]:
            return False
        if g.color[h] != g.color[m[h]]:
            return False
        if g.edge_type.get(h) != g.edge_type.get(m[h]):
            return False
        if (h in g.tails) != (m[h] in g.tails):
            return False
        v, w = g.vertex_of(h), g.vertex_of(m[h])
        if (v is None) != (w is None):
            return False
        if v is not None:
            if v in vmap and vmap[v] != w:
                return False
            vmap[v] = w
    return len(set(vmap.values())) == len(vmap)


def is_simple(g):
    """No loops, parallels, pendants or half-edges: vertex maps determine
    dart maps."""
    if g.halfedges:
        return False
    seen = set()
    for h, k in g.edges:
        if g.edge_kind(h) != STANDARD:
            return False
        key = frozenset((g.vertex_of(h), g.vertex_of(k)))
        if key in seen:
            return False
        seen.add(key)
    return True


def naive_vertex_automorphism_count(g):
    """All vertex permutations checked against the edge structure; complete
    for simple graphs."""
    assert is_simple(g)
    edges = {}
    for h, k in g.edges:
        u, w = g.vertex_of(h), g.vertex_of(k)
        tail = None
        if g.edge_type[h] == DIRECTED:
            tail = u if h in g.tails else w
        edges[frozenset((u, w))] = (g.edge_type[h], g.color[h], tail)
    verts = g.vertex_list
    count = 0
    for perm in itertools.permutations(verts):
        m = dict(zip(verts, perm))
        ok = True
        for pair, (typ, col, tail) in edges.items():
            u, w = tuple(pair)
            img = frozenset((m[u], m[w]))
            got = edges.get(img)
            if got is None or got[0] != typ or got[1] != col:
                ok = False
                break
            if tail is not None and got[2] != m[tail]:
                ok = False
                break
        if ok:
            count += 1
    return count


def union_find_components(g):
    """Components by union-find over vertex and dart keys, in the order of
    `graph.connected_components`."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for v in g.vertex_list:
        parent[("v", v)] = ("v", v)
    for h in g.dart_list:
        parent[("d", h)] = ("d", h)
    for h in g.dart_list:
        union(("d", h), ("d", g.pairing[h]))
        v = g.vertex_of(h)
        if v is not None:
            union(("d", h), ("v", v))
    groups = {}
    for key in parent:
        groups.setdefault(find(key), []).append(key)
    comps = []
    for members in groups.values():
        dd = frozenset(x for kind, x in members if kind == "d")
        vv = frozenset(x for kind, x in members if kind == "v")
        comps.append((dd, vv))
    comps.sort(key=lambda c: (min(c[1]) if c[1] else "",
                              min(c[0]) if c[0] else ""))
    return tuple(comps)


def brute_force_cut_pairs(g):
    """Pairs (a, b), a < b, of g's vertices of degree at least three whose
    removal leaves the others in two or more components through standard
    edges, one search per pair."""
    adj = {v: set() for v in g.vertex_list}
    for h, k in g.edges:
        if g.edge_kind(h) == STANDARD:
            u, w = g.vertex_of(h), g.vertex_of(k)
            adj[u].add(w)
            adj[w].add(u)
    out = set()
    ends = [v for v in g.vertex_list if g.degree(v) >= 3]
    for a, b in itertools.combinations(ends, 2):
        seen = {a, b}
        comps = 0
        for v in g.vertex_list:
            if v in seen:
                continue
            comps += 1
            seen.add(v)
            frontier = [v]
            while frontier:
                x = frontier.pop()
                for y in adj[x] - seen:
                    seen.add(y)
                    frontier.append(y)
        if comps > 1:
            out.add((a, b))
    return frozenset(out)


# -- reference isomorphism search ---------------------------------------------
# A backtracking search over vertex bijections that checks every assigned
# pair by its own dart profile and extends each bijection to darts per edge
# kind, sharing only the initial colors and the item index with `iso`.

def _ref_pair_profile(g, a, b):
    out = []
    for h in g.darts_at(a):
        k = g.pairing[h]
        if k != h and g.vertex_of(k) == b and a != b:
            typ = g.edge_type[h]
            role = 0
            if typ == "directed":
                role = 1 if h in g.tails else 2
            out.append((typ, g.color[h], role))
    return tuple(sorted(out))


def _ref_self_profile(g, v):
    out = []
    for h in g.darts_at(v):
        k = g.pairing[h]
        kind = g.edge_kind(h)
        if kind == "loop" and h < k:
            out.append(("L", g.edge_type[h], g.color[h]))
        elif kind == "pendant" and g.vertex_of(h) is not None:
            out.append(("P", g.color[h]))
        elif kind == "half":
            out.append(("H", g.color[h]))
    return tuple(sorted(out))


def _ref_free_profile(g):
    out = []
    for h, k in g.edges:
        if g.edge_kind(h) == "free":
            out.append(("F", g.edge_type[h], g.color[h]))
    for h in g.halfedges:
        if g.vertex_of(h) is None:
            out.append(("G", g.color[h]))
    return tuple(sorted(out))


def ref_refine(graph_colors):
    """Joint refinement of several graphs' vertex colorings, with class ids
    comparable across the graphs."""
    all_ends = [iso._items(g)[1] for g, _ in graph_colors]

    def ranked(sig_maps):
        pool = sorted({s for m in sig_maps for s in m.values()})
        rank = {s: i for i, s in enumerate(pool)}
        return [{v: rank[s] for v, s in m.items()} for m in sig_maps]

    current = ranked([dict(cm) for _, cm in graph_colors])
    while True:
        nxt = ranked([
            {v: (colors[v], tuple(sorted((s, colors.get(o, o))
                                         for o, sigs in around.items()
                                         for s in sigs)))
             for v, around in ends.items()}
            for ends, colors in zip(all_ends, current)])
        if nxt == current:
            return current
        current = nxt


def _ref_vertex_bijections(g1, g2, marking1, marking2, pinned):
    if g1.n_vertices != g2.n_vertices or g1.n_darts != g2.n_darts:
        return
    if _ref_free_profile(g1) != _ref_free_profile(g2):
        return
    colors1, colors2 = ref_refine(
        [(g1, iso._initial_colors(g1, marking1, None)),
         (g2, iso._initial_colors(g2, marking2, None))])
    if sorted(colors1.values()) != sorted(colors2.values()):
        return
    by_color = {}
    for w in g2.vertex_list:
        by_color.setdefault(colors2[w], []).append(w)
    order = sorted(g1.vertex_list, key=lambda v: (colors1[v], v))
    used, assignment = set(), {}

    def compatible(v, w):
        if _ref_self_profile(g1, v) != _ref_self_profile(g2, w):
            return False
        return all(_ref_pair_profile(g1, v, v2) == _ref_pair_profile(g2, w, w2)
                   for v2, w2 in assignment.items())

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


def _ref_groups(g):
    std, loops, pendants, halves, freeedges, freehalves = ({} for _ in range(6))
    for h, k in g.edges:
        kind, typ, c = g.edge_kind(h), g.edge_type[h], g.color[h]
        directed = typ == "directed"
        if kind == "standard":
            u, w = g.vertex_of(h), g.vertex_of(k)
            tailv = (u if h in g.tails else w) if directed else None
            a, b = sorted((u, w))
            rel = 0 if tailv is None else (1 if tailv == a else 2)
            std.setdefault((a, b, typ, c, rel), []).append((h, k, u, w))
        elif kind == "loop":
            pair = (k, h) if directed and h not in g.tails else (h, k)
            loops.setdefault((g.vertex_of(h), typ, c), []).append(pair)
        elif kind == "pendant":
            att, out = (h, k) if g.vertex_of(h) is not None else (k, h)
            pendants.setdefault((g.vertex_of(att), c), []).append((att, out))
        else:
            pair = (k, h) if directed and h not in g.tails else (h, k)
            freeedges.setdefault((typ, c), []).append(pair)
    for h in g.halfedges:
        v = g.vertex_of(h)
        if v is None:
            freehalves.setdefault(g.color[h], []).append(h)
        else:
            halves.setdefault((v, g.color[h]), []).append(h)
    return std, loops, pendants, halves, freeedges, freehalves


def _ref_dart_variants(g1, g2, vmap):
    s1, s2 = _ref_groups(g1), _ref_groups(g2)
    jobs = []

    def both_ways(src, dst, typ):
        h, k = src
        h2, k2 = dst
        if typ == "directed":
            return [{h: h2, k: k2}]
        return [{h: h2, k: k2}, {h: k2, k: h2}]

    for kind in range(6):
        for key, items in sorted(s1[kind].items()):
            if kind == 0:
                a, b, typ, c, rel = key
                ta, tb = sorted((vmap[a], vmap[b]))
                if rel:
                    rel = 1 if vmap[a if rel == 1 else b] == ta else 2
                tkey = (ta, tb, typ, c, rel)
                fn = (lambda s, d: [{s[0]: d[0], s[1]: d[1]}
                                    if vmap[s[2]] == d[2]
                                    else {s[0]: d[1], s[1]: d[0]}])
            elif kind == 1:
                tkey = (vmap[key[0]],) + key[1:]
                fn = lambda s, d, t=key[1]: both_ways(s, d, t)
            elif kind == 2:
                tkey = (vmap[key[0]], key[1])
                fn = lambda s, d: [{s[0]: d[0], s[1]: d[1]}]
            elif kind == 3:
                tkey = (vmap[key[0]], key[1])
                fn = lambda s, d: [{s: d}]
            elif kind == 4:
                tkey = key
                fn = lambda s, d, t=key[0]: both_ways(s, d, t)
            else:
                tkey = key
                fn = lambda s, d: [{s: d}]
            targets = s2[kind].get(tkey)
            if targets is None or len(targets) != len(items):
                return
            jobs.append((items, targets, fn))

    def rec(ji, acc):
        if ji == len(jobs):
            yield dict(acc)
            return
        items, targets, fn = jobs[ji]
        for perm in itertools.permutations(targets):
            variants = [fn(items[i], perm[i]) for i in range(len(items))]
            for combo in itertools.product(*variants):
                acc2 = dict(acc)
                for part in combo:
                    acc2.update(part)
                yield from rec(ji + 1, acc2)

    yield from rec(0, {})


def ref_isomorphisms(g1, g2, marking1=None, marking2=None, pinned=None):
    """Yield (vertex map, dart map) for every isomorphism from g1 to g2
    that respects the markings and agrees with `pinned`: vertex maps
    lexicographic along g1's vertices sorted by (refined color, vertex),
    each with its dart maps."""
    for vmap in _ref_vertex_bijections(g1, g2, marking1, marking2,
                                       pinned or {}):
        for dmap in _ref_dart_variants(g1, g2, vmap):
            yield vmap, dmap


# -- semiregularity of one element, from the raw graph ------------------------

def ref_semiregular_element(g, x):
    """Whether the automorphism of g with image tuple x is the identity, or
    fixes no vertex and no dart and swaps the two darts of no edge that is
    not halvable, read off its vertex and dart maps."""
    vm, dm = point_maps(g, x)
    if all(vm[v] == v for v in vm) and all(dm[h] == h for h in dm):
        return True
    return (all(vm[v] != v for v in vm) and all(dm[h] != h for h in dm)
            and not any(dm[h] == g.pairing[h]
                        and g.edge_type.get(h) != HALVABLE for h in dm))


def ref_orbit_maps(g, gamma):
    """(vertex map, dart map) taking each item of g to the least member of
    its orbit under gamma, closed over every element (`groups.orbits`)."""
    return tuple({x: orbit[0] for orbit in groups.orbits(g, gamma.elements,
                                                           domain)
                  for x in orbit} for domain in ("vertices", "darts"))


# -- swap involutions and half-quotients, one quotient per involution ---------

def ref_swap_involutions(g, pinned):
    """The semiregular involutions among all automorphisms agreeing with
    `pinned` that the reference search lists, in its order, which is the
    order of `automorphisms_iter`."""
    out = []
    for vmap, dmap in ref_isomorphisms(g, g, pinned=pinned):
        p = point_images(g, vmap, dmap)
        if is_involution(p) and ref_semiregular_element(g, p):
            out.append((vmap, dmap))
    return out


def ref_kernel_class_firsts(g, listed):
    """The first of each orbit of `listed`, (vertex map, dart map) pairs of
    automorphisms of g, under conjugation by every map that the reference
    search lists for the identity on vertices, in the list's order."""
    kernel = [d for _, d in ref_isomorphisms(
        g, g, pinned={v: v for v in g.vertex_list})]
    seen, firsts = set(), []
    for vmap, dmap in listed:
        name = tuple(vmap[v] for v in g.vertex_list)
        if (name, tuple(dmap[h] for h in g.dart_list)) in seen:
            continue
        firsts.append((vmap, dmap))
        for k in kernel:
            back = {y: x for x, y in k.items()}
            seen.add((name, tuple(k[dmap[back[h]]] for h in g.dart_list)))
    return firsts


def ref_half_quotients(atom):
    """An atom's half-quotients as (graph, image vertex of the boundary),
    built from every boundary-swapping involution the reference scan
    lists (`ref_swap_involutions`) in turn, each kept when its marked
    canonical form is new, and sorted by that form."""
    if atom.is_block:
        return ()
    ag = atom.as_graph()
    u, v = atom.boundary
    ident = range(ag.n_vertices + ag.n_darts)
    halves = {}
    for vm, dm in ref_swap_involutions(ag, {u: v, v: u}):
        tau = point_images(ag, vm, dm)
        q = quotient(ag, Group(ag, [ident, tau], verify=False))
        w = q.vertex_map[u]
        key = iso.canonical_form(q.result, marking=(w,), max_vertices=None)
        if key not in halves:
            halves[key] = (q.result, w)
    return tuple(halves[k] for k in sorted(halves))


# -- the semiregular search, over a listed Aut(g) -----------------------------

def ref_semiregular_lattice(g, order):
    """(members, subgroups, classes) of the semiregular search of `order`,
    as `groups._semiregular_lattice` gives them, from the listing it
    replaced: all of Aut(g) multiplied out, each element kept when it and
    every power of it before the identity fix no point and reverse no
    non-halvable edge, named on a greedy base over Aut(g), and conjugated
    by every coset representative of the chain and the kernel's moves
    (`ref_chain_generators`)."""
    images = groups._aut_images(g, None)
    one = tuple(range(len(g.vertex_list) + len(g.dart_list)))
    members = []
    for x in sorted(images):
        powers = [x]
        while powers[-1] != one:
            powers.append(compose(x, powers[-1]))
        if ((order is None or order % len(powers) == 0)
                and all(ref_semiregular_element(g, y) for y in powers)):
            members.append(x)
    base = greedy_base(list(images))
    table = ref_product_table(members, base)
    maps = groups._conjugations(members, base, ref_chain_generators(g))
    subs, classes = groups._subgroup_index_sets(table, 0, len(images), maps,
                                                divides=order)
    found = [s for s in subs if order is None or len(s) == order]
    position = {s: i for i, s in enumerate(found)}
    classes = sorted(sorted(map(position.get, cls)) for cls in classes
                     if order is None or len(next(iter(cls))) == order)
    return members, found, classes
