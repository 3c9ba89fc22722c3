"""Independent brute-force oracles used to validate the fast paths."""

import itertools

from regcover.graph import DIRECTED, STANDARD, SubgraphRef


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
        comps.append(SubgraphRef(g, dd, vv))
    comps.sort(key=lambda c: (min(c.vertices) if c.vertices else "",
                              min(c.darts) if c.darts else ""))
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
