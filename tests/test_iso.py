import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings

from regcover import iso
from regcover.errors import SizeLimitError
from regcover.fixtures import (bowtie, book, complete, cube, cycle,
                               cycle_with_triangles, dipole, expansion_corpus,
                               path_graph, petersen, prism, random_instance,
                               theta, with_pendants)
from regcover.graph import HALVABLE, Graph, GraphBuilder, normalize
from regcover.groups import Permutation
from regcover.iso import (are_isomorphic, automorphisms_iter, canonical_form,
                          verify_isomorphism)
from regcover.quotient import all_quotients
from regcover.textfmt import parse, serialize

from test_graph import graphs


def relabel_vertex(g, seed, v):
    """The name `relabel(g, seed)` gives to vertex v of g."""
    vs = list(g.vertex_list)
    random.Random(seed).shuffle(vs)
    return f"w{vs.index(v)}"


def relabel(g, seed):
    """Shuffle vertex and dart names."""
    rng = random.Random(seed)
    vs = list(g.vertex_list)
    rng.shuffle(vs)
    vmap = {old: f"w{vs.index(old)}" for old in g.vertex_list}
    ds = list(g.dart_list)
    rng.shuffle(ds)
    dmap = {old: f"d{ds.index(old)}" for old in g.dart_list}
    return Graph(
        set(dmap.values()),
        set(vmap.values()),
        {dmap[h]: dmap[g.pairing[h]] for h in g.dart_list},
        {dmap[h]: vmap[v] for h, v in g.incidence.items()},
        {dmap[h]: t for h, t in g.edge_type.items()},
        {dmap[h]: c for h, c in g.color.items()},
        {dmap[h] for h in g.tails},
    )


def test_canonical_relabel_invariance_c4():
    g = cycle(4)
    assert canonical_form(g) == canonical_form(relabel(g, 1))
    assert canonical_form(g) == canonical_form(relabel(g, 2))


def test_canonical_distinguishes_c4_p4():
    assert canonical_form(cycle(4)) != canonical_form(path_graph(4))


def test_canonical_distinguishes_dipole_colors():
    assert (canonical_form(dipole([0, 0, 1, 1]))
            != canonical_form(dipole([0, 0, 0, 1])))


def test_identity_witness():
    g = cube()
    w = are_isomorphic(g, g)
    assert w == {h: h for h in g.dart_list}


def test_recolored_cycle_not_isomorphic():
    g1 = cycle(5)
    b = GraphBuilder()
    for i in range(5):
        b.vertex(f"v{i}")
    for i in range(5):
        b.edge(f"e{i}", f"v{i}", f"v{(i + 1) % 5}", color=1 if i == 0 else 0)
    assert are_isomorphic(g1, b.build()) is None


def test_cube_relabelled_witness_verifies():
    g = cube()
    h = relabel(g, 42)
    w = are_isomorphic(g, h)
    assert w is not None
    vmap = {}
    for d, img in w.items():
        v = g.vertex_of(d)
        if v is not None:
            vmap[v] = h.vertex_of(img)
    assert verify_isomorphism(g, h, vmap, w)


def test_directed_edges_respected():
    def dcycle(n, flip):
        b = GraphBuilder()
        for i in range(n):
            b.vertex(f"v{i}")
        for i in range(n):
            u, w = f"v{i}", f"v{(i + 1) % n}"
            tail = w if (flip and i == 0) else u
            b.edge(f"e{i}", u, w, type="directed", tail=tail)
        return b.build()

    assert are_isomorphic(dcycle(3, False), dcycle(3, False)) is not None
    assert are_isomorphic(dcycle(3, False), dcycle(3, True)) is None


def test_marking_constrains_isomorphism():
    g = path_graph(4)  # v0 - v1 - v2 - v3
    assert are_isomorphic(g, g, marking1=("v0",), marking2=("v3",)) is not None
    assert are_isomorphic(g, g, marking1=("v0",), marking2=("v1",)) is None
    assert canonical_form(g, marking=("v0",)) == canonical_form(g, marking=("v3",))
    assert canonical_form(g, marking=("v0",)) != canonical_form(g, marking=("v1",))


def test_ordered_marking():
    g = path_graph(3)
    f1 = canonical_form(g, ordered_marking=("v0", "v2"))
    f2 = canonical_form(g, ordered_marking=("v2", "v0"))
    assert f1 == f2  # the two ends are exchangeable
    g2 = theta(1, 2)  # arms of different lengths between u and v
    fa = canonical_form(g2, ordered_marking=("u", "v"))
    fb = canonical_form(g2, ordered_marking=("v", "u"))
    assert fa == fb


def test_canonical_partition_matches_pairwise_iso():
    fixture_set = [cycle(4), relabel(cycle(4), 7), path_graph(4), cycle(5),
                   dipole([0, 0]), dipole([0, 1]), book(2), bowtie(),
                   prism(3), relabel(prism(3), 3), complete(4)]
    for i, g1 in enumerate(fixture_set):
        for g2 in fixture_set[i + 1:]:
            same_form = canonical_form(g1) == canonical_form(g2)
            same_iso = any(True for _ in _ref_isomorphisms(g1, g2))
            assert same_form == same_iso


def test_size_limit():
    b = GraphBuilder()
    for i in range(30):
        b.vertex(f"v{i}")
    for i in range(30):
        b.edge(f"e{i}", f"v{i}", f"v{(i + 1) % 30}")
    g = b.build()
    with pytest.raises(SizeLimitError):
        canonical_form(g)
    with pytest.raises(SizeLimitError):
        are_isomorphic(g, g)


def test_every_automorphism_verifies():
    for g in (cycle(5), dipole([0, 0, 1]), book(2),
              GraphBuilder().vertex("v").loop("l", "v").pendant("p", "v").build()):
        n = 0
        for vmap, dmap in automorphisms_iter(g):
            assert verify_isomorphism(g, g, vmap, dmap)
            n += 1
        assert n >= 1


def test_stabilizer_chain_lifts_by_the_first_dart_map():
    # the kernel's first dart map is the one `dart_maps` lists first.  A
    # coset representative is a product of the automorphisms the search
    # found, each lifted by its first dart map, so the product need not
    # carry its own vertex map's first dart map; it fixes the base points
    # before its own and moves its own.  Under the cap, the images of
    # level i are exactly the orbit of its base point among the listed
    # automorphisms fixing the base points before it, in vertex order.
    # Representatives are image tuples, read through `Permutation`.
    graphs = [g for _, g in expansion_corpus()] + _beyond_cap_graphs()
    for seed in range(200):
        graphs += [random_instance(seed), normalize(random_instance(seed))]
    for g in graphs:
        chain = transversals, kernel = iso.stabilizer_chain(g)
        assert iso._first_dart_map(kernel) == next(iso.dart_maps(kernel))
        order = iso._VertexSearch(g).order
        vmaps = [[Permutation(g, t).vertex_map() for t in reps]
                 for reps in transversals]
        for i, reps in enumerate(transversals):
            for t, vmap in zip(reps, vmaps[i]):
                assert verify_isomorphism(g, g, vmap,
                                          Permutation(g, t).dart_map())
                assert all(vmap[v] == v for v in order[:i])
                assert vmap[order[i]] != order[i]
        if iso.chain_order(chain) > 200:
            continue
        listed = [vmap for vmap, _ in automorphisms_iter(g)]
        for i in range(len(transversals)):
            orbit = {vmap[order[i]] for vmap in listed
                     if all(vmap[v] == v for v in order[:i])}
            assert [vmap[order[i]] for vmap in vmaps[i]] == sorted(
                orbit - {order[i]})


def test_vertex_search_images_match_the_whole_assignment_check(monkeypatch):
    # the neighbour-only check admits exactly the candidates that agree
    # with every assigned pair (v2 -> w2) on the darts between them, at
    # every node of the full listing and of the chain's walk.  Some
    # candidates next to every image of v's assigned neighbours are
    # rejected only for another neighbour among the images taken.
    images = iso._VertexSearch.images
    rejected = []

    def checked(self, i):
        got = list(images(self, i))
        v, ends, assignment = self.order[i], self._ends, self.assignment
        free = [w for w in self._cells[i]
                if w not in self.used
                and self._pinned.get(v, w) == w
                and self._own[v] == self._own[w]]
        want = [w for w in free
                if all(ends[v].get(v2) == ends[w].get(w2)
                       for v2, w2 in assignment.items())]
        assert got == want
        rejected.append(sum(
            all(ends[w].get(assignment[u]) == sigs
                for u, sigs in ends[v].items() if u in assignment)
            for w in free) - len(want))
        return iter(got)

    monkeypatch.setattr(iso._VertexSearch, "images", checked)
    graphs = [g for _, g in expansion_corpus()]
    graphs += [random_instance(seed) for seed in range(100)]
    for g in graphs:
        for _ in automorphisms_iter(g):
            pass
    for g in _beyond_cap_graphs():
        iso.stabilizer_chain(g)
    assert sum(rejected) > 500


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_canonical_relabel_invariance_random(g):
    assert canonical_form(g) == canonical_form(relabel(g, 5))


@settings(max_examples=25, deadline=None)
@given(graphs())
def test_witnesses_verify_random(g):
    h = relabel(g, 9)
    assert are_isomorphic(g, h) is not None


# -- differential check against the per-kind dart matching -----------------

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


def _ref_refine(graph_colors):
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
    colors1, colors2 = _ref_refine(
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


def _ref_isomorphisms(g1, g2, marking1=None, marking2=None, pinned=None):
    for vmap in _ref_vertex_bijections(g1, g2, marking1, marking2,
                                       pinned or {}):
        for dmap in _ref_dart_variants(g1, g2, vmap):
            yield vmap, dmap


def _differential_graphs():
    for name, g in expansion_corpus():
        yield name, g
    for seed in range(200):
        g = random_instance(seed)
        yield f"random{seed}", g
        yield f"random{seed}n", normalize(g)


def test_isomorphism_sequences_match_reference():
    for name, g in _differential_graphs():
        first, last = g.vertex_list[0], g.vertex_list[-1]
        swap = {first: last, last: first}
        cases = [
            (list(automorphisms_iter(g)), list(_ref_isomorphisms(g, g))),
            (list(automorphisms_iter(g, pinned=swap)),
             list(_ref_isomorphisms(g, g, pinned=swap))),
        ]
        for got, want in cases:
            assert got == want, name
        assert cases[0][0], name


def _assert_decision_matches_reference(g1, g2, marking1=None, marking2=None):
    got = are_isomorphic(g1, g2, marking1, marking2) is not None
    want = any(True for _ in _ref_isomorphisms(g1, g2, marking1, marking2))
    assert got == want


def test_are_isomorphic_matches_reference_on_corpus_pairs():
    corpus = [g for _, g in expansion_corpus()]
    n_pairs = 0
    for g1 in corpus:
        for g2 in corpus:
            if (g1.n_vertices, g1.n_darts) != (g2.n_vertices, g2.n_darts):
                continue
            n_pairs += 1
            _assert_decision_matches_reference(g1, g2)
            if g1.vertex_list:
                for w in g2.vertex_list:
                    _assert_decision_matches_reference(
                        g1, g2, (g1.vertex_list[0],), (w,))
    assert n_pairs > len(corpus)


def test_are_isomorphic_matches_reference_on_relabelled_random():
    for seed in range(100):
        g = random_instance(seed)
        h = relabel(g, seed)
        _assert_decision_matches_reference(g, h)
        first = g.vertex_list[0]
        for v in g.vertex_list:
            _assert_decision_matches_reference(
                g, h, (first,), (relabel_vertex(g, seed, v),))


def test_canonical_form_bytes_are_pinned():
    # sha256 of the plain, set-marked and ordered-marked forms of every
    # differential graph, as first recorded; a change to the encoding or
    # to the order of the search shows here
    digest = hashlib.sha256()
    for name, g in _differential_graphs():
        vs = g.vertex_list
        for form in (canonical_form(g), canonical_form(g, marking=vs[:2]),
                     canonical_form(g, ordered_marking=(vs[1], vs[0]))):
            digest.update(form + b"\n")
    assert digest.hexdigest() == (
        "1fde12377b8def8791744f65782e5b493bb8164e589db14302d6f10ad6a8a175")


def test_pruning_maps_fix_the_individualized_prefix(monkeypatch):
    # a node of the canonical search skips a child in the orbit of an
    # explored one only under automorphisms that fix its individualized
    # prefix pointwise: those map the explored subtree onto the skipped one
    closure = iso.orbit_closure
    maps_checked = []

    def checking(points, maps):
        caller = sys._getframe(1)
        assert caller.f_code.co_name == "search"
        forced = caller.f_locals["forced"]
        for m in maps:
            assert all(m[u] == u for u in forced), forced
        maps_checked.append(len(maps))
        return closure(points, maps)

    monkeypatch.setattr(iso, "orbit_closure", checking)
    for name, g in _differential_graphs():
        vs = g.vertex_list
        canonical_form(g)
        canonical_form(g, marking=vs[:2])
        canonical_form(g, ordered_marking=(vs[1], vs[0]))
    for g in _beyond_cap_graphs():
        canonical_form(g)
    assert sum(maps_checked) > 1000


def _beyond_cap_graphs():
    """Graphs with |Aut| above 200, where orbit pruning skips the most."""
    def two_pendants(n):
        return with_pendants(
            cycle(n), [f"v{i}" for i in range(n) for _ in range(2)])

    return [theta(*[1] * 7), theta(*[2] * 6), theta(*[1] * 6),
            theta(*[3] * 5), theta(*[2] * 5, edge_type=HALVABLE), book(5),
            book(6), cycle_with_triangles(6), dipole([0] * 6),
            two_pendants(6), two_pendants(8)]


def test_beyond_cap_canonical_form_bytes_are_pinned():
    # sha256 of the plain, set-marked and ordered-marked forms, as recorded
    # by the search before it pruned by automorphisms
    digest = hashlib.sha256()
    for g in _beyond_cap_graphs():
        vs = g.vertex_list
        for form in (canonical_form(g), canonical_form(g, marking=vs[:2]),
                     canonical_form(g, ordered_marking=(vs[1], vs[0]))):
            digest.update(form + b"\n")
    assert digest.hexdigest() == (
        "bde9c79e4001e534a1137baed27c5cdb4896f12038919ffe579063e35d450e71")


def _frucht():
    """Cubic with only the identity automorphism: refinement splits nothing,
    so no child is pruned and the leaves' encodings all differ."""
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    edges = ({tuple(sorted((i, (i + 1) % 12))) for i in range(12)}
             | {tuple(sorted((i, (i + s) % 12))) for i, s in enumerate(lcf)})
    b = GraphBuilder()
    for i in range(12):
        b.vertex(f"a{i}")
    for k, (i, j) in enumerate(sorted(edges)):
        b.edge(f"e{k}", f"a{i}", f"a{j}")
    return b.build()


@pytest.mark.parametrize("build", [lambda: theta(*[1] * 7),
                                   lambda: cycle_with_triangles(6), _frucht],
                         ids=["theta1x7", "C6tri", "frucht"])
@pytest.mark.parametrize("seed", [1, 2])
def test_canonical_relabel_invariance_under_pruning(build, seed):
    g = build()
    h = relabel(g, seed)
    assert canonical_form(h) == canonical_form(g)
    assert are_isomorphic(g, h) is not None


def test_canonical_search_is_pruned_by_automorphisms(monkeypatch):
    # each search node refines once; without pruning theta(1^7) takes
    # thousands of nodes
    nodes = []
    refine = iso._refine

    def counting(g, colors):
        nodes.append(1)
        return refine(g, colors)

    monkeypatch.setattr(iso, "_refine", counting)
    canonical_form(theta(1, 1, 1, 1, 1, 1, 1))
    assert 0 < len(nodes) <= 100


def test_canonical_search_node_counts_are_pinned(monkeypatch):
    # returning to the first path gives the node counts that pruning by
    # automorphisms moving the individualized prefix gives without it, so
    # test_pruning_maps_fix_the_individualized_prefix, not this pin,
    # catches that unsound variant
    nodes = []
    refine = iso._refine

    def counting(g, colors):
        nodes.append(1)
        return refine(g, colors)

    monkeypatch.setattr(iso, "_refine", counting)
    counts = []
    for build in (lambda: theta(*[1] * 7), lambda: theta(*[2] * 6), cube,
                  petersen, lambda: book(6), lambda: cycle_with_triangles(6),
                  lambda: complete(6)):
        nodes.clear()
        canonical_form(build())
        counts.append(len(nodes))
    assert counts == [36, 26, 10, 10, 28, 38, 21]


def test_refine_matches_full_pass_reference(monkeypatch):
    # every coloring the canonical search and the vertex search refine,
    # checked against a full pass that re-signs every vertex each round
    seen = []
    refine = iso._refine

    def recording(g, colors):
        seen.append((g, colors))
        return refine(g, colors)

    monkeypatch.setattr(iso, "_refine", recording)
    graphs = [g for _, g in _differential_graphs()]
    graphs += [normalize(g) for _, g in expansion_corpus()]
    graphs += _beyond_cap_graphs()
    for g in graphs:
        vs = g.vertex_list
        canonical_form(g)
        canonical_form(g, marking=vs[:2])
        canonical_form(g, ordered_marking=(vs[1], vs[0]))
        canonical_form(g, marking=vs[-2:])
        canonical_form(g, ordered_marking=(vs[-1], vs[0]))
        iso._VertexSearch(g)
    monkeypatch.undo()
    assert len(seen) > 10 * len(graphs)
    for g, colors in seen:
        assert iso._refine(g, colors) == _ref_refine([(g, colors)])[0]


def _ref_best_leaf(g, marking, ordered_marking):
    """The canonical search without the return to the first path: every
    child outside the orbits of the explored ones, under the automorphisms
    that fix the node's individualized prefix, is explored."""
    base = iso._ranked(iso._initial_colors(g, marking, ordered_marking))
    after = len(set(base.values()))
    leaves, autos = [], []

    def search(forced):
        init = dict(base)
        for i, v in enumerate(forced):
            init[v] = after + i
        colors = iso._refine(g, init)
        cells = {}
        for v in g.vertex_list:
            if v not in forced:
                cells.setdefault(colors[v], []).append(v)
        big = sorted(c for c, vs in cells.items() if len(vs) > 1)
        if not big:
            order = sorted(g.vertex_list, key=lambda v: colors[v])
            index = {v: i for i, v in enumerate(order)}
            enc = iso._encode(g, index, marking, ordered_marking)
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
            if v in iso.orbit_closure(explored, fixing):
                continue
            explored.add(v)
            search(forced + (v,))

    search(())
    enc, order = leaves[1]
    return repr(enc).encode("ascii"), order


def _read(g):
    """g as a command reads it back from its serialized text."""
    return normalize(parse(serialize(g)))


def _random_regular(d, n, seed):
    """A simple d-regular graph on n vertices from the pairing model,
    drawing again until no loop or parallel edge forms."""
    rng = random.Random(seed)
    while True:
        stubs = [i for i in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i:i + 2]))
                 for i in range(0, len(stubs), 2)}
        if len(edges) == len(stubs) // 2 and all(i != j for i, j in edges):
            break
    b = GraphBuilder()
    for i in range(n):
        b.vertex(f"a{i}")
    for k, (i, j) in enumerate(sorted(edges)):
        b.edge(f"e{k}", f"a{i}", f"a{j}")
    return b.build()


def test_return_to_the_first_path_keeps_forms_and_orders():
    # the leaves the return skips repeat encodings found earlier, so the
    # first leaf with the least encoding, its form and its order, stay.
    # Refinement splits no regular graph, so their searches go deepest:
    # a return one level too shallow loses the best leaf on some of them
    graphs = [g for _, g in _differential_graphs()] + _beyond_cap_graphs()
    for g in [g for _, g in expansion_corpus()] + _beyond_cap_graphs():
        graphs += [parse(serialize(q))
                   for q in all_quotients(_read(g), via="reduction")]
    graphs += [_random_regular(d, n, seed)
               for d, n in ((3, 8), (3, 10), (3, 12), (4, 9), (4, 11))
               for seed in range(10)]
    cases = 0
    for g in graphs:
        vs = g.vertex_list
        for marking, ordered in ((None, None), (vs[:2], None),
                                 (vs[-2:], None), (None, (vs[-1], vs[0]))):
            want = _ref_best_leaf(g, marking, ordered)
            assert iso._canonical(g, marking, ordered) == want
            cases += 1
    assert cases > 2600


def test_beyond_cap_reduction_pass_search_nodes_are_pinned(monkeypatch):
    # the refinements the canonical search makes in one reduction-route
    # pass over the beyond-cap graphs, read back from text as the
    # benchmark reads them
    nodes = []
    refine = iso._refine

    def counting(g, colors):
        if sys._getframe(1).f_code.co_name == "search":
            nodes.append(1)
        return refine(g, colors)

    graphs = [_read(g) for g in _beyond_cap_graphs()]
    monkeypatch.setattr(iso, "_refine", counting)
    for g in graphs:
        all_quotients(g, via="reduction")
    assert len(nodes) == 843


def _from_networkx(nxg):
    b = GraphBuilder()
    for v in nxg.nodes:
        b.vertex(f"n{v}")
    for k, (u, w) in enumerate(nxg.edges):
        b.edge(f"e{k}", f"n{u}", f"n{w}")
    return b.build()


def test_are_isomorphic_matches_networkx_on_cubic_graphs():
    # every vertex of a simple cubic graph gets the same initial color, so
    # only the canonical forms can tell these pairs apart
    nx = pytest.importorskip("networkx")
    lcf = [(12, [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2], 1),  # Frucht
           (14, [5, -5], 7),                                 # Heawood
           (16, [5, -5], 8),                                 # Moebius-Kantor
           (18, [5, 7, -7, 7, -7, -5], 3),                   # Pappus
           (20, [5, -5, 9, -9], 5),                          # Desargues
           (20, [10, 7, 4, -4, -7, 10, -4, 7, -7, 4], 2),    # dodecahedron
           (24, [12, 7, -7], 8)]                             # McGee
    cubic = [nx.LCF_graph(*args) for args in lcf]
    for n in (12, 14, 16, 18, 20):
        for seed in range(3):
            r = nx.random_regular_graph(3, n, seed=seed)
            if nx.is_connected(r):
                cubic.append(r)
    rng = random.Random(7)
    for r in list(cubic):
        perm = list(r.nodes)
        rng.shuffle(perm)
        cubic.append(nx.relabel_nodes(r, dict(zip(r.nodes, perm))))
    graphs = [(r, _from_networkx(r)) for r in cubic]
    positives = negatives = 0
    for i, (r1, g1) in enumerate(graphs):
        for r2, g2 in graphs[i + 1:]:
            if len(r1) != len(r2):
                continue
            assert (sorted(iso._initial_colors(g1, None, None).values())
                    == sorted(iso._initial_colors(g2, None, None).values()))
            want = nx.is_isomorphic(r1, r2)
            assert (are_isomorphic(g1, g2) is not None) == want
            positives += want
            negatives += not want
    assert positives >= len(cubic) // 2 and negatives > 0
