import hashlib
import random
import sys

import pytest
from hypothesis import given, settings

from regcover import iso
from regcover.errors import GraphError, SizeLimitError
from regcover.fixtures import (bowtie, book, complete, cube, cycle,
                               cycle_with_triangles, dipole, expansion_corpus,
                               path_graph, petersen, prism, random_instance,
                               theta, with_pendants)
from regcover.graph import HALVABLE, Graph, GraphBuilder, normalize, point_maps
from regcover.groups import automorphism_group
from regcover.iso import (are_isomorphic, automorphisms_iter, canonical_form,
                          semiregular_involutions_iter, verify_isomorphism)
from regcover.quotient import all_quotients
from regcover.textfmt import parse, serialize

from helpers import ref_isomorphisms, ref_refine
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
            same_iso = any(True for _ in ref_isomorphisms(g1, g2))
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


def test_a_vertex_the_graph_lacks_is_named():
    # every marking, pin and fixed tuple reaches the initial coloring,
    # which names a vertex the graph lacks instead of raising a KeyError,
    # and a pair of markings is checked before their colorings are
    # compared, so one valid marking does not make it "not isomorphic"
    g = cube()
    for call in (lambda: canonical_form(g, marking=["nope"]),
                 lambda: canonical_form(g, ordered_marking=["000", "nope"]),
                 lambda: iso.count_automorphisms(g, {"nope": "000"}),
                 lambda: iso.count_automorphisms(g, {"000": "nope"}),
                 lambda: iso.stabilizer_chain(g, ("nope",)),
                 lambda: are_isomorphic(g, g, ["nope"], ["000"]),
                 lambda: are_isomorphic(g, g, ["000"], ["nope"])):
        with pytest.raises(GraphError, match="unknown vertex 'nope'"):
            call()


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
    # before its own and moves its own.  The base is the canonical
    # search's first path.  Under the cap, the images of level i are
    # exactly the orbit of its base point among the automorphisms that
    # the reference search lists fixing the base points before it, in
    # vertex order.  Representatives are image tuples, read through
    # `graph.point_maps`.
    graphs = [g for _, g in expansion_corpus()] + _beyond_cap_graphs()
    for seed in range(200):
        graphs += [random_instance(seed), normalize(random_instance(seed))]
    for g in graphs:
        chain = transversals, kernel = iso.stabilizer_chain(g)
        assert iso._first_dart_map(kernel) == next(iso.dart_maps(kernel))
        base = iso._canonical(g, None, None)[2]
        assert len(transversals) == len(base)
        vmaps = [[point_maps(g, t)[0] for t in reps]
                 for reps in transversals]
        for i, reps in enumerate(transversals):
            for t, vmap in zip(reps, vmaps[i]):
                assert verify_isomorphism(g, g, *point_maps(g, t))
                assert all(vmap[v] == v for v in base[:i])
                assert vmap[base[i]] != base[i]
        if iso.chain_order(chain) > 200:
            continue
        listed = [vmap for vmap, _ in ref_isomorphisms(g, g)]
        assert len(listed) == iso.chain_order(chain)
        for i in range(len(transversals)):
            orbit = {vmap[base[i]] for vmap in listed
                     if all(vmap[v] == v for v in base[:i])}
            assert [vmap[base[i]] for vmap in vmaps[i]] == sorted(
                orbit - {base[i]})
        # what fixes the base fixes every vertex
        assert all(all(vmap[v] == v for v in vmap) for vmap in listed
                   if all(vmap[v] == v for v in base))


def test_kept_stabilizer_chain_is_immutable():
    # every caller shares the chain kept on the graph, so editing it must
    # fail rather than change the next count
    g = cube()
    transversals, kernel = iso.stabilizer_chain(g)
    with pytest.raises(TypeError):
        transversals[0] = transversals[0] + transversals[0][:1]
    with pytest.raises(TypeError):
        transversals[0][0][0] = 1
    assert isinstance(kernel, tuple)
    assert iso.count_automorphisms(g) == 48


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
            (list(automorphisms_iter(g)), list(ref_isomorphisms(g, g))),
            (list(automorphisms_iter(g, pinned=swap)),
             list(ref_isomorphisms(g, g, pinned=swap))),
        ]
        for got, want in cases:
            assert got == want, name
        assert cases[0][0], name


def _assert_decision_matches_reference(g1, g2, marking1=None, marking2=None):
    got = are_isomorphic(g1, g2, marking1, marking2) is not None
    want = any(True for _ in ref_isomorphisms(g1, g2, marking1, marking2))
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
    # every coloring the canonical search refines, for forms, chains and
    # pinned cosets, checked against a full pass that re-signs every
    # vertex each round
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
        iso.count_automorphisms(g, pinned={vs[0]: vs[0]})
        list(iso.automorphisms_iter(g, pinned={vs[0]: vs[-1]}))
    monkeypatch.undo()
    assert len(seen) > 10 * len(graphs)
    for g, colors in seen:
        assert iso._refine(g, colors) == ref_refine([(g, colors)])[0]


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
            assert iso._canonical(g, marking, ordered)[:2] == want
            cases += 1
    assert cases > 2600


def test_beyond_cap_reduction_pass_search_nodes_are_pinned(monkeypatch):
    # the refinements the canonical search makes in one reduction-route
    # pass over the beyond-cap graphs, read back from text as the
    # benchmark reads them.  843 were for forms, with the stabilizer
    # chains of the graphs whose groups the route lists adding 42; 885
    # fell to 762 when half-quotients were built once per conjugacy class
    # of swap involutions, not once per involution, and to 654 when class
    # members took their ends from the representative's ordered forms and
    # G/1 became G itself, whose unmarked form its stabilizer chain holds,
    # and to 454 when each expanded graph's search started from the copy
    # swaps and lifted automorphisms its expansion knows
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
    assert len(nodes) == 454


def test_corpus_quotients_pass_searches_are_pinned(monkeypatch):
    # canonical searches (`_best_leaf` calls) in one pass of all_quotients
    # by both routes over the corpus, each graph read back from text for
    # each route as the benchmark reads it.  635 fell to 485 when G/1
    # became G itself, whose unmarked form its stabilizer chain holds, and
    # class members took their ends from the representative's ordered
    # forms, not from two searches of their own
    searches = []
    best_leaf = iso._best_leaf

    def counting(g, marking, ordered_marking):
        searches.append(1)
        return best_leaf(g, marking, ordered_marking)

    monkeypatch.setattr(iso, "_best_leaf", counting)
    for _, g in expansion_corpus():
        for via in ("bruteforce", "reduction"):
            all_quotients(_read(g), via=via)
    assert len(searches) == 485


def test_dart_maps_take_no_stack_frame_per_job(monkeypatch):
    # one dart job per edge: 1,200 jobs, and 1,200 items in one job, ran
    # past the interpreter's recursion limit when each took a frame.  The
    # canonical search keeps each node's closed set of explored children,
    # so the cycle's group takes 9 orbit closures; closing the explored
    # children again for every child took 1,201
    closures = []
    closure = iso.orbit_closure

    def counting(points, maps):
        closures.append(1)
        return closure(points, maps)

    monkeypatch.setattr(iso, "orbit_closure", counting)
    assert automorphism_group(cycle(1200), max_order=2400).order == 2400
    assert len(closures) == 9
    for g, swap in ((cycle(1200, edge_type=HALVABLE), ("v0", "v1")),
                    (dipole([0] * 1200), ("u", "v"))):
        u, v = swap
        vmap, dmap = next(semiregular_involutions_iter(g, pinned={u: v,
                                                               v: u}))
        assert verify_isomorphism(g, g, vmap, dmap)
        assert all(dmap[dmap[h]] == h != dmap[h] for h in g.darts)


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
