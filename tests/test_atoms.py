import hashlib
import importlib
import itertools

import pytest

from regcover import atoms, iso
from regcover.atoms import (atom_symmetry_type, classify_primitive,
                            extended_atom, find_atoms, is_three_connected,
                            strip_pendant_like)
from regcover.blocks import block_tree
from regcover.errors import GraphError
from regcover.fixtures import (asymmetric_arm_theta, book, bowtie, cube,
                               cycle, cycle_with_triangles, dipole,
                               expansion_corpus, path_graph, random_instance,
                               star_pendants, theta, with_pendants)
from regcover.graph import (DIRECTED, STANDARD, GraphBuilder, HALVABLE,
                            is_cycle, normalize, point_images, point_maps)
from regcover.groups import automorphism_group, semiregularity_violation
from regcover.iso import automorphisms_iter, semiregular_involutions_iter
from regcover.quotient import all_quotients, atom_quotients
from regcover.reduction import reduce_step, reduction_series
from regcover.textfmt import parse, serialize

from helpers import (brute_force_cut_pairs, ref_isomorphisms,
                     ref_kernel_class_firsts, ref_swap_involutions)
from test_cli import SCRIPTS
from test_groups import _scale_graphs
from test_iso import _beyond_cap_graphs, _from_networkx, _read


def test_cube_has_no_atoms():
    assert find_atoms(cube()) == []


def test_theta_has_three_proper_atoms():
    atoms = find_atoms(theta(1, 1, 1))
    assert len(atoms) == 3
    assert all(a.kind == "proper" and a.boundary == ("u", "v") for a in atoms)


def test_star_block_atom():
    (a,) = find_atoms(star_pendants(2))
    assert a.kind == "star_block"
    assert a.boundary == ("c",)
    assert a.symmetry == "symmetric"


def test_block_atoms_have_no_swap_involutions():
    # a block atom has one boundary vertex, so no boundary pair to exchange
    blocks = [a for _, g in expansion_corpus()
              for gi in reduction_series(normalize(g)).graphs[:-1]
              for a in find_atoms(gi) if a.is_block]
    assert {a.kind for a in blocks} == {"star_block", "nonstar_block"}
    assert all(a.swap_involutions() == () for a in blocks)


def test_decorated_cycle_atoms():
    # everything at one vertex: the block-tree center is that articulation,
    # so the cycle itself hangs off it and is an atom too
    g = with_pendants(cycle(4), ["v0", "v0"])
    kinds = sorted(a.kind for a in find_atoms(g))
    assert kinds == ["nonstar_block"]
    # with decorations on two vertices the cycle is central and only the
    # stars reduce
    g = with_pendants(cycle(4), ["v0", "v0", "v2", "v2"])
    atoms = find_atoms(g)
    assert sorted(a.kind for a in atoms) == ["star_block", "star_block"]
    assert sorted(a.boundary for a in atoms) == [("v0",), ("v2",)]


def test_dipole_atoms():
    host = with_pendants(dipole([0, 0, 0]), ["u", "v"])
    dips = [a for a in find_atoms(host) if a.kind == "dipole"]
    assert len(dips) == 1
    assert dips[0].boundary == ("u", "v")
    assert len(dips[0].darts) == 6
    # degree < 3 on one side: no dipole (the two parallel edges are just a
    # cycle block hanging off the articulation)
    host2 = with_pendants(dipole([0, 0]), ["u"])
    assert [a.kind for a in find_atoms(normalize(host2))] == ["nonstar_block"]


def test_classify_primitive_shapes():
    assert classify_primitive(cycle(5)).tag == "cycle"
    assert classify_primitive(cycle(5)).n == 5
    assert classify_primitive(path_graph(2)).tag == "k2"
    assert classify_primitive(cube()).tag == "three_connected"
    assert classify_primitive(GraphBuilder().vertex("v").build()).tag == "k1"
    assert classify_primitive(
        with_pendants(cycle(4), ["v0", "v0"])).tag == "not_primitive"
    assert classify_primitive(theta(2, 2, 2)).tag == "not_primitive"
    k1p = star_pendants(1)
    cls = classify_primitive(k1p)
    assert cls.tag == "k1" and cls.admitted


def test_primitive_decoration_rule():
    # single pendant edges on at least two vertices stay primitive
    g = with_pendants(cycle(4), ["v0", "v2"])
    cls = classify_primitive(g)
    assert cls.tag == "cycle" and cls.admitted
    # on one vertex only, the center drops to the articulation and the
    # cycle itself becomes an atom
    g = with_pendants(cycle(4), ["v0"])
    cls = classify_primitive(g)
    assert cls.tag == "not_primitive"


def test_symmetry_types_of_paths():
    a1 = find_atoms(theta(1, 1, 1))[0]      # u - x - v: the swap pins x
    assert atom_symmetry_type(a1) == "symmetric"
    # u - x - y - v: the swap fixes the middle edge setwise (darts swapped),
    # so it is semiregular only when that edge is halvable
    a2 = find_atoms(theta(2, 2, 2))[0]
    assert atom_symmetry_type(a2) == "symmetric"
    a2h = find_atoms(theta(2, 2, 2, edge_type=HALVABLE))[0]
    assert atom_symmetry_type(a2h) == "halvable"


def test_symmetry_type_directed_dipole():
    # two opposite directed edges plus one undirected: the only boundary
    # swap pairs the directed edges and fixes the undirected one, which is
    # not allowed, so the atom is symmetric but not halvable
    b = GraphBuilder().vertex("u").vertex("v")
    b.edge("d1", "u", "v", type="directed", tail="u")
    b.edge("d2", "u", "v", type="directed", tail="v")
    b.edge("m", "u", "v")
    host = with_pendants(b.build(), ["u", "v"])
    (dip,) = [a for a in find_atoms(host) if a.kind == "dipole"]
    assert dip.symmetry == "symmetric"


def test_symmetry_type_asymmetric():
    b = GraphBuilder().vertex("u").vertex("v")
    b.edge("d1", "u", "v", type="directed", tail="u")
    b.edge("d2", "u", "v", type="directed", tail="u")
    host = with_pendants(b.build(), ["u", "v"])
    (dip,) = [a for a in find_atoms(host) if a.kind == "dipole"]
    assert dip.symmetry == "asymmetric"


def test_block_atom_symmetry_errors():
    (a,) = find_atoms(star_pendants(2))
    assert a.symmetry == "symmetric"
    with pytest.raises(GraphError):
        extended_atom(a)


def test_is_three_connected_matches_networkx():
    nx = pytest.importorskip("networkx")
    graphs = [strip_pendant_like(normalize(g))
              for g in [g for _, g in expansion_corpus()]
              + [random_instance(seed) for seed in range(100)]]
    graphs += [_from_networkx(r) for r in (
        nx.petersen_graph(), nx.circular_ladder_graph(4), nx.wheel_graph(6),
        nx.complete_bipartite_graph(3, 3), nx.ladder_graph(4))]
    seen = set()
    for g in graphs:
        simple = nx.Graph()
        simple.add_nodes_from(g.vertex_list)
        simple.add_edges_from((g.vertex_of(h), g.vertex_of(k))
                              for h, k in g.edges
                              if g.edge_kind(h) == STANDARD)
        expected = nx.node_connectivity(simple) >= 3
        assert is_three_connected(g) == expected, g
        seen.add(expected)
    assert seen == {True, False}


def test_cut_pairs_match_brute_force():
    # one search per vertex finds the same 2-cuts as one per pair, also
    # where removing the first vertex already disconnects the graph
    graphs = [g for _, g in expansion_corpus()] + _beyond_cap_graphs()
    graphs += [normalize(random_instance(seed)) for seed in range(300)]
    graphs += [g.restrict(*block) for g in list(graphs)
               for block in block_tree(g).blocks]
    scale = _scale_graphs()
    graphs += [scale["CFI(K4)"], scale["Z6-cover of K4"]]
    assert len(graphs) > 900
    # two K4s sharing vertex a, so g - a has two components, and K4 with
    # a vertex b tied to its vertex a by three parallel edges, so b is
    # alone in g - a
    two_k4, tied = GraphBuilder(), GraphBuilder()
    for v in "apqrxyz":
        two_k4.vertex(v)
    for i, (u, w) in enumerate(itertools.chain(
            itertools.combinations("apqr", 2),
            itertools.combinations("axyz", 2))):
        two_k4.edge(f"e{i}", u, w)
    for v in "abpqr":
        tied.vertex(v)
    for i, (u, w) in enumerate(itertools.combinations("apqr", 2)):
        tied.edge(f"e{i}", u, w)
    for i in range(3):
        tied.edge(f"t{i}", "a", "b")
    two_k4, tied = two_k4.build(), tied.build()
    assert atoms._cut_pairs(two_k4) == {("a", v) for v in "pqrxyz"}
    assert atoms._cut_pairs(tied) == {("a", v) for v in "pqr"}
    graphs += [two_k4, tied]
    found = 0
    for g in graphs:
        expected = brute_force_cut_pairs(g)
        assert atoms._cut_pairs(g) == expected, g
        found += bool(expected)
    assert found > 150


def test_a_primitive_level_searches_its_2_cuts_once(monkeypatch):
    # `_find_cut_pairs` calls and repeats of a search made earlier in the
    # same op, per corpus pass of all_quotients by both routes on freshly
    # parsed graphs.  `classify_primitive` tests the block graph that
    # `_find_atoms` searched, so no 3-connectivity test searches again:
    # 63 calls with 11 repeats before.  The 2 left are blocks that
    # reappear at the next reduction level as new graph objects.
    find, seen, calls, repeats = atoms._find_cut_pairs, set(), [], []

    def counting(g):
        key = (tuple(g.vertex_list), tuple(sorted(
            (g.vertex_of(h), g.vertex_of(k)) for h, k in g.edges)))
        calls.append(key)
        if key in seen:
            repeats.append(key)
        seen.add(key)
        return find(g)

    monkeypatch.setattr(atoms, "_find_cut_pairs", counting)
    for _, g in expansion_corpus():
        for via in ("bruteforce", "reduction"):
            seen.clear()
            all_quotients(normalize(parse(serialize(g))), via=via)
    assert (len(calls), len(repeats)) == (54, 2)


def test_extended_atom():
    a = find_atoms(theta(1, 1, 1))[0]
    plus = extended_atom(a)
    assert is_cycle(plus) and plus.n_vertices == 3
    a = find_atoms(theta(2, 2, 2))[0]
    plus = extended_atom(a)
    assert is_cycle(plus) and plus.n_vertices == 4


def _core_tag(g):
    """The `classify_primitive` tag of g with its pendant-like items
    stripped: a cycle or a 3-connected graph under decorations."""
    return classify_primitive(normalize(strip_pendant_like(g))).tag


def test_extended_atoms_classify_over_corpus():
    tags = []
    for name, g in expansion_corpus():
        g = normalize(g)
        for a in find_atoms(g):
            if a.kind != "proper":
                continue
            tags.append(_core_tag(extended_atom(a)))
            assert tags[-1] in ("cycle", "three_connected"), name
    assert tags.count("cycle") == 35 and tags.count("three_connected") == 1


def test_nonstar_block_atom_shapes():
    for name, g in expansion_corpus():
        g = normalize(g)
        for a in find_atoms(g):
            if a.kind != "nonstar_block":
                continue
            ag = a.as_graph()
            k2_pendant = (ag.n_vertices == 2 and ag.n_edges == 2)
            assert (k2_pendant
                    or _core_tag(ag) in ("cycle", "three_connected")), name


def test_interiors_disjoint_and_overlap_only_at_boundaries():
    for name, g in expansion_corpus():
        g = normalize(g)
        atoms = find_atoms(g)
        for a, b in itertools.combinations(atoms, 2):
            assert not (a.interior_vertices & b.interior_vertices), name
            assert not (a.darts & b.darts), name
            shared = a.vertices & b.vertices
            assert shared == set(a.boundary) & set(b.boundary), name


def test_atom_equivariance():
    for name, g in [("theta222", theta(2, 2, 2)), ("bowtie", bowtie()),
                    ("C6pend", with_pendants(cycle(6), [f"v{i}" for i in range(6)]))]:
        g = normalize(g)
        atoms = find_atoms(g)
        atom_sets = {a.darts for a in atoms}
        boundaries = {a.darts: set(a.boundary) for a in atoms}
        for p in automorphism_group(g):
            vm, dm = point_maps(g, p)
            for a in atoms:
                image = frozenset(dm[h] for h in a.darts)
                assert image in atom_sets, name
                assert {vm[x] for x in a.boundary} == boundaries[image], name


def test_dipole_boundary_degrees_and_proper_nonadjacent():
    for name, g in expansion_corpus():
        g = normalize(g)
        for a in find_atoms(g):
            if a.kind == "dipole":
                assert all(g.degree(v) >= 3 for v in a.boundary), name
            if a.kind == "proper":
                u, v = a.boundary
                ag = a.as_graph()
                for h in ag.darts_at(u):
                    assert ag.vertex_of(ag.pair(h)) != v, name


def _series_graphs():
    """Normalized corpus, random and beyond-cap graphs."""
    for _, g in expansion_corpus():
        yield normalize(g)
    for seed in range(200):
        yield normalize(random_instance(seed))
    for g in _beyond_cap_graphs():
        yield normalize(g)


def _ref_symmetry_type(a):
    """The symmetry type by brute force: a scan of the boundary swaps for a
    semiregular involution, then a second search for any swap."""
    if a.is_block:
        return "symmetric"
    u, v = a.boundary
    ag = a.as_graph()
    swap = {u: v, v: u}
    if ref_swap_involutions(ag, swap):
        return "halvable"
    if next(ref_isomorphisms(ag, ag, pinned=swap), None) is not None:
        return "symmetric"
    return "asymmetric"


def test_symmetry_types_match_brute_force():
    seen = set()
    for g in _series_graphs():
        for gi in reduction_series(g).graphs[:-1]:
            for a in find_atoms(gi):
                assert a.symmetry == _ref_symmetry_type(a), a
                seen.add(a.symmetry)
    assert seen == {"halvable", "symmetric", "asymmetric"}


def _decorated_pair():
    """Two swappable vertices with loop bundles, pendants, attached and
    free half-edges and free edges: item groups no atom holds."""
    b = GraphBuilder().vertex("a").vertex("b")
    b.edge("e", "a", "b", type=HALVABLE)
    for v in "ab":
        for i in range(2):
            b.loop(f"l{v}{i}", v, type=HALVABLE)
        b.loop(f"d{v}", v, type=DIRECTED)
        b.pendant(f"p{v}", v)
        b.halfedge(f"h{v}", v)
    for i in range(3):
        b.free(f"f{i}", type=HALVABLE)
    b.halfedge("x0")
    b.halfedge("x1")
    return b.build()


def test_involution_builder_matches_filtered_scan():
    # the first of each class, under conjugation by the automorphisms
    # fixing every vertex, of the semiregular involutions that filtering
    # every automorphism lists, in the same order: on each boundary swap
    # of a non-block atom, and on each vertex pair of the corpus series
    # levels
    atoms = scanned = kept = 0
    for g in _series_graphs():
        for gi in reduction_series(g).graphs[:-1]:
            for a in find_atoms(gi):
                if a.is_block:
                    continue
                u, v = a.boundary
                ag, swap = a.as_graph(), {u: v, v: u}
                found = list(semiregular_involutions_iter(ag, pinned=swap))
                scan = ref_swap_involutions(ag, swap)
                assert found == ref_kernel_class_firsts(ag, scan), a
                atoms += 1
                scanned += len(scan)
                kept += len(found)
    assert (atoms, scanned, kept) == (355, 302, 140)
    levels = [gi for _, g in expansion_corpus()
              for gi in reduction_series(normalize(g)).graphs]
    pairs = scanned = kept = 0
    for gi in levels + [_decorated_pair()]:
        for x, y in itertools.combinations(gi.vertex_list, 2):
            swap = {x: y, y: x}
            found = list(semiregular_involutions_iter(gi, pinned=swap))
            scan = ref_swap_involutions(gi, swap)
            assert found == ref_kernel_class_firsts(gi, scan), (gi, swap)
            pairs += 1
            scanned += len(scan)
            kept += len(found)
    # corpus levels + decorated pair
    assert (pairs, scanned, kept) == (861, 330, 229)


def test_involution_builder_builds_only_kept_maps(monkeypatch):
    built = []
    build = iso._involution_dart_maps

    def counting(g, vmap):
        for dmap in build(g, vmap):
            built.append(dmap)
            yield dmap

    monkeypatch.setattr(iso, "_involution_dart_maps", counting)
    kept = 0
    for g in _beyond_cap_graphs():
        for gi in reduction_series(normalize(g)).graphs[:-1]:
            for a in find_atoms(gi):
                kept += len(a.swap_involutions())
    assert len(built) == kept == 14
    # theta(1^7): a filtered scan of the class representatives' boundary
    # swaps looks at 5,041 automorphisms, 5,040 of them on the dipole of 7
    # parallel edges, whose odd bundle admits no involution to build
    built.clear()
    scanned = 0
    for step in reduction_series(normalize(theta(*[1] * 7))).steps:
        for cls in step.classes:
            assert cls.rep.swap_involutions() == ()
            u, v = cls.rep.boundary
            scanned += sum(1 for _ in automorphisms_iter(
                cls.rep.as_graph(), pinned={u: v, v: u}))
    assert scanned == 5041
    assert built == []


def test_reduction_classes_are_pinned():
    # sha256 over every reduction class: color, kind, symmetry type,
    # ordered boundary, member count and the serialized edge-, loop- and
    # half-quotients with their image vertices, as recorded while the
    # symmetry type came from the brute-force swap searches above
    digest = hashlib.sha256()
    n = 0
    for g in _series_graphs():
        for step in reduction_series(g).steps:
            for cls in step.classes:
                a, q = cls.rep, atom_quotients(cls.rep)
                parts = [str(cls.color), a.kind, a.symmetry,
                         repr(a.ordered_boundary()), str(len(cls.members)),
                         serialize(q.edge_quotient[0]),
                         repr(q.edge_quotient[1])]
                if q.loop_quotient is not None:
                    parts += [serialize(q.loop_quotient[0]),
                              q.loop_quotient[1]]
                for hg, w in q.half_quotients:
                    parts += [serialize(hg), w]
                digest.update("\n".join(parts).encode() + b"\n\n")
                n += 1
    assert n == 318
    assert digest.hexdigest() == (
        "3300950c0bf53e6b0cd2b39866d5cde7165dd182ebf778db221a408b1c4b335c")


@pytest.fixture
def atom_forms(monkeypatch):
    """`atom_forms` of `scripts/search_nodes.py`: (searched, transferred)
    while run() runs, the graph of each boundary-marked search
    `find_atoms` runs and the (source, member, source boundary, member
    boundary) of each form `iso.transfer_form` writes."""
    monkeypatch.syspath_prepend(SCRIPTS)
    return importlib.import_module("search_nodes").atom_forms


def _members(atom_list):
    """The atoms after the first of their size, which `find_atoms` offers
    the first one's form."""
    return len(atom_list) - len({(len(a.vertices), len(a.darts),
                                  len(a.boundary)) for a in atom_list})


def test_shared_atom_forms_equal_their_own_search(atom_forms):
    # an atom after the first of its size takes its boundary-marked form
    # from that first atom through a checked map; a fresh copy's own
    # search is the oracle for the form, the carried best-leaf order must
    # encode to it, and the member map of `reduction._member_ends` must
    # still verify.  Random graphs are taken as built and read back from
    # text, two sets of graph objects with their own atoms
    graphs = [g for _, g in expansion_corpus()] + _beyond_cap_graphs()
    graphs += [random_instance(seed) for seed in range(200)]
    graphs += [_read(random_instance(seed)) for seed in range(200)]
    graphs += [theta(*[2] * 30), book(30), cycle_with_triangles(24)]
    levels = []
    _, transferred = atom_forms(lambda: levels.extend(
        gi for g in graphs
        for gi in reduction_series(normalize(g)).graphs[:-1]))
    members = sum(_members(find_atoms(gi)) for gi in levels)
    for g1, g2, marking1, marking2 in transferred:
        form, order = iso._canonical(g2, marking2, None)[:2]
        fresh = g2.restrict(g2.darts)
        assert form == iso.canonical_form(fresh, marking=marking2,
                                          max_vertices=None)
        index = {v: i for i, v in enumerate(order)}
        assert repr(iso._encode(g2, index, marking2, None)).encode(
            "ascii") == form
        assert iso.leaf_isomorphism(g1, g2, marking1, marking2) is not None
    assert (len(transferred), members) == (336, 336)


def test_beyond_cap_atom_forms_searched_and_transferred_are_pinned(
        atom_forms):
    # per reduction-route pass over the beyond-cap graphs, read back from
    # text as the benchmark reads them: 68 boundary-marked atom searches
    # fell to 18 when every atom after the first of its size took its form
    # from that first atom, as all 50 such atoms do
    searched, transferred = atom_forms(lambda: [
        all_quotients(_read(g), via="reduction")
        for g in _beyond_cap_graphs()])
    members = sum(_members(find_atoms(gi)) for g in _beyond_cap_graphs()
                  for gi in reduction_series(_read(g)).graphs[:-1])
    assert (len(searched), len(transferred), members) == (18, 50, 50)


def _colored_arm_theta():
    """`asymmetric_arm_theta` with the third arm's pendant colored 1: three
    atoms of one size, the third not isomorphic to the first."""
    g = asymmetric_arm_theta()
    b = GraphBuilder(g.restrict(g.darts - {"p2.1", "p2.2"}))
    return b.pendant("q2", "x2", color=1).build()


def _outputs(g):
    """What `find_atoms`, `reduce_step` and the reduction route give on g."""
    step = reduce_step(g)
    return ([(a.kind, a.boundary, sorted(a.darts), a.form())
             for a in find_atoms(g)],
            serialize(step.target),
            [(r.atom.boundary, r.dart_vertices) for r in step.replacements],
            [serialize(q) for q in all_quotients(g, via="reduction")])


def _swap_two_darts(walk):
    def swapped(g1, g2, ends1, ends2):
        maps = walk(g1, g2, ends1, ends2)
        if maps is not None:
            vmap, dmap = maps
            h = min(dmap)
            k = min(d for d in dmap if d not in (h, g1.pairing[h]))
            dmap[h], dmap[k] = dmap[k], dmap[h]
        return maps
    return swapped


def _by_names(g1, g2, ends1, ends2):
    return (dict(zip(g1.vertex_list, g2.vertex_list)),
            dict(zip(g1.dart_list, g2.dart_list)))


@pytest.mark.parametrize("patch, builds", [
    (_swap_two_darts,
     [lambda: theta(*[2] * 6), asymmetric_arm_theta,
      lambda: cycle_with_triangles(6)]),
    (lambda walk: _by_names, [_colored_arm_theta])])
def test_a_refused_boundary_map_writes_no_form(monkeypatch, atom_forms,
                                               patch, builds):
    # a walk whose map fails `verify_isomorphism`, by two darts swapped or
    # by a map onto an atom of equal size that is not isomorphic, writes
    # no form: the member is searched, and the outputs are those of a run
    # that shares forms as usual
    want = [_outputs(build()) for build in builds]
    refused, transfer = [], atoms.transfer_form

    def checking(g1, g2, vmap, dmap, marking1, marking2):
        ok = transfer(g1, g2, vmap, dmap, marking1, marking2)
        if not ok:
            assert (frozenset(marking2), None) not in g2.__dict__.get(
                "_iso_canon", {})
            refused.append(g2)
        return ok

    monkeypatch.setattr(atoms, "_boundary_map", patch(atoms._boundary_map))
    monkeypatch.setattr(atoms, "transfer_form", checking)
    got = []
    searched, _ = atom_forms(
        lambda: got.extend(_outputs(build()) for build in builds))
    assert got == want
    assert refused
    assert {id(g) for g in refused} <= {id(g) for g in searched}
