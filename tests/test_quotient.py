import hashlib
import importlib
import os
import subprocess
import sys

import pytest

import regcover
from regcover import groups, iso
from regcover.atoms import HALVABLE_SYM, Atom, find_atoms
from regcover.blocks import block_tree
from regcover.errors import GraphError, InternalError
from regcover.fixtures import (complete, cube, cycle, cycle_with_triangles,
                               dipole, expansion_corpus, petersen,
                               random_instance, reduction_showcase,
                               star_pendants, theta, with_pendants)
from regcover.graph import (Graph, GraphBuilder, HALVABLE, UNDIRECTED,
                            is_cycle, is_path_with_two_halfedges, normalize,
                            point_images, point_maps, with_halvable_edges)
from regcover.groups import (Group, automorphism_group,
                             count_automorphisms, is_semiregular,
                             semiregular_class_representatives,
                             semiregular_subgroups)
from regcover.iso import (are_isomorphic, canonical_form, chain_order,
                          stabilizer_chain, verify_isomorphism)
from regcover.quotient import (all_quotients, atom_projection_type,
                               atom_quotients, expand_step, expansion_chain,
                               quotient, regular_cover_test)
from regcover.reduction import reduce_step, reduction_series
from regcover.textfmt import parse, serialize

from helpers import (dmap, is_identity, ref_half_quotients, ref_orbit_maps,
                     ref_swap_involutions, vmap)
from test_iso import _beyond_cap_graphs, _differential_graphs


def _sub_with_vertex_map(g, order, wanted):
    for s in semiregular_subgroups(g, order=order):
        if any(vmap(g, p) == wanted for p in s):
            return s
    raise AssertionError("no such subgroup")


def test_c6_rotation_quotients():
    g = cycle(6)
    rot3 = _sub_with_vertex_map(
        g, 2, {f"v{i}": f"v{(i + 3) % 6}" for i in range(6)})
    q = quotient(g, rot3)
    assert is_cycle(q.result) and q.result.n_vertices == 3
    rot2 = _sub_with_vertex_map(
        g, 3, {f"v{i}": f"v{(i + 2) % 6}" for i in range(6)})
    q = quotient(g, rot2)
    assert is_cycle(q.result) and q.result.n_vertices == 2
    assert q.result.n_edges == 2


def test_icosahedron_antipodal_quotient_is_k6():
    from regcover.fixtures import icosahedron
    g = icosahedron()
    found = [q for q in all_quotients(g) if q.n_vertices == 6]
    assert len(found) == 1
    assert are_isomorphic(found[0], complete(6)) is not None


def test_cube_antipodal_quotient_is_k4():
    g = cube()
    anti = _sub_with_vertex_map(
        g, 2, {v: format(7 - int(v, 2), "03b") for v in g.vertex_list})
    q = quotient(g, anti)
    assert are_isomorphic(q.result, complete(4)) is not None


def test_c4_halvable_reflection_quotient():
    g = cycle(4, HALVABLE)
    refl = _sub_with_vertex_map(
        g, 2, {"v0": "v1", "v1": "v0", "v2": "v3", "v3": "v2"})
    q = quotient(g, refl)
    assert is_path_with_two_halfedges(q.result)
    assert q.result.n_vertices == 2


def test_quotient_rejects_non_semiregular():
    g = cycle(6)
    aut = automorphism_group(g)
    refl = next(p for p in aut if vmap(g, p) == {
        "v0": "v0", "v1": "v5", "v2": "v4", "v3": "v3", "v4": "v2", "v5": "v1"})
    grp = Group(g, [aut.elements[aut.identity_index], refl])
    with pytest.raises(GraphError) as err:
        quotient(g, grp)
    # the refusal names the element by its position, and the point
    assert grp.elements.index(refl) == 1
    assert str(err.value) == ("group is not semiregular: element 1 fixes "
                              "vertex 'v0'")
    # in all of Aut(C6), the first element fixing v0 but the identity
    first = next(i for i, x in enumerate(aut.elements) if i and x[0] == 0)
    assert aut.elements[first] == refl
    with pytest.raises(GraphError) as err:
        quotient(g, aut)
    assert str(err.value) == (f"group is not semiregular: element {first} "
                              f"fixes vertex 'v0'")
    # the C4 reflection through two edge midpoints fixes no point, but
    # reverses two edges that are not halvable
    g = cycle(4)
    swap = next(p for p in automorphism_group(g) if vmap(g, p) == {
        "v0": "v1", "v1": "v0", "v2": "v3", "v3": "v2"})
    with pytest.raises(GraphError) as err:
        quotient(g, Group(g, [range(len(swap)), swap]))
    assert str(err.value) == ("group is not semiregular: element 1 swaps "
                              "the darts of non-halvable edge 'e0.1'/'e0.2'")


def _corpus_class_representatives():
    for name, g in expansion_corpus():
        for gamma in semiregular_class_representatives(g):
            yield name, g, gamma


def test_quotient_maps_are_the_least_orbit_members():
    # the quotient names each orbit, read one point per orbit, by its
    # least member, as the orbit closure over every element does
    checked = 0
    for name, g, gamma in _corpus_class_representatives():
        q = quotient(g, gamma)
        assert (q.vertex_map, q.dart_map) == ref_orbit_maps(g, gamma), name
        checked += 1
    assert checked == 137


def test_quotient_checks_no_element_at_every_point(monkeypatch):
    # on success, neither the orbit closure nor the explanation of a
    # single element runs
    cases = list(_corpus_class_representatives())
    want = [quotient(g, gamma).result for _, g, gamma in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("reached")

    module = importlib.import_module("regcover.quotient")
    for mod in (groups, module):
        for name in ("orbits", "semiregularity_violation"):
            monkeypatch.setattr(mod, name, refuse, raising=False)
    for (name, g, gamma), result in zip(cases, want):
        assert quotient(g, gamma).result == result, name
    with pytest.raises(AssertionError, match="reached"):
        quotient(cycle(6), automorphism_group(cycle(6)))


def test_quotient_by_the_trivial_group_is_the_graph_itself(monkeypatch):
    g = cube()
    one = Group(g, [range(g.n_vertices + g.n_darts)])
    q = quotient(g, one)
    assert q.result is g and q.source is g and q.group is one
    assert q.dart_map == {h: h for h in g.darts}
    assert q.vertex_map == {v: v for v in g.vertices}
    # the checks still come first: a group of another graph, and a group
    # that is not semiregular, are refused
    other = cycle(4)
    with pytest.raises(GraphError, match="does not act"):
        quotient(g, Group(other, [range(other.n_vertices + other.n_darts)]))
    refl = next(p for p in automorphism_group(other)
                if vmap(other, p)["v0"] == "v0" and not is_identity(p))
    with pytest.raises(GraphError, match="not semiregular"):
        quotient(other, Group(other, [range(12), refl]))
    # the bruteforce route searches Petersen's own form once, for its
    # stabilizer chain, and G/1 reads it there, not from an equal copy
    g = petersen()
    searched = []
    best_leaf = iso._best_leaf

    def counting(h, marking, ordered_marking):
        searched.append((h, marking, ordered_marking))
        return best_leaf(h, marking, ordered_marking)

    monkeypatch.setattr(iso, "_best_leaf", counting)
    qs = all_quotients(g, "bruteforce")
    assert any(q is g for q in qs)
    (same,) = [x for x in searched if x[0] == g]
    assert same[0] is g and same[1:] == (None, None)


def test_fiber_law_and_equivariance():
    for g in (cycle(6), cube(), theta(2, 2, 2, edge_type=HALVABLE)):
        for gamma in semiregular_subgroups(g):
            q = quotient(g, gamma)
            for target in q.result.vertex_list:
                fiber = [v for v in g.vertex_list if q.vertex_map[v] == target]
                assert len(fiber) == gamma.order
            for target in q.result.dart_list:
                fiber = [h for h in g.dart_list if q.dart_map[h] == target]
                assert len(fiber) == gamma.order
            for p in gamma:
                dm = dmap(g, p)
                assert all(q.dart_map[dm[h]] == q.dart_map[h]
                           for h in g.dart_list)


def test_atom_projection_types():
    g = theta(2, 2, 2, edge_type=HALVABLE)
    atoms = find_atoms(g)
    aut = automorphism_group(g)
    trivial = Group(g, [aut.elements[aut.identity_index]])
    assert all(atom_projection_type(a, trivial) == "edge" for a in atoms)
    swap = next(s for s in semiregular_subgroups(g, order=2)
                if all(is_identity(p) or vmap(g, p)["u"] == "v"
                       and vmap(g, p)["x0_0"] == "x0_1" for p in s))
    assert all(atom_projection_type(a, swap) == "half" for a in atoms)


def test_atom_projection_type_refuses_another_graphs_group():
    g = theta(2, 2, 2, edge_type=HALVABLE)
    atom = find_atoms(g)[0]
    assert atom.symmetry == HALVABLE_SYM
    assert atom_projection_type(atom, automorphism_group(g)) == "half"
    with pytest.raises(GraphError, match="group does not act on this graph"):
        atom_projection_type(atom, automorphism_group(cycle(5)))


def test_atom_projection_loop_case():
    # the swap exchanges the two short arms (loop-projection: each is mapped
    # off itself with its boundary vertices in one fiber) and reverses the
    # long arm in place (half-projection)
    g = theta(1, 1, 2, edge_type=HALVABLE)
    atoms = find_atoms(g)
    short = [a for a in atoms if len(a.vertices) == 3]
    long = [a for a in atoms if len(a.vertices) == 4]
    assert len(short) == 2 and len(long) == 1
    swap = _sub_with_vertex_map(
        g, 2, {"u": "v", "v": "u", "x0_0": "x1_0", "x1_0": "x0_0",
               "x2_0": "x2_1", "x2_1": "x2_0"})
    assert all(atom_projection_type(a, swap) == "loop" for a in short)
    assert atom_projection_type(long[0], swap) == "half"
    q = quotient(g, swap)
    assert q.vertex_map["u"] == q.vertex_map["v"]


def _dipole_atom(colors, types=None):
    host = with_pendants(dipole(colors, types), ["u", "v"])
    (a,) = [x for x in find_atoms(host) if x.kind == "dipole"]
    return a


@pytest.mark.parametrize("e", range(2, 9))
def test_dipole_half_quotient_counts(e):
    qs = atom_quotients(_dipole_atom([0] * e))
    assert len(qs.half_quotients) == e // 2 + 1


def test_dipole_two_plus_two_colors():
    qs = atom_quotients(_dipole_atom([0, 0, 1, 1]))
    assert len(qs.half_quotients) == 4


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_dipole_paired_colors_reach_bound(k):
    colors = [i for i in range(k) for _ in range(2)]
    qs = atom_quotients(_dipole_atom(colors))
    assert len(qs.half_quotients) == 2 ** k == 2 ** (len(colors) // 2)


def test_dipole_half_quotient_upper_bound():
    for colors in ([0, 0, 0], [0, 0, 1], [0, 1, 2, 2], [0, 0, 1, 1, 2]):
        qs = atom_quotients(_dipole_atom(colors))
        assert len(qs.half_quotients) <= 2 ** (len(colors) // 2)


def test_dipole_loop_quotient():
    qs = atom_quotients(_dipole_atom([0, 0, 0]))
    lg, m = qs.loop_quotient
    assert lg.n_vertices == 1
    assert all(lg.edge_kind(h) == "loop" for h, k in lg.edges)


def _half_texts(halves):
    return [(serialize(piece), w) for piece, w in halves]


def test_half_quotients_match_one_quotient_per_involution():
    # one quotient per class of swap involutions keeps the pieces, their
    # names and their order of one quotient per involution of the
    # reference scan
    hosts = [g for _, g in expansion_corpus()] + _beyond_cap_graphs()
    for e in range(2, 9):
        for colors in ([0] * e, [i // 2 for i in range(e)]):
            hosts.append(with_pendants(dipole(colors), ["u", "v"]))
    hosts.append(theta(2, 2, 2, 2, 2, 2, edge_type=HALVABLE))
    shared = 0
    for g in hosts:
        for a in find_atoms(normalize(g)):
            want = ref_half_quotients(a)
            assert (_half_texts(atom_quotients(a).half_quotients)
                    == _half_texts(want)), a
            if not a.is_block:
                u, v = a.boundary
                scan = ref_swap_involutions(a.as_graph(), {u: v, v: u})
                shared += len(scan) > len(want)
    # atoms where some involutions give the same half-quotient
    assert shared >= 9


def _listed_and_built(monkeypatch, edges):
    """(swap involutions listed, half-quotients, quotients built) of the
    dipole atom of `edges` parallel edges."""
    module = importlib.import_module("regcover.quotient")
    build = module.quotient
    calls = []

    def counting(g, gamma):
        calls.append(gamma)
        return build(g, gamma)

    monkeypatch.setattr(module, "quotient", counting)
    (a,) = find_atoms(normalize(dipole([0] * edges)))
    n = len(atom_quotients(a).half_quotients)
    return len(a.swap_involutions()), n, len(calls)


def test_d6_builds_one_half_quotient_per_class(monkeypatch):
    # listing every swap involution gave 76
    assert _listed_and_built(monkeypatch, 6) == (4, 4, 4)


def test_d8_builds_one_half_quotient_per_class(monkeypatch):
    # listing every swap involution gave 764
    assert _listed_and_built(monkeypatch, 8) == (5, 5, 5)


def test_path_atom_half_quotient():
    a = find_atoms(theta(2, 2, 2, edge_type=HALVABLE))[0]
    qs = atom_quotients(a)
    assert len(qs.half_quotients) == 1
    hq, w = qs.half_quotients[0]
    assert hq.n_vertices == 2 and len(hq.halfedges) == 1


def test_planar_proper_atoms_have_at_most_two_half_quotients():
    cases = []
    cases.append(find_atoms(theta(2, 2, 2, edge_type=HALVABLE))[0])
    cases.append(find_atoms(theta(1, 1, 1, edge_type=HALVABLE))[0])
    # K4 minus an edge and the cube minus an edge, boundary at the gap
    for builder, gap, nv in ((complete(4, HALVABLE), ("v0", "v1"), 4),
                             (cube(HALVABLE), ("000", "001"), 8)):
        g = builder
        drop = next((h, k) for h, k in g.edges
                    if {g.vertex_of(h), g.vertex_of(k)} == set(gap))
        keep = g.darts - set(drop)
        gg = g.restrict(keep, g.vertices)
        cases.append(Atom(gg, gg.darts, gg.vertices, "proper", gap))
    counts = [len(atom_quotients(a).half_quotients) for a in cases]
    assert counts == [1, 0, 1, 2]
    assert all(c <= 2 for c in counts)


def test_expand_no_halfedges_unique():
    g = theta(2, 2, 2, edge_type=HALVABLE)
    step = reduce_step(g)
    out = expand_step(step.target, step)
    assert len(out) == 1
    assert are_isomorphic(out[0], g) is not None


def test_expand_halfedge_choices():
    # one colored half-edge of the 2+2 dipole class gives 4 expansions
    host = with_pendants(dipole([0, 0, 1, 1]), ["u", "v"])
    step = reduce_step(host)
    (cls,) = [c for c in step.classes if c.rep.kind == "dipole"]
    assert cls.rep.symmetry == "halvable"
    b = GraphBuilder().vertex("w")
    b.halfedge("h", "w", color=cls.color)
    b.pendant("p0", "w").pendant("p1", "w")
    h_next = b.build()
    out = expand_step(h_next, step)
    assert len(out) == 4
    forms = {canonical_form(x) for x in out}
    assert len(forms) == 4


def test_expand_rejects_wrong_sites():
    g = star_pendants(2)
    step = reduce_step(g)
    (cls,) = step.classes
    b = GraphBuilder().vertex("w").loop("l", "w", color=cls.color)
    with pytest.raises(GraphError):
        expand_step(b.build(), step)


def test_expand_refuses_a_step_color_that_names_no_class():
    # the showcase's classes have colors 65536-65538, so the step's colors
    # start at 65536: its quotient's directed edge recolored 65539 names no
    # class and is refused, and recolored 65535, below the step's colors,
    # is kept as it is
    step = reduce_step(reduction_showcase())
    t = step.target
    assert sorted(c.color for c in step.classes) == [65536, 65537, 65538]
    edge = ("r65538i0.1", "r65538i0.2")
    for color in (65539, 65535):
        recolored = Graph(t.darts, t.vertices, t.pairing, t.incidence,
                          t.edge_type, t.color | dict.fromkeys(edge, color),
                          t.tails)
        if color > 65536:
            with pytest.raises(GraphError, match="color 65539, a color of "
                               "this step that names none of its classes"):
                expand_step(recolored, step)
        else:
            (x,) = expand_step(recolored, step)
            assert x.color["r65538i0.1"] == 65535


def test_expansion_chain_matches_direct_quotient():
    g = theta(2, 2, 2, edge_type=HALVABLE)
    series = reduction_series(g)
    g_r = series.graphs[-1]
    for gamma in semiregular_subgroups(g_r):
        h_r = quotient(g_r, gamma).result
        levels = expansion_chain(h_r, series)
        finals = {canonical_form(x) for x in levels[-1]}
        direct = set()
        for gam in semiregular_subgroups(g):
            q = quotient(g, gam).result
            direct.add(canonical_form(q))
        assert finals <= direct


def _reduction_outputs(texts):
    """Per graph text, read back normalized: each output of
    all_quotients(via="reduction") as its serialization, unmarked form,
    first path and group order."""
    rows = []
    for text in texts:
        qs = all_quotients(normalize(parse(text)), via="reduction")
        rows.append([(serialize(q), canonical_form(q, max_vertices=None),
                      iso._canonical(q, None, None)[2],
                      chain_order(stabilizer_chain(q))) for q in qs])
    return rows


def test_seeded_searches_change_no_output(monkeypatch):
    # an expanded graph's search starts from the copy swaps and lifted
    # automorphisms its expansion knows; they only prune, so with the
    # provider giving nothing every output, unmarked form, first path and
    # group order is the same
    module = importlib.import_module("regcover.quotient")
    graphs = [g for _, g in _differential_graphs()] + _beyond_cap_graphs()
    texts = sorted({serialize(normalize(g)) for g in graphs})
    provide = module._expansion_automorphisms
    given = []

    def counting(*args):
        maps = provide(*args)
        given.append(len(maps))
        return maps

    monkeypatch.setattr(module, "_expansion_automorphisms", counting)
    seeded = _reduction_outputs(texts)
    # 121 maps seed 65 of the 301 expanded graphs
    assert sum(given) > 100 and sum(map(bool, given)) > 50
    monkeypatch.setattr(module, "_expansion_automorphisms",
                        lambda *args: [])
    assert _reduction_outputs(texts) == seeded


def _seeded_path(seeds):
    """The path v0-v1-v2-v3 seeded with `seeds`, and the list of graphs
    its provider is called with."""
    b = GraphBuilder()
    for i in range(4):
        b.vertex(f"v{i}")
    for i in range(3):
        b.edge(f"e{i}", f"v{i}", f"v{i + 1}")
    g = b.build()
    calls = []

    def provider(h):
        calls.append(h)
        return seeds

    iso.seed_automorphisms(g, provider)
    return g, calls


def test_a_seed_that_is_no_automorphism_is_an_internal_error():
    # v0 and v1 of the path v0-v1-v2-v3 are no twins, so swapping them is
    # no automorphism; a map missing a vertex is no bijection.  Either
    # would let the search skip children it must explore
    swap = {"v0": "v1", "v1": "v0", "v2": "v2", "v3": "v3"}
    partial = {"v0": "v3", "v3": "v0", "v1": "v2"}
    for bad in (swap, partial):
        g, _ = _seeded_path([bad])
        with pytest.raises(InternalError, match="seeded map is not an "
                           "automorphism"):
            canonical_form(g)
    # the reflection is one, and gives the unseeded form
    flip = {"v0": "v3", "v3": "v0", "v1": "v2", "v2": "v1"}
    g, calls = _seeded_path([flip])
    assert canonical_form(g) == canonical_form(_seeded_path([])[0])
    assert len(calls) == 1


def test_marked_searches_never_read_seeds():
    g, calls = _seeded_path([{"v0": "v1", "v1": "v0"}])  # no automorphism
    canonical_form(g, marking=("v0",))
    canonical_form(g, marking=("v1", "v2"))
    canonical_form(g, ordered_marking=("v3", "v0"))
    iso.count_automorphisms(g, pinned={"v0": "v3"})
    assert calls == []
    with pytest.raises(InternalError):
        canonical_form(g)
    assert calls == [g]


def test_final_level_searches_are_pinned(monkeypatch):
    # refinements of the unmarked search of each output of the reduction
    # route; the outputs equal to the input graph took 38 (C6tri) and 36
    # (theta(1^7)) before their searches started from the expansion's
    # copy swaps and lifted automorphisms
    nodes = {}
    refine, best_leaf = iso._refine, iso._best_leaf
    searching = []

    def counting(g, colors):
        if sys._getframe(1).f_code.co_name == "search":
            nodes[searching[-1]] += 1
        return refine(g, colors)

    def recording(g, marking, ordered_marking):
        key = (id(g), marking, ordered_marking)
        searching.append(key)
        nodes[key] = 0
        return best_leaf(g, marking, ordered_marking)

    monkeypatch.setattr(iso, "_refine", counting)
    monkeypatch.setattr(iso, "_best_leaf", recording)
    for g, most in ((cycle_with_triangles(6), 18), (theta(*[1] * 7), 9)):
        nodes.clear()
        qs = all_quotients(normalize(parse(serialize(g))), via="reduction")
        (same,) = [q for q in qs if canonical_form(q) == canonical_form(g)]
        assert nodes[(id(same), None, None)] <= most


def test_all_quotients_k2_variants():
    k2h = dipole([0], [HALVABLE])
    qs = all_quotients(k2h)
    assert len(qs) == 2
    shapes = sorted((q.n_vertices, len(q.halfedges)) for q in qs)
    assert shapes == [(1, 1), (2, 0)]
    k2u = dipole([0], [UNDIRECTED])
    assert len(all_quotients(k2u)) == 1


def test_all_quotients_c6_shapes():
    qs = all_quotients(cycle(6))
    assert len(qs) == 4
    sizes = sorted(q.n_vertices for q in qs)
    assert sizes == [1, 2, 3, 6]
    assert all(is_cycle(q) for q in qs)


def test_all_quotients_cube_counts():
    assert len(all_quotients(cube())) == 5
    assert len(all_quotients(cube(HALVABLE))) == 11


def test_all_quotients_serializations_are_pinned():
    # sha256 over the serialized all_quotients lists by both routes for
    # the corpus, and by the reduction route for the beyond-cap graphs
    # (above the bruteforce route's group-order cap), as recorded before
    # G/1 became G itself and class members took their ends from the
    # representative; the README promises byte-identical quotient files
    digest = hashlib.sha256()
    n = 0
    jobs = [(g, via) for _, g in expansion_corpus()
            for via in ("bruteforce", "reduction")]
    jobs += [(g, "reduction") for g in _beyond_cap_graphs()]
    for g, via in jobs:
        texts = [serialize(q) for q in all_quotients(g, via=via)]
        digest.update(("\n\n".join(texts) + "\n\n\n").encode())
        n += 1
    assert n == 109
    assert digest.hexdigest() == (
        "132fa60fde861d4ed261869c6bc1db5e1f203c81db12f2242fab0a5ca616c194")


def test_oracle_equivalence_sample():
    for name, g in [("theta222h", theta(2, 2, 2, edge_type=HALVABLE)),
                    ("C6pend", with_pendants(cycle(6),
                                             [f"v{i}" for i in range(6)])),
                    ("D22", dipole([0, 0, 1, 1]))]:
        g = normalize(g)
        bf = {canonical_form(q) for q in all_quotients(g, "bruteforce")}
        red = {canonical_form(q) for q in all_quotients(g, "reduction")}
        assert bf == red, name


def test_deep_chain_oracle_equivalence():
    # four reduction levels mixing proper atoms and dipoles, symmetric and
    # halvable classes
    from regcover.fixtures import lens_theta
    g = lens_theta()
    series = reduction_series(g)
    assert series.depth == 4
    assert [cls.rep.symmetry for step in series.steps
            for cls in step.classes] == ["symmetric", "halvable", "halvable",
                                         "halvable"]
    bf = {canonical_form(q, max_vertices=14)
          for q in all_quotients(g, "bruteforce")}
    red = {canonical_form(q, max_vertices=14)
           for q in all_quotients(g, "reduction")}
    assert bf == red


def test_reduction_route_has_no_vertex_cap_on_atom_quotients():
    # the half-quotients of the 25-vertex atoms are compared past the
    # public cap of 24; the library's own comparisons carry no bound
    g = normalize(with_halvable_edges(theta(48, 48, 48)))
    bf = all_quotients(g, "bruteforce")
    red = all_quotients(g, "reduction")
    assert [q.n_vertices for q in red] == [146, 73, 73]
    assert ([canonical_form(q, max_vertices=None) for q in bf]
            == [canonical_form(q, max_vertices=None) for q in red])


def test_directed_loop_expansion():
    # the flipped arm pair reduces to two opposite directed class edges;
    # quotients pair them into a directed colored loop whose expansion is
    # the arm's loop-quotient
    from regcover.fixtures import antisymmetric_arm_pair
    g = antisymmetric_arm_pair()
    series = reduction_series(g)
    assert [cls.rep.symmetry for step in series.steps
            for cls in step.classes] == ["asymmetric", "halvable"]
    step0 = series.steps[0]
    swap = next(s for s in semiregular_subgroups(step0.target, order=2))
    h1 = quotient(step0.target, swap).result
    colored_loops = [h for h, k in h1.edges
                     if h1.edge_kind(h) == "loop"
                     and h1.color[h] == step0.classes[0].color]
    assert colored_loops and h1.edge_type[colored_loops[0]] == "directed"
    (h0,) = expand_step(h1, step0)
    direct = quotient(g, next(
        s for s in semiregular_subgroups(g, order=2))).result
    assert canonical_form(h0) == canonical_form(direct)


def test_block_structure_preserved_in_expansion():
    g = theta(2, 2, 2, edge_type=HALVABLE)
    series = reduction_series(g)
    step = series.steps[0]
    for gamma in semiregular_subgroups(step.target):
        h_next = quotient(step.target, gamma).result
        for h in expand_step(h_next, step):
            bt_next = block_tree(h_next)
            bt_exp = block_tree(h)
            site_colors = {cls.color for cls in step.classes}
            for darts, _ in bt_next.blocks:
                common = {d for d in darts
                          if h_next.color[d] not in site_colors}
                if not common:
                    continue
                hosts = [b for b, _ in bt_exp.blocks if common <= b]
                assert len(hosts) == 1


def test_regular_cover_examples():
    assert regular_cover_test(cube(), cube()) is not None
    w = regular_cover_test(cube(), complete(4))
    assert w is not None and w.order == 2
    assert regular_cover_test(complete(4), cube()) is None
    assert regular_cover_test(cycle(6), cycle(4)) is None
    assert regular_cover_test(cycle(6), cycle(3)) is not None


def test_every_quotient_passes_the_profile_check():
    # a covering projection keeps each vertex's (color, is-tail) profile,
    # so g has k times as many vertices of each profile as its quotient,
    # as written and as `regular_cover_test` sees the pair, normalized
    profiles = importlib.import_module("regcover.quotient")._local_profiles
    checked = 0
    for _, g in expansion_corpus():
        for q in all_quotients(g):
            for a, b in ((g, q), (normalize(g), normalize(q))):
                k = a.n_vertices // b.n_vertices
                assert profiles(a) == {p: k * n
                                       for p, n in profiles(b).items()}
                checked += 1
    assert checked > 250


def _cover_pairs():
    """(G, H) pairs, both normalized, with |Aut(G)| under the cap: every
    corpus graph over every corpus quotient, and each of 200 random graphs
    over its own quotients and those of the next seed's graph."""
    corpus = [normalize(g) for _, g in expansion_corpus()]
    targets = {}
    for g in corpus:
        for q in all_quotients(g):
            targets.setdefault(canonical_form(q), normalize(q))
    pairs = [(g, h) for g in corpus for h in targets.values()]
    for seed in range(200):
        g = normalize(random_instance(seed))
        if count_automorphisms(g) > 200:
            continue
        pairs += [(g, normalize(q)) for src in (g, random_instance(seed + 1))
                  for q in all_quotients(src, max_order=None)]
    return pairs


def _color_swapping_cover():
    """(g, h, group): the 4-cycle v0 v1 v2 v3 with each edge doubled in
    colors 0 and 1, the dipole it covers, and a group whose involution
    turns the cycle by two but swaps colors on the edges v0v1 and v2v3.
    The involution is semiregular and no automorphism, yet g modulo it is
    still that dipole: its orbit representatives a and c keep one edge of
    each color."""
    b = GraphBuilder()
    for v in ("v0", "v1", "v2", "v3"):
        b.vertex(v)
    for name, u, w, color in (("a", "v0", "v1", 0), ("c", "v0", "v1", 1),
                              ("b", "v2", "v3", 1), ("d", "v2", "v3", 0),
                              ("e1", "v1", "v2", 0), ("f1", "v1", "v2", 1),
                              ("e3", "v3", "v0", 0), ("f3", "v3", "v0", 1)):
        b.edge(name, u, w, color=color)
    g = b.build()
    h = GraphBuilder().vertex("x").vertex("y")
    for i in range(4):
        h.edge(f"e{i}", "x", "y", color=i % 2)
    swap = dict(zip("ab", "ba")) | dict(zip("cd", "dc")) | {
        "e1": "e3", "e3": "e1", "f1": "f3", "f3": "f1"}
    p = point_images(
        g, {"v0": "v2", "v2": "v0", "v1": "v3", "v3": "v1"},
        {d: f"{swap[d[:-2]]}{d[-2:]}" for d in g.darts})
    return g, h.build(), Group(g, [range(len(p)), p], verify=False)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_witness_that_is_no_automorphism_is_an_internal_error(flags):
    # the chain's products are not trusted: a semiregular non-automorphism
    # patched in as the first class representative passes `quotient` and
    # the isomorphism test, and only the raw-graph check refuses it, also
    # under python -O
    g, h, bad = _color_swapping_cover()
    assert is_semiregular(bad) and regular_cover_test(g, h) is not None
    assert not verify_isomorphism(g, g, *point_maps(g, bad.elements[1]))
    script = ("import importlib\n"
              "from regcover.errors import InternalError\n"
              "from test_quotient import _color_swapping_cover\n"
              "g, h, bad = _color_swapping_cover()\n"
              "module = importlib.import_module('regcover.quotient')\n"
              "module.semiregular_class_representatives = "
              "lambda *a, **k: iter([bad])\n"
              "try:\n"
              "    module.regular_cover_test(g, h)\n"
              "except InternalError as e:\n"
              "    print(e)\n")
    src = os.path.dirname(os.path.dirname(regcover.__file__))
    tests = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    run = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("regular_cover_test: a witness element")


def test_each_decision_past_the_count_checks_lists_the_subgroups_once(
        monkeypatch):
    # the class representatives are read off one semiregular search: one
    # search per pair whose counts and profiles are k to 1 for some k > 1,
    # none for the others.  A group is built for the first subgroup of
    # each class of order k only: 670 over the 393 searches, where one per
    # subgroup of order k built 1,316
    profiles = importlib.import_module("regcover.quotient")._local_profiles
    lattice = groups._semiregular_lattice
    of_positions = Group._of_positions.__func__
    init = Group.__init__
    calls, built = [], []

    def searching(g, order):
        calls.append(1)
        return lattice(g, order)

    def trusted(cls, *args):
        built.append(1)
        return of_positions(cls, *args)

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups, "_semiregular_lattice", searching)
    monkeypatch.setattr(Group, "_of_positions", classmethod(trusted))
    monkeypatch.setattr(Group, "__init__", counting)
    searched = built_past = listed = 0
    for g, h in _cover_pairs():
        k = g.n_vertices // h.n_vertices
        past = (k > 1 and g.n_vertices % h.n_vertices == 0
                and g.n_darts == k * h.n_darts
                and profiles(g) == {p: k * n
                                    for p, n in profiles(h).items()})
        calls.clear()
        built.clear()
        regular_cover_test(g, h)
        assert len(calls) == past
        if past:
            assert len(built) == len(lattice(g, k)[2])
            built_past += len(built)
            listed += len(lattice(g, k)[1])
        searched += past
    assert searched > 300
    assert (searched, built_past, listed) == (393, 670, 1316)


def test_profile_refusal_changes_no_decision(monkeypatch):
    # the profile check only refuses pairs that the subgroup search would
    # refuse too: without it, every decision and witness is the same
    module = importlib.import_module("regcover.quotient")
    profiles = module._local_profiles
    pairs = _cover_pairs()

    def decisions():
        out = []
        for g, h in pairs:
            w = regular_cover_test(g, h)
            out.append(None if w is None else w.elements)
        return out

    want = decisions()
    monkeypatch.setattr(module, "_local_profiles", lambda g: {})
    assert decisions() == want
    refused = [(g, h) for g, h in pairs
               if g.n_darts * h.n_vertices == h.n_darts * g.n_vertices
               and g.n_vertices % h.n_vertices == 0
               and profiles(g) != {p: g.n_vertices // h.n_vertices * n
                                   for p, n in profiles(h).items()}]
    assert sum(w is not None for w in want) > 300
    assert len(refused) > 100

def test_all_quotients_builds_one_quotient_per_class(monkeypatch):
    # quotient() calls per corpus graph, (bruteforce, reduction); the
    # reduction route's include its atoms' half-quotients.  One call per
    # semiregular subgroup made 275 and 257 in all (cubeh 40, C4double 21
    # and 7, icosa 22, petersen 7); one per conjugacy class makes 137 and
    # 160.  One half-quotient per conjugacy class of swap involutions, not
    # per involution, takes the reduction route to 147 (D3 6 -> 4, D4
    # 12 -> 5, theta222h 7 -> 5, theta1111h 5 -> 3)
    module = importlib.import_module("regcover.quotient")
    build = module.quotient
    calls = []

    def counting(g, gamma):
        calls.append(1)
        return build(g, gamma)

    monkeypatch.setattr(module, "quotient", counting)
    got = {}
    for name, g in expansion_corpus():
        got[name] = []
        for via in ("bruteforce", "reduction"):
            calls.clear()
            all_quotients(g, via=via)
            got[name].append(len(calls))
        got[name] = tuple(got[name])
    assert got == {
        "C2": (2, 2), "C3": (2, 2), "C4": (3, 3), "C5": (2, 2), "C6": (4, 4),
        "C7": (2, 2), "C8": (4, 4), "C4h": (5, 5), "C6h": (6, 6),
        "C8h": (7, 7), "C6dir": (4, 4), "theta111": (1, 1),
        "theta222": (1, 1), "theta222h": (3, 5), "theta122": (1, 1),
        "theta1111h": (2, 3), "K4": (1, 1), "cube": (6, 6), "cubeh": (15, 15),
        "K33": (2, 2), "prism3": (2, 2), "prism5": (2, 2), "petersen": (2, 2),
        "ladder3": (1, 1), "bowtie": (1, 1), "chain3": (1, 1),
        "book2": (1, 1), "book3": (1, 1), "book3h": (1, 1), "C6pend": (4, 4),
        "C8altpend": (3, 3), "C4twopend": (1, 1), "C4opppend": (2, 2),
        "K4pend": (1, 1), "D3": (3, 4), "D3u": (1, 1), "D4": (4, 5),
        "D22": (5, 6), "D3pend": (1, 1), "C4double": (5, 6),
        "C3doubleh": (2, 4), "subdivcube": (1, 1), "asymtheta": (1, 1),
        "C4loops": (3, 3), "C4loopsh": (5, 5), "thetaloops": (1, 1),
        "C4tri": (3, 3), "asymloop": (2, 3), "icosa": (4, 4)}
