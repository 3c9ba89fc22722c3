import hashlib
import importlib
import itertools
import math
import random
import sys

import pytest

from regcover import groups, iso
from regcover.errors import GraphError, InternalError, SizeLimitError
from regcover.fixtures import (bowtie, book, complete, cube, cycle,
                               cycle_with_triangles, dipole, expansion_corpus,
                               icosahedron, path_graph, petersen, prism,
                               random_instance, star_pendants, theta,
                               with_pendants)
from regcover.graph import (DIRECTED, HALVABLE, UNDIRECTED, GraphBuilder,
                           normalize, point_images, point_maps)
from regcover.groups import (Group, all_subgroups,
                             automorphism_group, chain_generators,
                             conjugacy_classes_of_subgroups,
                             count_automorphisms, is_semiregular,
                             orbits, semiregular_subgroups,
                             semiregularity_violation,
                             subgroup_order_histogram)
from regcover.atoms import find_atoms
from regcover.iso import are_isomorphic, canonical_form
from regcover.reduction import reduction_series

from helpers import (compose, dmap, inverse, inverse_indices, is_identity,
                     is_involution, is_simple, naive_dart_automorphism_count,
                     naive_vertex_automorphism_count, ref_chain_generators,
                     ref_check_closure, ref_generating_set,
                     ref_isomorphisms, ref_kernel_class_firsts,
                     ref_product_table, ref_semiregular_element,
                     ref_semiregular_lattice, ref_shared_cycle_length,
                     ref_swap_involutions, vmap)
from test_cli import SCRIPTS
from test_iso import _beyond_cap_graphs, _from_networkx


def test_platonic_orders():
    assert automorphism_group(complete(4)).order == 24
    assert automorphism_group(cube()).order == 48


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_cycle_aut_order(n):
    assert automorphism_group(cycle(n)).order == 2 * n


def test_naive_vertex_oracle_agreement():
    for g in (cycle(3), cycle(5), cycle(7), complete(4), prism(3),
              theta(1, 1, 1), bowtie(), book(2), path_graph(2)):
        assert is_simple(g)
        assert automorphism_group(g).order == naive_vertex_automorphism_count(g)


def test_naive_dart_oracle_agreement():
    for g in (dipole([0, 0, 0], ["undirected"] * 3), dipole([0, 0]),
              cycle(2), star_pendants(3), star_pendants(2, [0, 1]),
              path_graph(2)):
        assert g.n_darts <= 8
        assert count_automorphisms(g) == naive_dart_automorphism_count(g)


def test_count_automorphisms_matches_networkx_vf2():
    # on a simple graph each vertex automorphism extends to exactly one
    # dart map, so the count is the number of VF2 self-isomorphisms
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    graphs = [nx.petersen_graph(), nx.hypercube_graph(3), nx.wheel_graph(6),
              nx.complete_bipartite_graph(3, 3), nx.circular_ladder_graph(5),
              nx.frucht_graph(), nx.path_graph(5), nx.star_graph(4)]
    for n in range(4, 10):
        for seed in range(6):
            r = nx.gnp_random_graph(n, 0.45, seed=100 * n + seed)
            if nx.is_connected(r):
                graphs.append(r)
    assert len(graphs) > 30
    orders = set()
    for nxg in graphs:
        g = _from_networkx(nxg)
        assert is_simple(g)
        expected = sum(1 for _ in GraphMatcher(nxg, nxg).isomorphisms_iter())
        assert count_automorphisms(g) == expected, nxg
        orders.add(expected)
    assert {1, 2, 48, 120} <= orders


def count_dart_maps(monkeypatch):
    """A list that grows by one for each dart map `iso._dart_variants`
    builds from now on."""
    built = []
    variants = iso._dart_variants

    def counting(g1, g2, vmap):
        for dmap in variants(g1, g2, vmap):
            built.append(1)
            yield dmap

    monkeypatch.setattr(iso, "_dart_variants", counting)
    return built


def count_refinements(monkeypatch):
    """A list that grows by one for each `iso._refine` call from now on."""
    nodes = []
    refine = iso._refine

    def counting(g, colors):
        nodes.append(1)
        return refine(g, colors)

    monkeypatch.setattr(iso, "_refine", counting)
    return nodes


def test_count_automorphisms_matches_listing():
    # the chain's count equals the number of isomorphisms the reference
    # search lists, on whole graphs and on atoms pinned on their boundary,
    # pointwise and, for two boundary vertices, swapped
    graphs = [g for _, g in expansion_corpus()]
    graphs += [normalize(random_instance(seed)) for seed in range(200)]
    cases = [(g, None) for g in graphs]
    for g in graphs:
        for a in find_atoms(g):
            cases.append((a.as_graph(), {b: b for b in a.boundary}))
            if len(a.boundary) == 2:
                u, v = a.boundary
                cases.append((a.as_graph(), {u: v, v: u}))
    assert len(cases) == 803
    for g, pinned in cases:
        listed = sum(1 for _ in ref_isomorphisms(g, g, pinned=pinned))
        assert count_automorphisms(g, pinned=pinned) == listed, (g, pinned)


def test_count_automorphisms_builds_no_dart_map(monkeypatch):
    # one vertex map whose dart extensions number 48 per bundle of three
    # loops or free edges (3! orders, 2 ways per item), far too many to list
    b = GraphBuilder().vertex("a").vertex("b")
    b.edge("e", "a", "b")
    for v in "ab":
        for i in range(3):
            b.loop(f"l{v}{i}", v, type=HALVABLE)
    for i in range(3):
        b.free(f"fh{i}", type=HALVABLE)
        b.free(f"fu{i}")
    g = b.build()
    built = count_dart_maps(monkeypatch)
    assert count_automorphisms(g, pinned={"a": "b", "b": "a"}) == 48 ** 4
    assert built == []


def test_group_closure_and_lagrange():
    aut = automorphism_group(cycle(6))
    aut.check_closure()
    for s in all_subgroups(aut):
        s.check_closure()
        assert aut.order % s.order == 0


def test_group_refuses_elements_that_are_not_automorphisms():
    # a cube element is no map of C12's points; a swap of two vertex points
    # of C6, with the darts left in place, has the right length but is no
    # automorphism.  Both are closed sets with the identity.
    cube_sub = semiregular_subgroups(cube(), order=2)[0]
    with pytest.raises(GraphError, match="36 points"):
        Group(cycle(12), cube_sub.elements)
    g = cycle(6)
    one = tuple(range(g.n_vertices + g.n_darts))
    swap = (1, 0) + one[2:]
    Group(g, [one, swap], verify=False)
    with pytest.raises(GraphError, match="not an automorphism"):
        Group(g, [one, swap])
    with pytest.raises(GraphError, match="does not permute"):
        Group(g, [one, one[::-1]])


def _passes(check, grp):
    try:
        check(grp)
    except GraphError:
        return False
    return True


def test_closure_check_by_generators_agrees_with_all_pairs():
    # `check_closure` checks against the raw graph only the elements that
    # the earlier ones do not generate, and closes those as tuples; it
    # accepts exactly the sets that the all-pairs check accepts: every
    # subgroup of every corpus Aut(G) under the cap, the group included, as
    # it is, with its last element dropped, with a non-automorphism added,
    # and with its last element replaced by that non-automorphism
    cases = refused = 0
    for name, g in expansion_corpus():
        try:
            aut = automorphism_group(g)
        except SizeLimitError:
            continue
        one = aut.elements[0]
        swap = (1, 0) + one[2:]  # moves two vertices and no dart
        assert not iso.verify_isomorphism(g, g, *point_maps(g, swap))
        for sub in all_subgroups(aut):
            listed = list(sub.elements)
            variants = [listed, listed + [swap]]
            if len(listed) > 1:
                variants += [listed[:-1], listed[:-1] + [swap]]
            for elements in variants:
                grp = Group(g, elements, verify=False)
                ok = _passes(Group.check_closure, grp)
                assert ok == _passes(ref_check_closure, grp), (name, elements)
                assert ok or elements is not listed
                cases += 1
                refused += not ok
    assert (cases, refused) == (15082, 10716)


def test_table_of_a_set_that_is_not_closed_is_an_internal_error():
    # the chain's base tells all of Aut(G) apart, so a product that is not
    # listed is a hole in a generator's row, never a listed element.  C3's
    # identity, swap of v0 and v1 and rotation v0 -> v2 -> v1 are no
    # group, but a greedy base of one point named a missing product as a
    # listed one and built a table.  So it did for 18 of the 908 random
    # subsets of the corpus groups below that the all-pairs check refuses
    g = cycle(3)
    aut = automorphism_group(g)
    listed = [p for p in aut if vmap(g, p) in (
        {"v0": "v0", "v1": "v1", "v2": "v2"},
        {"v0": "v1", "v1": "v0", "v2": "v2"},
        {"v0": "v2", "v1": "v0", "v2": "v1"})]
    assert len(listed) == 3
    with pytest.raises(InternalError, match="not among them"):
        Group(g, listed, verify=False).table
    rng = random.Random(33)
    subsets = 0
    for name, g, aut in _small_corpus():
        for _ in range(25 if aut.order > 2 else 0):
            size = rng.randint(2, aut.order - 1)
            listed = [aut.elements[0]] + rng.sample(aut.elements[1:],
                                                    size - 1)
            grp = Group(g, listed, verify=False)
            if _passes(ref_check_closure, grp):
                continue
            subsets += 1
            with pytest.raises(InternalError, match="not among them"):
                grp.table
    assert subsets == 908


def test_rotation_semiregular_reflection_not():
    g = cycle(6)
    aut = automorphism_group(g)
    rot = next(p for p in aut
               if vmap(g, p) == {f"v{i}": f"v{(i + 1) % 6}" for i in range(6)})
    assert is_semiregular(Group(g, [p for p in aut if p in _powers(rot)],
                                verify=False))
    refl = next(p for p in aut if vmap(g, p) == {
        "v0": "v0", "v1": "v5", "v2": "v4", "v3": "v3", "v4": "v2", "v5": "v1"})
    grp = Group(g, [aut.elements[0], refl], verify=True)
    assert not is_semiregular(grp)
    assert "fixes vertex" in semiregularity_violation(g, refl)


def _powers(p):
    out = [p]
    cur = p
    while not is_identity(cur):
        cur = compose(cur, p)
        out.append(cur)
    return set(out)


def test_edge_midpoint_reflection_needs_halvable():
    # the C4 reflection through two opposite edge midpoints fixes those two
    # edges setwise while swapping their darts
    wanted = {"v0": "v1", "v1": "v0", "v2": "v3", "v3": "v2"}
    for edge_type, expected in (("undirected", False), (HALVABLE, True)):
        g = cycle(4, edge_type)
        aut = automorphism_group(g)
        cands = [p for p in aut if vmap(g, p) == wanted]
        sr = [p for p in cands if semiregularity_violation(g, p) is None]
        assert bool(sr) == expected


def test_s4_subgroup_table():
    aut = automorphism_group(complete(4))
    classes = conjugacy_classes_of_subgroups(aut)
    hist = subgroup_order_histogram(classes)
    assert hist == {1: 1, 2: 2, 3: 1, 4: 3, 6: 1, 8: 1, 12: 1, 24: 1}


def test_cube_subgroup_table():
    aut = automorphism_group(cube())
    hist = subgroup_order_histogram(conjugacy_classes_of_subgroups(aut))
    assert hist == {1: 1, 2: 5, 3: 1, 4: 9, 6: 3, 8: 7, 12: 2, 16: 1,
                    24: 3, 48: 1}


def test_icosahedron_subgroup_table():
    from regcover.fixtures import icosahedron
    aut = automorphism_group(icosahedron())
    assert aut.order == 120
    hist = subgroup_order_histogram(conjugacy_classes_of_subgroups(aut))
    assert hist == {1: 1, 2: 3, 3: 1, 4: 3, 5: 1, 6: 3, 8: 1, 10: 3,
                    12: 2, 20: 1, 24: 1, 60: 1, 120: 1}


def test_trivial_group_subgroups():
    g = path_graph(2)
    b = automorphism_group(g)
    trivial = Group(g, [b.elements[0]], verify=False)
    subs = all_subgroups(trivial)
    assert len(subs) == 1 and subs[0].order == 1


def test_cyclic_group_of_order_6_has_4_subgroups():
    g = cycle(6)
    aut = automorphism_group(g)
    rot = next(p for p in aut
               if vmap(g, p) == {f"v{i}": f"v{(i + 1) % 6}" for i in range(6)})
    cyclic = Group(g, _powers(rot), verify=True)
    assert cyclic.order == 6
    assert len(all_subgroups(cyclic)) == 4


def test_c6_semiregular_order_2():
    g = cycle(6)
    subs = semiregular_subgroups(g, order=2)
    assert len(subs) == 1
    (s,) = subs
    p = next(q for q in s if not is_identity(q))
    assert vmap(g, p) == {f"v{i}": f"v{(i + 3) % 6}" for i in range(6)}


def test_k4_semiregular_order_4_includes_klein():
    # a double transposition fixes two edges setwise with a dart swap, so
    # order-4 semiregular subgroups exist only on the halvable variant
    assert semiregular_subgroups(complete(4), order=4) == []
    g = complete(4, HALVABLE)
    subs = semiregular_subgroups(g, order=4)
    klein = [s for s in subs if all(is_identity(p) or is_involution(p)
                                    for p in s)]
    assert len(klein) == 1
    assert sorted(sum(1 for v, w in vmap(g, p).items() if v != w)
                  for p in klein[0]) == [0, 4, 4, 4]


def test_order_one_semiregular():
    subs = semiregular_subgroups(cycle(5), order=1)
    assert len(subs) == 1 and subs[0].is_trivial


def test_graph_without_points_has_only_the_trivial_subgroup():
    # the order filter reads point 0's cycle, and this graph has no points
    g = GraphBuilder().build()
    assert [s.order for s in semiregular_subgroups(g, order=1)] == [1]
    assert semiregular_subgroups(g, order=2) == []


def test_orbits():
    g = cycle(5)
    aut = automorphism_group(g)
    trivial = Group(g, [aut.elements[0]], verify=False)
    assert len(orbits(g, trivial.elements, "vertices")) == 5

    g6 = cycle(6)
    (s,) = semiregular_subgroups(g6, order=2)
    assert all(len(o) == 2 for o in orbits(g6, s.elements, "vertices"))
    assert len(orbits(g6, s.elements, "vertices")) == 3


def test_cube_antipodal_orbits():
    g = cube()
    aut = automorphism_group(g)
    anti = next(p for p in aut if vmap(g, p) == {
        v: format(7 - int(v, 2), "03b") for v in g.vertex_list})
    assert semiregularity_violation(g, anti) is None
    grp = Group(g, [aut.elements[0], anti], verify=True)
    vorbs = orbits(g, grp.elements, "vertices")
    assert len(vorbs) == 4 and all(len(o) == 2 for o in vorbs)


def test_semiregular_orbit_law():
    for g in (cycle(6), cube(), theta(2, 2, 2, edge_type=HALVABLE)):
        for s in semiregular_subgroups(g):
            gens = s.elements
            assert all(len(o) == s.order for o in orbits(g, gens, "vertices"))
            assert all(len(o) == s.order for o in orbits(g, gens, "darts"))


def _stabilizer_order(atom):
    return count_automorphisms(atom.as_graph(),
                               pinned={b: b for b in atom.boundary})


def test_boundary_stabilizer_orders():
    (star,) = find_atoms(star_pendants(3))
    assert star.kind == "star_block"
    assert _stabilizer_order(star) == 6

    arm = find_atoms(theta(1, 1, 1))[0]
    assert _stabilizer_order(arm) == 1

    host = with_pendants(dipole([0, 0, 0], ["undirected"] * 3), ["u", "v"])
    dip = next(a for a in find_atoms(host) if a.kind == "dipole")
    assert _stabilizer_order(dip) == 6


def test_automorphism_group_size_limit():
    # each message names the phase, the limit and the size seen
    with pytest.raises(SizeLimitError) as exc:
        automorphism_group(star_pendants(6))  # 6! = 720 > 200
    msg = str(exc.value)
    assert msg.startswith("automorphism_group:")
    assert "max_order=200" in msg
    assert "720 automorphisms," in msg  # the exact order, known up front
    assert "|V|=1, 12 darts" in msg

    with pytest.raises(SizeLimitError) as exc:
        all_subgroups(automorphism_group(cube()), max_order=40)
    msg = str(exc.value)
    assert msg.startswith("all_subgroups:")
    assert "max_order=40" in msg
    assert "group order 48" in msg
    assert "|V|=8, 24 darts" in msg

    big = cycle(30)
    for phase, call in (("canonical_form", lambda: canonical_form(big)),
                        ("are_isomorphic", lambda: are_isomorphic(big, big))):
        with pytest.raises(SizeLimitError) as exc:
            call()
        msg = str(exc.value)
        assert msg.startswith(f"{phase}:")
        assert "max_vertices=24" in msg
        assert "30 vertices" in msg
        assert "|V|=30, 60 darts" in msg


def test_automorphism_group_refuses_before_building(monkeypatch):
    # the order is the product of the chain's transversal and kernel sizes,
    # so a group over the limit is refused before the chain is multiplied
    # out or a group is built
    calls = []
    products, init = groups.chain_cosets, Group.__init__

    def counting_products(*args):
        calls.append("products")
        return products(*args)

    def counting_init(self, *args, **kwargs):
        calls.append("group")
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups, "chain_cosets", counting_products)
    monkeypatch.setattr(Group, "__init__", counting_init)
    with pytest.raises(SizeLimitError) as exc:
        automorphism_group(dipole([0] * 10))
    assert f"{2 * math.factorial(10)} automorphisms," in str(exc.value)
    assert calls == []
    automorphism_group(cube())
    assert calls == ["products", "group"]


def test_beyond_cap_refusals_name_the_order():
    for g in _beyond_cap_graphs():
        with pytest.raises(SizeLimitError) as exc:
            automorphism_group(g)
        assert f": {count_automorphisms(g)} automorphisms," in str(exc.value)


def test_automorphism_group_matches_listing():
    # the products over the stabilizer chain are exactly the maps the
    # reference search lists
    graphs = [g for _, g in expansion_corpus()]
    for seed in range(200):
        graphs += [random_instance(seed), normalize(random_instance(seed))]
    for g in graphs:
        listed = sorted({point_images(g, v, d)
                         for v, d in ref_isomorphisms(g, g)})
        assert automorphism_group(g, max_order=None).elements == tuple(listed)


def test_repeated_products_are_an_internal_error(monkeypatch):
    # a coset representative listed twice repeats its vertex part, which
    # `iso.chain_cosets` refuses for every caller
    chain = iso.stabilizer_chain

    def doubled(g, fixed=()):
        transversals, kernel = chain(g, fixed)
        return ((transversals[0] + transversals[0][:1],
                 *transversals[1:]), kernel)

    monkeypatch.setattr(iso, "stabilizer_chain", doubled)
    for call in (automorphism_group, semiregular_subgroups,
                 lambda g: semiregular_subgroups(g, order=2),
                 lambda g: list(iso.automorphisms_iter(g))):
        with pytest.raises(InternalError, match="distinct vertex parts"):
            call(cube())


def test_missing_products_are_an_internal_error(monkeypatch):
    # a kernel element left out leaves fewer distinct products than the
    # order counted off the chain
    kernel = groups.chain_kernel
    monkeypatch.setattr(groups, "chain_kernel", lambda g: kernel(g)[:-1])
    with pytest.raises(InternalError, match="automorphism_group: 10 "
                                            "distinct products, expected 12"):
        automorphism_group(dipole([0] * 3))


def test_stabilizer_chain_leaf_counts_are_pinned(monkeypatch):
    # `_dart_jobs` calls of one group: the automorphisms the chain lifts,
    # one per orbit-extending map the canonical search found, and the
    # kernel's, against 24, 48, 120, 120 and 24 in the full listing and 7,
    # 11, 16, 17 and 13 with one descent per coset representative
    calls = []
    jobs = iso._dart_jobs

    def counting(g1, g2, vmap):
        calls.append(1)
        return jobs(g1, g2, vmap)

    monkeypatch.setattr(iso, "_dart_jobs", counting)
    leaves = []
    for g in (complete(4), cube(), petersen(), icosahedron(), cycle(12)):
        calls.clear()
        automorphism_group(g)
        leaves.append(len(calls))
    assert leaves == [4, 4, 4, 4, 3]


def test_count_automorphisms_walks_the_chain_only(monkeypatch):
    # a count lifts only the chain's generators and the kernel (one
    # `_dart_jobs` call each), not the 24, 48, 120, 120 and 24 vertex
    # maps of a full walk (7, 11, 16, 17 and 13 before orbit pruning)
    calls = []
    jobs = iso._dart_jobs

    def counting(g1, g2, vmap):
        calls.append(1)
        return jobs(g1, g2, vmap)

    monkeypatch.setattr(iso, "_dart_jobs", counting)
    leaves = []
    for g in (complete(4), cube(), petersen(), icosahedron(), cycle(12)):
        calls.clear()
        count_automorphisms(g)
        leaves.append(len(calls))
    assert leaves == [4, 4, 4, 4, 3]
    assert count_automorphisms(cycle_with_triangles(6)) == 768
    assert count_automorphisms(theta(2, 2, 2, 2, 2, 2)) == 1440


def test_stabilizer_chain_search_node_counts_are_pinned(monkeypatch):
    # refinements of one chain, each a node of the canonical search it is
    # read off, on graphs with |Aut| of 768 and 1,440
    nodes = count_refinements(monkeypatch)
    counts = []
    for g in (cycle_with_triangles(6), theta(2, 2, 2, 2, 2, 2)):
        nodes.clear()
        iso.stabilizer_chain(g)
        counts.append(len(nodes))
    assert counts == [38, 26]


@pytest.mark.parametrize("name, order, refinements", [
    ("C101", 202, 6), ("C200", 400, 6), ("C6tri", 768, 38),
    ("CFI(K4)", 192, 16), ("Z6-cover of K4", 12, 10)])
def test_count_automorphisms_at_scale(name, order, refinements, monkeypatch):
    # long cycles, a CFI graph and a voltage cover, where a search without
    # refinement backtracks far: the count is networkx VF2++'s, and its
    # cost is bounded by the refinements of the canonical search the chain
    # is read off, not by wall time
    nx = pytest.importorskip("networkx")
    g = _scale_graphs()[name]
    nodes = count_refinements(monkeypatch)
    assert count_automorphisms(g) == order
    assert len(nodes) == refinements
    nxg = nx.Graph([(g.vertex_of(h), g.vertex_of(k)) for h, k in g.edges])
    assert sum(1 for _ in nx.vf2pp_all_isomorphisms(nxg, nxg)) == order


def _scale_graphs():
    """Two long cycles, the cycle of six triangles, the Cai-Furer-Immerman
    graph over K4 (40 vertices) and a Z6 voltage cover of K4 (24)."""
    k4 = list(itertools.combinations(range(4), 2))
    cfi = []
    for v in range(4):
        ends = [e for e in k4 if v in e]
        # a middle vertex per even subset of v's edges, joined to the end
        # vertex (v, e, 1) for e in the subset and (v, e, 0) otherwise
        for subset in [()] + list(itertools.combinations(ends, 2)):
            cfi += [(("m", v, subset), ("a", v, e, int(e in subset)))
                    for e in ends]
    cfi += [(("a", u, (u, w), i), ("a", w, (u, w), i))
            for u, w in k4 for i in (0, 1)]
    voltage = {(0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 2): 1, (1, 3): 2,
               (2, 3): 3}
    cover = [((u, i), (w, (i + a) % 6))
             for (u, w), a in voltage.items() for i in range(6)]
    return {"C101": cycle(101), "C200": cycle(200),
            "C6tri": cycle_with_triangles(6), "CFI(K4)": _simple_graph(cfi),
            "Z6-cover of K4": _simple_graph(cover)}


def _simple_graph(edges):
    """The graph with these edges between hashable vertex names."""
    names = {}
    for edge in edges:
        for x in edge:
            names.setdefault(x, f"n{len(names)}")
    b = GraphBuilder()
    for name in names.values():
        b.vertex(name)
    for k, (u, w) in enumerate(edges):
        b.edge(f"e{k}", names[u], names[w])
    return b.build()


# -- differential checks against the all-pairs closure --------------------

def _oracle_close(table, seed, allowed=None):
    """All-pairs closure: every new element times every member."""
    members = set(seed)
    if allowed is not None and not members <= allowed:
        return None
    frontier = list(seed)
    while frontier:
        nxt = []
        for x in frontier:
            row = table[x]
            for y in tuple(members):
                for z in (row[y], table[y][x]):
                    if z not in members:
                        if allowed is not None and z not in allowed:
                            return None
                        members.add(z)
                        nxt.append(z)
        frontier = nxt
    return frozenset(members)


def _oracle_subgroups(table, e, allowed=None):
    """Index sets of all subgroups inside `allowed`, by cyclic extension
    with one element of each left coset, in the order all_subgroups
    returns them."""
    trivial = frozenset({e})
    found = {trivial}
    queue = [trivial]
    while queue:
        s = queue.pop()
        seen = set(s)
        for x in range(len(table)):
            if x in seen:
                continue
            seen.update(table[x][y] for y in s)
            if allowed is not None and x not in allowed:
                continue
            t = _oracle_close(table, s | {x}, allowed)
            if t is not None and t not in found:
                found.add(t)
                queue.append(t)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def _index_sets(aut, subgroups):
    idx = {p: i for i, p in enumerate(aut.elements)}
    return [frozenset(idx[p] for p in s) for s in subgroups]


def _small_corpus():
    for name, g in expansion_corpus():
        aut = automorphism_group(g)
        if aut.order <= 72:
            yield name, g, aut


def _small_random():
    for seed in range(200):
        g = normalize(random_instance(seed))
        aut = automorphism_group(g, max_order=None)
        if aut.order <= 72:
            yield f"random_instance({seed})", g, aut


def test_table_matches_composition():
    for name, _, aut in _small_corpus():
        idx = {p: i for i, p in enumerate(aut.elements)}
        composed = [tuple(idx[compose(a, b)] for b in aut.elements)
                    for a in aut.elements]
        assert aut.table == composed, name
        assert all(aut.elements[i] == inverse(p)
                   for p, i in zip(aut.elements, inverse_indices(aut))), name


def test_table_matches_every_product_looked_up():
    # the rows composed of the generators' rows are the table that looks
    # up every product, and the generators those of the greedy closure:
    # every corpus graph, 200 random seeds, and prism(60) and K6 over the
    # group-order cap
    auts = [automorphism_group(g) for _, g in expansion_corpus()]
    for seed in range(200):
        g = normalize(random_instance(seed))
        if count_automorphisms(g) <= groups.MAX_GROUP_ORDER:
            auts.append(automorphism_group(g))
    auts += [automorphism_group(prism(60), max_order=None),
             automorphism_group(complete(6), max_order=None)]
    assert len(auts) > 240
    for aut in auts:
        want = ref_product_table(aut.elements, iso.chain_base(aut.graph))
        assert aut.table == want, aut.graph
        assert groups._generating_set(aut) == ref_generating_set(want), (
            aut.graph)


def test_partial_tables_match_every_product_looked_up():
    # the semiregular search's partial tables, holes included, for orders
    # None, 2, 3, 4 and 6: a row read through a hole looks that entry up
    tables = holes = 0
    for name, g, _ in _semiregular_cases():
        for k in (None, 2, 3, 4, 6):
            members = groups._semiregular_lattice(g, k)[0]
            base = iso.chain_base(g)
            table = groups._product_table(members, base)[0]
            assert table == ref_product_table(members, base), (name, k)
            tables += 1
            holes += sum(row.count(None) for row in table)
    assert tables == 1245 and holes > 0


def test_table_rows_looked_up_are_pinned(monkeypatch):
    # rows looked up per table, the generators', and rows composed of
    # them; every row was looked up before, 120 for Petersen and the
    # icosahedron and 48 for the cube.  A lookup names each entry of a row
    # by its base images, a call of one of the base-length getters, as
    # does each element's key once
    auts = [automorphism_group(build())
            for build in (petersen, icosahedron, cube)]
    calls = []
    getter = groups.itemgetter

    def counting(*items):
        get = getter(*items)
        if len(items) > len(iso.chain_base(aut.graph)):
            return get  # a composed row's

        def call(x):
            calls.append(1)
            return get(x)
        return call

    monkeypatch.setattr(groups, "itemgetter", counting)
    counts = []
    for aut in auts:
        calls.clear()
        aut.table
        gens = groups._generating_set(aut)
        assert len(calls) == (len(gens) + 1) * aut.order
        counts.append((aut.order, len(gens), aut.order - 1 - len(gens)))
    assert counts == [(120, 3, 116), (120, 3, 116), (48, 3, 44)]


def test_semiregular_partial_table_is_none_off_the_subset():
    for name, g, aut in _small_corpus():
        members = [i for i, x in enumerate(aut.elements)
                   if ref_semiregular_element(g, x)]
        position = {aut.elements[i]: k for k, i in enumerate(members)}
        partial = groups._product_table(
            [aut.elements[i] for i in members], iso.chain_base(g))[0]
        for k, i in enumerate(members):
            a = aut.elements[i]
            for m, j in enumerate(members):
                product = compose(a, aut.elements[j])
                assert partial[k][m] == position.get(product), name


def test_all_subgroups_match_all_pairs_closure():
    cases = list(_small_corpus()) + list(_small_random())
    assert len(cases) > 200
    for name, _, aut in cases:
        expected = _oracle_subgroups(aut.table, 0)
        assert _index_sets(aut, all_subgroups(aut)) == expected, name


def test_semiregular_subgroups_match_all_pairs_closure():
    cases = list(_small_corpus()) + list(_small_random())
    assert len(cases) > 200
    for name, g, aut in cases:
        allowed = frozenset(i for i, x in enumerate(aut.elements)
                            if ref_semiregular_element(g, x))
        expected = _oracle_subgroups(aut.table, 0, allowed)
        assert _index_sets(aut, semiregular_subgroups(g)) == expected, name
        # every order the search may keep, and 2 and 4 where they are not
        divisors = {k for k in range(1, aut.order + 1) if aut.order % k == 0}
        for k in sorted(divisors | {2, 4}):
            assert (_index_sets(aut, semiregular_subgroups(g, order=k))
                    == [s for s in expected if len(s) == k]), name


def test_is_semiregular_matches_every_element_checked():
    # one point per orbit decides as checking every element at every
    # point does, over every subgroup of the small corpus and random seeds
    counts = {True: 0, False: 0}
    for name, g, aut in list(_small_corpus()) + list(_small_random()):
        for sub in all_subgroups(aut):
            want = all(ref_semiregular_element(g, x) for x in sub)
            assert is_semiregular(sub) == want, (name, sub.elements)
            counts[want] += 1
    assert counts == {True: 603, False: 2491}


def _reference_conjugacy_classes(aut, subgroups=None):
    """Conjugacy classes of the subgroups (of all of them, or of a list of
    subgroups closed under conjugation) as index sets, by conjugating each
    with every element of the group, in the order
    conjugacy_classes_of_subgroups returns them."""
    table, inv = aut.table, inverse_indices(aut)
    seen = set()
    classes = []
    if subgroups is None:
        subgroups = all_subgroups(aut)
    for s in _index_sets(aut, subgroups):
        if s in seen:
            continue
        orbit = {frozenset(table[table[g][x]][inv[g]] for x in s)
                 for g in range(aut.order)}
        seen.update(orbit)
        classes.append(sorted(orbit, key=lambda t: tuple(sorted(t))))
    classes.sort(key=lambda c: (len(c[0]), tuple(sorted(c[0]))))
    return classes


def test_conjugacy_classes_match_conjugation_by_every_element():
    cases = list(_small_corpus()) + list(_small_random())
    for build in (petersen, icosahedron):
        cases.append((build.__name__, None, automorphism_group(build())))
    for name, _, aut in cases:
        classes = [_index_sets(aut, cls)
                   for cls in conjugacy_classes_of_subgroups(aut)]
        assert classes == _reference_conjugacy_classes(aut), name


def test_conjugacy_classes_partition_all_subgroups():
    # the two listings read one search: the classes, concatenated and
    # sorted again, are all_subgroups, and both refuse a group over
    # max_order before searching
    cases = list(_small_corpus()) + list(_small_random())
    for build in (petersen, icosahedron):
        cases.append((build.__name__, None, automorphism_group(build())))
    for name, _, aut in cases:
        listed = [s for cls in conjugacy_classes_of_subgroups(aut)
                  for s in cls]
        assert (sorted(_index_sets(aut, listed),
                       key=lambda s: (len(s), tuple(sorted(s))))
                == _index_sets(aut, all_subgroups(aut))), name
    aut = automorphism_group(petersen())
    for listing in (all_subgroups, conjugacy_classes_of_subgroups):
        with pytest.raises(SizeLimitError) as exc:
            listing(aut, max_order=100)
        assert str(exc.value).startswith("all_subgroups: group order 120,")
    assert "_subgroup_lattice" not in vars(aut)


def test_class_representatives_are_the_first_of_each_class():
    # the first member of each class of conjugation by every element, in
    # the order of `semiregular_subgroups`, with and without an order
    cases = [(name, g) for name, g in expansion_corpus()]
    cases += [(f"random_instance({seed})", normalize(random_instance(seed)))
              for seed in range(200)]
    checked = 0
    for name, g in cases:
        try:
            aut = automorphism_group(g)
        except SizeLimitError:
            continue
        subs = semiregular_subgroups(g)
        firsts = [cls[0] for cls in _reference_conjugacy_classes(aut, subs)]
        reps = list(groups.semiregular_class_representatives(g))
        assert _index_sets(aut, reps) == firsts, name
        for k in sorted({s.order for s in subs} | {4}):
            reps = groups.semiregular_class_representatives(g, order=k)
            assert _index_sets(aut, reps) == [
                s for s in firsts if len(s) == k], (name, k)
        checked += 1
    assert checked > 200


def _semiregular_cases():
    """(name, g, orders) over the corpus and 200 random seeds with |Aut(g)|
    under the cap: the orders of g's semiregular subgroups, and 2 and 4."""
    cases = [(name, g) for name, g in expansion_corpus()]
    cases += [(f"random_instance({seed})", normalize(random_instance(seed)))
              for seed in range(200)]
    for name, g in cases:
        try:
            subs = semiregular_subgroups(g)
        except SizeLimitError:
            continue
        yield name, g, sorted({s.order for s in subs} | {2, 4})


def test_semiregular_members_are_closed_under_conjugation():
    # the elements the semiregular search lists, with and without an
    # order: each generates a semiregular group, and conjugating by the
    # chain's generators stays among them, as the class search needs.
    # A filter on point 0's cycle alone kept 7 elements of the cube for
    # order 2, two of them of order 6
    checked = 0
    for name, g, orders in _semiregular_cases():
        gens = chain_generators(g)
        for k in [None] + orders:
            members = groups._semiregular_lattice(g, k)[0]
            listed = set(members)
            for x in members:
                powers = [x]
                while powers[-1] != members[0]:
                    powers.append(compose(x, powers[-1]))
                cyclic = Group(g, powers)
                assert is_semiregular(cyclic), (name, k, x)
                assert k is None or k % cyclic.order == 0, (name, k, x)
                for t in gens:
                    assert compose(compose(t, x), inverse(t)) in listed, (
                        name, k, x)
        checked += 1
    assert checked > 200
    assert len(groups._semiregular_lattice(cube(), 2)[0]) == 5


def test_semiregular_search_matches_the_listing_it_replaced():
    # the members, subgroups and classes the search reads off the chain's
    # coset representatives are those of the listing over all of Aut(g), its powers
    # filter, greedy base and conjugation by every coset representative
    graphs = [(name, g) for name, g in expansion_corpus()]
    for seed in range(200):
        graphs += [(f"random_instance({seed})", random_instance(seed)),
                   (f"normalized({seed})", normalize(random_instance(seed)))]
    graphs += [(repr(g), g) for g in _beyond_cap_graphs()]
    # the long cycles, the cycle of triangles, the CFI graph and the
    # voltage cover
    graphs += list(_scale_graphs().items())
    # no vertices: the kernel is all of Aut(g), and the identity's vertex
    # part is the only one
    for items in ([], [HALVABLE] * 2, [UNDIRECTED, UNDIRECTED, HALVABLE],
                  [None] * 3, [None, None, HALVABLE], [DIRECTED] * 2):
        b = GraphBuilder()
        for i, typ in enumerate(items):
            if typ is None:
                b.halfedge(f"x{i}")
            else:
                b.free(f"f{i}", type=typ)
        graphs.append((f"free items {items}", b.build()))
    # the primes 2, 3, 5 and 7 take the powers of single members, the
    # others the table and the class search
    for name, g in graphs:
        for k in (None, 2, 3, 4, 5, 6, 7):
            got = groups._semiregular_lattice(g, k)
            assert got == ref_semiregular_lattice(g, k), (name, k)


def test_prime_orders_build_no_table(monkeypatch):
    # a prime order reads each subgroup off the powers of one member: no
    # product table is built and no class search runs (that the results
    # are the listing's is checked above)
    def refuse(*args, **kwargs):
        raise AssertionError("a prime order built a table or searched")

    monkeypatch.setattr(groups, "_product_table", refuse)
    monkeypatch.setattr(groups, "_subgroup_index_sets", refuse)
    for _, g in expansion_corpus():
        for k in (2, 3, 5, 7):
            groups._semiregular_lattice(g, k)
    assert [len(x) for x in groups._semiregular_lattice(complete(7), 7)] == [
        721, 120, 1]


def test_prime_order_members_the_base_cannot_tell_apart_are_an_internal_error(
        monkeypatch):
    # with no base, the cube's 4 semiregular involutions and the identity
    # share the empty name, by which the prime path would read powers and
    # conjugates; it is refused before any subgroup is built, as the table
    # refuses it
    monkeypatch.setattr(groups, "chain_base", lambda g: ())
    monkeypatch.setattr(groups, "_product_table", None)
    with pytest.raises(InternalError, match="5 listed elements have 1 "
                                            "distinct images on the base"):
        groups._semiregular_lattice(cube(), 2)


def test_power_outside_the_members_is_an_internal_error():
    # C3's members at order 3 less the last: the rotation is kept and its
    # square, the inverse rotation, is not
    g = cycle(3)
    members = groups._semiregular_lattice(g, 3)[0]
    assert len(members) == 3
    with pytest.raises(InternalError, match="a power of a listed element"):
        groups._cyclic_lattice(g, members[:2], iso.chain_base(g), 3)


@pytest.fixture
def search_work(monkeypatch):
    """`search_work` of `scripts/lattice_timing.py`: (tuples t*k built,
    dart walks) of a fresh semiregular search of (g, order)."""
    monkeypatch.syspath_prepend(SCRIPTS)
    return importlib.import_module("lattice_timing").search_work


def test_semiregular_search_work_is_pinned(search_work):
    # tuples t*k built and dart walks, per search.  The cube's 48 coset
    # representatives are its elements and its kernel is trivial, so no
    # tuple is built: for order 2, its 13 involutions that fix no vertex
    # are walked one by one; with no order, also its 6 quarter turns and
    # 6 rotoreflections of order 4, once per cyclic subgroup, 3 + 3.
    # Every other representative, the identity included, is not walked.
    # dipole([0] * 4) has 2 coset representatives and a kernel of 24: the
    # vertex swap t is t*1, 23 more tuples are built, and as t's vertex
    # cycles have length 2 each of the 24 is walked alone, the 6 of order
    # 4 and the 8 of order 6 too, which sharing would walk once per
    # cyclic subgroup, 3 + 4 times
    counts = [search_work(g, k) for g, k in ((cube(), 2), (cube(), None),
                                             (dipole([0] * 4), None))]
    assert counts == [(0, 13), (0, 19), (23, 24)]


@pytest.mark.parametrize("name, work", [
    ("C200", (0, 111)), ("C6tri", (0, 80)), ("Z6-cover of K4", (0, 6)),
    ("CFI(K4)", (0, 36))])
def test_semiregular_search_work_at_scale(name, work, search_work):
    # the search with no order on graphs the benchmark never runs.  Every
    # kernel here is trivial, so no tuple is built: each x is a coset
    # representative.  C200 walks its 100 reflections that fix no vertex
    # one by one (each reverses 2 edges), and its 199 rotations once per
    # cyclic subgroup: the half turn alone, and the 10 of the other orders
    # d > 2 dividing 200.  Of the representatives whose vertex cycles share
    # one length, C6tri walks 32 of length 2 alone, and 32 of length 3 and
    # 64 of length 6 in 16 + 32 cyclic subgroups; the Z6 cover walks 4 of
    # length 2 alone and 2 + 2 of lengths 3 and 6 in 1 + 1; CFI(K4) walks
    # 12 of length 2 alone and 48 of length 4 in 24
    assert search_work(_scale_graphs()[name]) == work


def test_shared_cycle_length_matches_the_full_walk():
    # the walk that stops at the first cycle telling against x gives what
    # walking every cycle gives, on every coset representative t and every
    # t*k, over vertices and over darts with and without the mates, for
    # n = 0, the first cycle's length and a length that does not divide
    # the order.  The corpus takes no order and orders 1-12; the scale
    # graphs, whose walks are long, take no order, 2, 3 and the first
    # cycle's length, as the early stop turns on whether the order
    # divides a cycle's length
    graphs = [(name, g, True) for name, g in expansion_corpus()]
    graphs += [(name, g, False) for name, g in _scale_graphs().items()]
    calls = 0
    for name, g, every_order in graphs:
        nv, mates = len(g.vertex_list), groups._mate_points(g)
        vertices, darts = range(nv), range(nv, nv + len(g.dart_list))
        kernel = iso.chain_kernel(g)
        for t in iso.chain_cosets(g):
            for x in [t] + [compose(t, k) for k in kernel[1:]]:
                for points, m in ((vertices, ()), (darts, ()),
                                  (darts, mates)):
                    first = x[points[0]] if points else 0
                    length = 1
                    while points and first != points[0]:
                        first, length = x[first], length + 1
                    orders = (range(1, 13) if every_order
                              else (2, 3, length))
                    for order in [None, *orders]:
                        for n in (0, length, (order or length) + 1):
                            assert groups._shared_cycle_length(
                                x, points, order, m, n) == \
                                ref_shared_cycle_length(
                                    x, points, order, m, n), (
                                name, x, points, order, m, n)
                            calls += 1
    assert calls > 200000


def test_semiregular_classes_are_those_of_the_full_lattice():
    # the classes the semiregular search registers, for every order and
    # none, are the classes of all subgroups restricted to the semiregular
    # ones, in the same order
    checked = 0
    for name, g, orders in _semiregular_cases():
        full = conjugacy_classes_of_subgroups(automorphism_group(g))
        want = [[s.elements for s in cls] for cls in full
                if is_semiregular(cls[0])]
        for k in [None] + orders:
            members, found, classes = groups._semiregular_lattice(g, k)
            got = [[tuple(sorted(members[i] for i in found[j])) for j in cls]
                   for cls in classes]
            assert got == [cls for cls in want
                           if k is None or len(cls[0]) == k], (name, k)
        checked += 1
    assert checked == 249


def test_semiregular_search_is_kept_but_capped_on_every_call():
    # the search is kept on g per order, and max_order refuses the group
    # on every call, also once the search is kept
    g = cube()
    subs = [s.elements for s in semiregular_subgroups(g, order=2)]
    kept = groups._semiregular_lattice(g, 2)
    assert [s.elements for s in semiregular_subgroups(g, order=2)] == subs
    assert groups._semiregular_lattice(g, 2) is kept
    for call in (semiregular_subgroups,
                 groups.semiregular_class_representatives):
        with pytest.raises(SizeLimitError, match="48 automorphisms"):
            call(g, order=2, max_order=47)


@pytest.mark.parametrize("order", [0, -2, 2.0, "2", True])
def test_semiregular_order_must_be_a_positive_integer(order):
    # refused before the search, which order 0 used to run over the whole
    # lattice, keeping every subgroup, and then keep under that order
    g = cube()
    for call in (semiregular_subgroups,
                 groups.semiregular_class_representatives):
        with pytest.raises(GraphError, match="positive integer or None"):
            call(g, order=order)
    assert "_semiregular_lattices" not in vars(g)


def test_no_max_order_is_no_cap_on_the_subgroup_lattice():
    # None sets no cap, as in automorphism_group and all_quotients
    aut = automorphism_group(petersen())
    subs = all_subgroups(aut, max_order=None)
    assert [s.elements for s in subs] == [
        s.elements for s in all_subgroups(aut)]
    classes = conjugacy_classes_of_subgroups(aut, max_order=None)
    assert (len(subs), len(classes)) == (156, 19)


def test_chain_generators_generate_the_group():
    # sympy's Schreier-Sims order of the generated group is the chain's
    # order, also where a kernel job has three or more items to permute
    combinatorics = pytest.importorskip("sympy.combinatorics")
    graphs = [g for _, g in expansion_corpus()] + _beyond_cap_graphs()
    graphs += [normalize(random_instance(seed)) for seed in range(200)]
    for g in graphs:
        n = len(g.vertex_list) + len(g.dart_list)
        gens = [combinatorics.Permutation(list(t))
                for t in groups.chain_generators(g)]
        group = combinatorics.PermutationGroup(
            gens or [combinatorics.Permutation(n - 1)])
        assert group.order() == iso.chain_order(iso.stabilizer_chain(g))


def test_conjugacy_class_not_dividing_the_order_is_an_internal_error(
        monkeypatch):
    # an orbit closure that also adds two made-up subgroups to every class:
    # the first class of cube's semiregular subgroups of order 2 has 3
    # members, so 5 come out, and 5 does not divide 48
    closure = groups.orbit_closure

    def padded(points, maps):
        return closure(points, maps) | {frozenset({"a"}), frozenset({"b"})}

    monkeypatch.setattr(groups, "orbit_closure", padded)
    with pytest.raises(InternalError, match="conjugacy class of "):
        list(groups.semiregular_class_representatives(cube(), order=2))


def test_conjugate_outside_the_listed_subgroups_is_an_internal_error(
        monkeypatch):
    # conjugating by a vertex swap that is no automorphism of the cube
    # leaves the semiregular elements
    g = cube()
    swap = list(range(len(g.vertex_list) + len(g.dart_list)))
    swap[0], swap[1] = 1, 0
    monkeypatch.setattr(groups, "chain_generators",
                        lambda g: [tuple(swap)])
    with pytest.raises(InternalError, match="outside every listed one"):
        list(groups.semiregular_class_representatives(g, order=2))


def test_generating_set_that_does_not_span_is_an_internal_error():
    # Aut(cube) less one element is no group: a generator's row holds a
    # product that is not listed, whichever element is left out
    aut = automorphism_group(cube())
    for drop in range(1, aut.order):
        listed = aut.elements[:drop] + aut.elements[drop + 1:]
        grp = Group(aut.graph, listed, verify=False)
        with pytest.raises(InternalError, match="47 elements is not among"):
            grp.table


def test_elements_the_base_cannot_tell_apart_are_an_internal_error():
    # a listing in which two elements share their images on the chain's
    # base is refused before any row is built.  The 3-vertex path with one
    # colored edge has a trivial Aut(G), so its base is empty, and the
    # identity and the swap of its ends (no automorphism) share the empty
    # name, where a 1x1 table for 2 elements came back
    g = (GraphBuilder().vertex("a").vertex("b").vertex("c")
         .edge("ab", "a", "b", color=1).edge("bc", "b", "c").build())
    assert iso.chain_base(g) == ()
    one = tuple(range(len(g.vertex_list) + len(g.dart_list)))
    vertex_swap = {"a": "c", "b": "b", "c": "a"}
    dart_swap = {"ab.1": "bc.2", "ab.2": "bc.1", "bc.1": "ab.2",
                 "bc.2": "ab.1"}
    swap = point_images(g, vertex_swap, dart_swap)
    with pytest.raises(InternalError, match="2 listed elements have 1 "
                                            "distinct images on the base"):
        Group(g, [one, swap], verify=False).table
    # the cube's base is a path of vertices, so the identity with two
    # darts exchanged agrees with it there
    g = cube()
    base = iso.chain_base(g)
    one = tuple(range(len(g.vertex_list) + len(g.dart_list)))
    x = list(one)
    p, q = [p for p in one if p not in base][-2:]
    x[p], x[q] = q, p
    with pytest.raises(InternalError, match="2 listed elements have 1 "
                                            "distinct images on the base"):
        Group(g, [one, tuple(x)], verify=False).table


def test_class_size_not_dividing_the_order_is_an_internal_error(monkeypatch):
    # an orbit closure that also adds S5 itself to every class: the first
    # class of order-2 subgroups has 10 or 15 members, so 11 or 16 come
    # out, and neither divides 120
    aut = automorphism_group(petersen())
    whole = frozenset(range(aut.order))
    closure = groups.orbit_closure

    def padded(points, maps):
        return closure(points, maps) | {whole}

    monkeypatch.setattr(groups, "orbit_closure", padded)
    with pytest.raises(InternalError, match="conjugacy class of 1[16] "):
        conjugacy_classes_of_subgroups(aut)


def test_subgroup_closure_counts_are_pinned(monkeypatch):
    # closures `_close_indices` runs, one per class of elements that extend
    # a subgroup alike; one per left coset took 4,169 (Petersen), 4,515
    # (icosahedron) and 1,088 (cube) for all_subgroups, and 53 (cube) and
    # 155 (icosahedron) for semiregular_subgroups.  Both searches extend
    # one subgroup per conjugacy class; extending every subgroup took
    # 1,257, 1,408 and 538, and 22 and 49.  all_subgroups' counts were 178,
    # 217 and 191 while the generating set that conjugates was closed again
    # here, 3 closures each; the table's builder now finds it
    calls = []
    close = groups._close_indices

    def counting(table, s, gens, *whole):
        calls.append(1)
        return close(table, s, gens, *whole)

    monkeypatch.setattr(groups, "_close_indices", counting)
    counts = []
    for build in (petersen, icosahedron, cube):
        aut = automorphism_group(build())
        calls.clear()
        all_subgroups(aut)
        counts.append(len(calls))
    for build in (cube, icosahedron):
        calls.clear()
        semiregular_subgroups(build())
        counts.append(len(calls))
    assert counts == [175, 214, 188, 16, 32]


def test_semiregular_closure_counts_of_one_order_are_pinned(monkeypatch):
    # closures `_close_indices` runs for `semiregular_subgroups(g, order=k)`:
    # a subgroup of order k is not extended, as no larger subgroup has an
    # order dividing k (the cube at order 2 took 7 when it was), and one
    # subgroup per conjugacy class is extended (extending every subgroup
    # took 22 for the cube at order 4 and 41 for the icosahedron at 6).
    # The cube at order 2 took 4 while a prime order ran the class search
    # too; it now reads each subgroup off one involution and closes none
    calls = []
    close = groups._close_indices

    def counting(table, s, gens, *whole):
        calls.append(1)
        return close(table, s, gens, *whole)

    monkeypatch.setattr(groups, "_close_indices", counting)
    counts = []
    for build, k in ((cube, 2), (cube, 4), (icosahedron, 6),
                     (lambda: cycle(12), 12)):
        calls.clear()
        semiregular_subgroups(build(), order=k)
        counts.append(len(calls))
    assert counts == [0, 16, 32, 12]


def test_semiregular_subgroups_list_no_group(monkeypatch):
    # the search reads the chain's products as image tuples: no Aut(g) is
    # listed, and a group is built only for each subgroup returned
    def refuse(*args, **kwargs):
        raise InternalError("semiregular_subgroups listed the group")

    built = []
    init = Group.__init__
    of_positions = Group._of_positions.__func__

    def counting(self, graph, elements, verify=True):
        init(self, graph, elements, verify)
        built.append(self.elements)

    def trusted(cls, *args):
        grp = of_positions(cls, *args)
        built.append(grp.elements)
        return grp

    expected = {}
    for build in (cube, petersen, icosahedron):
        g = build()
        expected[build] = (
            automorphism_group(g).order,
            [s.elements for k in (None, 2, 3)
             for s in semiregular_subgroups(g, order=k)])
    monkeypatch.setattr(groups, "automorphism_group", refuse)
    monkeypatch.setattr(Group, "__init__", counting)
    monkeypatch.setattr(Group, "_of_positions", classmethod(trusted))
    for build, (order, listed) in expected.items():
        for k in (None, 2, 3):
            g = build()
            built.clear()
            subs = semiregular_subgroups(g, order=k)
            assert all(s.order < order for s in subs)
            assert built == [s.elements for s in subs]
        subs = [s.elements for k in (None, 2, 3)
                for s in semiregular_subgroups(build(), order=k)]
        assert subs == listed


def test_petersen_s5_lattice():
    # S5 has 156 subgroups in 19 conjugacy classes
    classes = conjugacy_classes_of_subgroups(automorphism_group(petersen()))
    assert len(classes) == 19
    assert sum(len(c) for c in classes) == 156


@pytest.mark.parametrize("build", [lambda: complete(4), cube, icosahedron])
def test_platonic_orders_match_sympy(build):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    g = build()
    aut = automorphism_group(g)
    nv = len(g.vertex_list)
    group = combinatorics.PermutationGroup(
        [combinatorics.Permutation([j - nv for j in p[nv:]]) for p in aut])
    assert group.order() == aut.order


def _maps(g, p):
    return repr((sorted(vmap(g, p).items()), sorted(dmap(g, p).items())))


def test_group_layer_is_pinned():
    # sha256 over the corpus: Aut(G) in element order as vertex and dart
    # maps, orbits on both domains, the semiregular subgroups as element
    # index sets, the multiplication table and the conjugacy classes of
    # subgroups where |Aut| <= 72, and the boundary-swapping involutions of
    # every non-block atom of every reduction level (beyond-cap graphs
    # included), all of them as the reference scan lists them, as recorded
    # while permutations kept two index tuples
    digest = hashlib.sha256()

    def put(*parts):
        digest.update("\n".join(parts).encode() + b"\n\n")

    corpus = [g for _, g in expansion_corpus()]
    assert len(corpus) == 49
    for g in corpus:
        aut = automorphism_group(g)
        put(*[_maps(g, p) for p in aut])
        put(repr(orbits(g, aut.elements, "vertices")),
            repr(orbits(g, aut.elements, "darts")))
        put(*[repr(sorted(aut._index[p] for p in s))
              for s in semiregular_subgroups(g)])
        if aut.order <= 72:
            put(repr(aut.table))
            put(*[repr([sorted(aut._index[p] for p in s) for s in cls])
                  for cls in conjugacy_classes_of_subgroups(aut)])
    for g in corpus + _beyond_cap_graphs():
        for gi in reduction_series(normalize(g)).graphs[:-1]:
            for a in find_atoms(gi):
                if not a.is_block:
                    ag, (u, v) = a.as_graph(), a.boundary
                    scan = ref_swap_involutions(ag, {u: v, v: u})
                    put(repr(a), *[_maps(ag, point_images(ag, *m))
                                   for m in scan])
                    # the atom lists the first of each class of the scan
                    assert a.swap_involutions() == tuple(
                        point_images(ag, *m)
                        for m in ref_kernel_class_firsts(ag, scan))
    assert digest.hexdigest() == (
        "d3bb8a3cff38d101bd5bb5fc045fa1fecf41f4d34cc5254021a589f51988dcd9")


def test_chain_generators_are_pinned():
    # sha256 of the chain's coset representatives and kernel moves
    # (`ref_chain_generators`, which `chain_generators` returned before it
    # took the lifted automorphisms in place of the representatives) over
    # the corpus, 200 random seeds raw and normalized, and the beyond-cap
    # graphs, as recorded when the chain was first read off the canonical
    # search's first path; the groups `chain_generators` gives are checked
    # by test_chain_generators_generate_the_group.  The lifts and kernel
    # moves number 1,027, where the representatives and moves numbered 1,689
    digest = hashlib.sha256()
    graphs = [g for _, g in expansion_corpus()]
    for seed in range(200):
        graphs += [random_instance(seed), normalize(random_instance(seed))]
    count = ref = 0
    for g in graphs + _beyond_cap_graphs():
        gens, want = chain_generators(g), ref_chain_generators(g)
        digest.update(repr(want).encode() + b"\n")
        # the kernel moves follow the lifts, and the representatives
        reps = sum(map(len, iso.stabilizer_chain(g)[0]))
        assert gens[len(iso.chain_lifts(g)[2]):] == tuple(want[reps:])
        count += len(gens)
        ref += len(want)
    assert digest.hexdigest() == (
        "39aa5718c730b8d6aa241950d38de79498665040d71445165d61c8aba583eb00")
    assert (count, ref) == (1027, 1689)


def test_whole_group_closures_stop_past_half(monkeypatch):
    # members the subgroup closures list (`_close_indices`, beyond each
    # S) over the subgroup lattices of the corpus graphs with |Aut| <= 72
    # and of Petersen, each read back normalized.  A closure that holds
    # more than half of a full table is the whole group (Lagrange), and
    # stopping there took the count from 23,930 to 18,898; the classes
    # are pinned by test_group_layer_is_pinned and
    # test_petersen_s5_lattice
    listed = []

    class CountingSet(set):
        def update(self, members):
            if sys._getframe(1).f_code.co_name == "_close_indices":
                listed.append(len(members))
            set.update(self, members)

    graphs = [(name, normalize(g)) for name, g in expansion_corpus()]
    monkeypatch.setattr(groups, "set", CountingSet, raising=False)
    for name, g in graphs:
        aut = automorphism_group(g)
        if aut.order <= 72 or name == "petersen":
            conjugacy_classes_of_subgroups(aut)
    assert sum(listed) == 18898
