import random

import pytest

from regcover import iso
from regcover.atoms import Atom, classify_primitive, find_atoms
from regcover.blocks import block_tree
from regcover.errors import GraphError, InternalError
from regcover.fixtures import (asymmetric_arm_theta, bowtie, cube, cycle,
                               cycle_with_triangles, dipole, expansion_corpus,
                               random_instance, reduction_showcase,
                               star_pendants, theta, with_pendants)
from regcover.graph import (DIRECTED, HALVABLE, PENDANT, UNDIRECTED,
                            normalize, point_images, point_maps, validate)
from regcover.groups import (automorphism_group, count_automorphisms,
                             semiregular_subgroups, semiregularity_violation)
from regcover.reduction import (kernel_order, reduce_step,
                                reduction_epimorphism, reduction_series)
from regcover.quotient import all_quotients
from regcover.textfmt import parse, serialize

from helpers import compose, dmap, is_identity, ref_chain_generators, vmap
from test_groups import count_dart_maps
from test_iso import _beyond_cap_graphs


def test_reduce_theta_to_dipole():
    g = theta(2, 2, 2, edge_type=HALVABLE)
    step = reduce_step(g)
    t = step.target
    assert t.n_vertices == 2 and t.n_edges == 3
    assert all(t.edge_type[h] == HALVABLE for h in t.edge_type)
    assert len({t.color[h] for h in t.darts}) == 1
    assert len(step.classes) == 1
    assert step.classes[0].rep.symmetry == "halvable"


def test_reduce_star_collapse():
    g = star_pendants(2)
    step = reduce_step(g)
    t = step.target
    assert t.n_vertices == 1
    assert [t.edge_kind(h) for h, k in t.edges] == [PENDANT]


def test_reduce_primitive_raises():
    with pytest.raises(GraphError):
        reduce_step(cube())


def test_theta_series():
    s = reduction_series(theta(2, 2, 2, edge_type=HALVABLE))
    assert s.depth == 2
    assert s.primitive.tag == "k2"
    assert [g.n_vertices for g in s.graphs] == [8, 2, 2]
    # reduction tree: root - dipole - three path atoms
    (dip,) = s.tree.children
    assert dip.atom.kind == "dipole"
    assert len(dip.children) == 3
    assert all(c.atom.kind == "proper" for c in dip.children)


def test_cube_series_trivial():
    s = reduction_series(cube())
    assert s.depth == 0 and s.primitive.tag == "three_connected"


def test_showcase_series():
    g = reduction_showcase()
    s = reduction_series(g)
    assert s.depth == 1
    assert s.primitive.tag == "cycle" and s.primitive.n == 8
    step = s.steps[0]
    assert sorted((c.rep.kind, c.rep.symmetry, len(c.members))
                  for c in step.classes) == [
        ("dipole", "halvable", 4),
        ("nonstar_block", "symmetric", 4),
        ("proper", "asymmetric", 4),
    ]
    t = step.target
    kinds = {}
    for h, k in t.edges:
        key = (t.edge_kind(h), t.edge_type[h])
        kinds[key] = kinds.get(key, 0) + 1
    assert kinds == {("standard", HALVABLE): 4, ("standard", DIRECTED): 4,
                     ("pendant", UNDIRECTED): 4}
    assert automorphism_group(t).order == 4
    assert kernel_order(step) == 24 ** 4 * 2 ** 4


def test_replacement_edges_take_fresh_names():
    # a kept cycle edge named like the first replacement edge stays, and
    # the replacement takes the next free name
    g = parse(serialize(cycle_with_triangles(4)).replace("edge e0 ",
                                                         "edge r65536i0 "))
    step = reduce_step(g)
    t = step.target
    assert t.n_darts == 16 and validate(t) == []
    assert t.color["r65536i0.1"] == 0 and t.color["r65536i0x.1"] == 65536
    assert step.replacements[0].darts == ("r65536i0x.1", "r65536i0x.2")
    via = [[iso.canonical_form(q) for q in all_quotients(g, via=route)]
           for route in ("bruteforce", "reduction")]
    assert len(via[0]) == 3 and via[0] == via[1]


def test_kernel_order_reads_the_chain_the_symmetry_test_built(monkeypatch):
    # the halvable dipole's boundary-pinned chain, built to find its
    # boundary swaps for its edge type, is kept on its graph:
    # `_dart_jobs` calls 4 -> 3
    step = reduce_step(reduction_showcase())
    calls = []
    jobs = iso._dart_jobs

    def counting(g1, g2, vmap):
        calls.append(1)
        return jobs(g1, g2, vmap)

    monkeypatch.setattr(iso, "_dart_jobs", counting)
    assert kernel_order(step) == 24 ** 4 * 2 ** 4
    assert len(calls) == 3


def test_fresh_colors():
    for name, g in expansion_corpus():
        g = normalize(g)
        s = reduction_series(g)
        for step in s.steps:
            source_colors = set(step.source.color.values())
            for cls in step.classes:
                assert cls.color not in source_colors, name


def test_reduction_deterministic():
    g = theta(1, 2, 2)
    s1 = serialize(reduction_series(g).graphs[-1])
    s2 = serialize(reduction_series(theta(1, 2, 2)).graphs[-1])
    assert s1 == s2


def test_epimorphism_identity_and_dart_action():
    g = theta(2, 2, 2, edge_type=HALVABLE)
    step = reduce_step(g)
    aut = automorphism_group(g)
    ident = aut.elements[0]
    assert is_identity(reduction_epimorphism(step, ident))

    swap = next(p for p in aut if vmap(g, p)["u"] == "v"
                and vmap(g, p)["x0_0"] == "x0_1")
    img = reduction_epimorphism(step, swap)
    t = step.target
    assert vmap(t, img) == {"u": "v", "v": "u"}
    # every halvable replacement edge has its darts exchanged
    darts = dmap(t, img)
    for h in t.dart_list:
        assert darts[h] == t.pairing[h]


def test_epimorphism_image_check_is_internal_error(monkeypatch):
    step = reduce_step(theta(2, 2, 2, edge_type=HALVABLE))
    ident = automorphism_group(step.source).elements[0]
    real = iso.verify_isomorphism
    # refuse only the check on the target, after the source passed its own
    monkeypatch.setattr(iso, "verify_isomorphism",
                        lambda g1, *a, **k: g1 is not step.target
                        and real(g1, *a, **k))
    with pytest.raises(InternalError, match="reduction_epimorphism"):
        reduction_epimorphism(step, ident)


def test_epimorphism_rejects_foreign_permutation():
    g = theta(2, 2, 2, edge_type=HALVABLE)
    step = reduce_step(g)
    other = automorphism_group(cycle(6))
    with pytest.raises(GraphError):
        reduction_epimorphism(step, other.elements[0])
    # the right length, but not a permutation of the source's points
    with pytest.raises(GraphError):
        reduction_epimorphism(step, (0,) * (g.n_vertices + g.n_darts))
    # a permutation of the source's points, but not an automorphism: it
    # swaps the first two vertices and fixes every dart
    n = g.n_vertices + g.n_darts
    with pytest.raises(GraphError, match="not an automorphism"):
        reduction_epimorphism(step, (1, 0) + tuple(range(2, n)))


def test_epimorphism_is_homomorphism():
    g = bowtie()
    step = reduce_step(g)
    aut = automorphism_group(g)
    rng = random.Random(7)
    for _ in range(10):
        a, b = rng.choice(aut.elements), rng.choice(aut.elements)
        left = reduction_epimorphism(step, compose(a, b))
        right = compose(reduction_epimorphism(step, a),
                        reduction_epimorphism(step, b))
        assert left == right


def test_epimorphism_surjective_and_order_law():
    for name, g in expansion_corpus():
        g = normalize(g)
        s = reduction_series(g)
        for step in s.steps:
            aut_s = automorphism_group(step.source)
            aut_t = automorphism_group(step.target)
            image = {reduction_epimorphism(step, p) for p in aut_s}
            assert image == set(aut_t.elements), name
            ker = [p for p in aut_s
                   if is_identity(reduction_epimorphism(step, p))]
            assert aut_s.order == aut_t.order * len(ker), name
            assert len(ker) == kernel_order(step), name


def test_semiregular_restriction_injective_and_semiregular():
    for g in (theta(2, 2, 2, edge_type=HALVABLE), cycle(8),
              with_pendants(cycle(6), [f"v{i}" for i in range(6)])):
        g = normalize(g)
        s = reduction_series(g)
        for step in s.steps:
            for gamma in semiregular_subgroups(step.source):
                imgs = {reduction_epimorphism(step, p) for p in gamma}
                assert len(imgs) == gamma.order
                for q in imgs:
                    assert semiregularity_violation(step.target, q) is None


def test_kernel_orders_give_aut_order_beyond_cap(monkeypatch):
    # |Aut(G)| = |Aut(G_r)| * the product of the kernel orders, counted
    # without building a dart map; the orders are perfbench/refs.json's |Aut|
    series = [reduction_series(normalize(g)) for g in _beyond_cap_graphs()]
    built = count_dart_maps(monkeypatch)
    orders = []
    for s in series:
        order = count_automorphisms(s.graphs[-1])
        for step in s.steps:
            order *= kernel_order(step)
        orders.append(order)
    assert orders == [10080, 1440, 1440, 240, 240, 240, 1440, 768, 1440,
                      768, 4096]
    assert built == []


def test_kernel_examples():
    g = theta(2, 2, 2, edge_type=HALVABLE)
    s = reduction_series(g)
    for step, order in ((s.steps[0], 1), (s.steps[1], 6),
                        (reduce_step(star_pendants(2)), 2)):
        aut_s = automorphism_group(step.source)
        aut_t = automorphism_group(step.target)
        ker = [p for p in aut_s
               if is_identity(reduction_epimorphism(step, p))]
        assert aut_s.order == aut_t.order * len(ker)
        assert len(ker) == kernel_order(step) == order


def test_preserved_center():
    # for graphs with a non-trivial semiregular automorphism, the central
    # block reduces onto the central block
    from regcover.blocks import block_tree
    for g in (theta(2, 2, 2, edge_type=HALVABLE), theta(1, 1, 1, 1,
                                                        edge_type=HALVABLE),
              reduction_showcase()):
        g = normalize(g)
        s = reduction_series(g)
        # a non-trivial semiregular subgroup of the primitive graph lifts
        # back up the series, so checking there is enough
        assert any(not x.is_trivial
                   for x in semiregular_subgroups(s.graphs[-1]))
        for step in s.steps:
            c_src = block_tree(step.source).central_block()
            c_tgt = block_tree(step.target).central_block()
            assert c_src is not None and c_tgt is not None
            expected = set(c_src[0] & step.target.darts)
            for rep in step.replacements:
                # proper atoms and dipoles cut out of the central block
                # (their decorations live in other blocks, so test the
                # boundary, not the full dart set)
                if (not rep.atom.is_block
                        and set(rep.atom.boundary) <= c_src[1]):
                    expected.update(rep.darts)
            assert expected == set(c_tgt[0])


def test_termination_dart_counts_strictly_decrease():
    for name, g in expansion_corpus():
        g = normalize(g)
        s = reduction_series(g)
        counts = [gg.n_darts for gg in s.graphs]
        assert all(a > b for a, b in zip(counts, counts[1:])), name
        assert s.primitive.is_primitive


def test_orientation_rule_consistent():
    g = asymmetric_arm_theta()
    step = reduce_step(g)
    (cls,) = step.classes
    assert cls.rep.symmetry == "asymmetric"
    t = step.target
    # all three replacement edges directed, all tails at the same vertex
    tails = {t.vertex_of(h) for h in t.tails}
    assert len(tails) == 1


def test_member_ends_equal_their_own_ordered_boundary():
    # a member's ends are read off its class representative's ordered
    # forms; each atom's own two ordered-marked searches are the oracle
    graphs = [g for _, g in expansion_corpus()] + _beyond_cap_graphs()
    graphs += [random_instance(seed) for seed in range(200)]
    graphs += [dipole([0] * e) for e in range(2, 9)]
    mapped = 0
    for g in graphs:
        for step in reduction_series(normalize(g)).steps:
            for r in step.replacements:
                if r.atom.is_block:
                    continue
                assert r.dart_vertices == r.atom.ordered_boundary()
                mapped += (r.cls.rep.symmetry == "asymmetric"
                           and r.atom is not r.cls.rep)
    assert mapped > 0


def test_a_member_map_that_fails_its_check_is_an_internal_error(
        monkeypatch):
    check = iso.verify_isomorphism

    def refusing(g1, g2, vmap, dmap, marking1=None, marking2=None):
        if marking1 is not None:
            return False
        return check(g1, g2, vmap, dmap, marking1, marking2)

    monkeypatch.setattr(iso, "verify_isomorphism", refusing)
    with pytest.raises(InternalError, match="reduce_step"):
        reduce_step(asymmetric_arm_theta())


def test_components_block_tree_and_atoms_are_built_once_per_graph(
        monkeypatch):
    built = []
    init = Atom.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Atom, "__init__", counting_init)
    replaced = 0
    for _, g in expansion_corpus():
        series = reduction_series(normalize(g))
        replaced += sum(len(step.replacements) for step in series.steps)
    assert len(built) == replaced == 71

    g = theta(2, 2, 2)
    built.clear()
    atoms = find_atoms(g)
    assert classify_primitive(g).tag == "not_primitive"
    step = reduce_step(g)
    assert len(built) == len(atoms) == len(step.replacements) == 3
    assert {id(r.atom) for r in step.replacements} == set(map(id, atoms))
    # every call returns the one block tree kept on g
    assert block_tree(g) is block_tree(g)
    # list results are fresh copies of the kept tuple
    assert find_atoms(g) == atoms and find_atoms(g) is not atoms


def test_kernel_is_generated_by_the_boundary_fixing_generators():
    # per atom class of every step of the corpus and the beyond-cap
    # graphs: sympy's order of the group that the boundary-fixing chain's
    # coset representatives and kernel moves (`ref_chain_generators(ag,
    # boundary)`) generate is the count `kernel_order` takes, and each
    # generator, extended by the identity outside the atom, maps to the
    # identity under `reduction_epimorphism`
    combinatorics = pytest.importorskip("sympy.combinatorics")
    graphs = [g for _, g in expansion_corpus()] + _beyond_cap_graphs()
    checked = 0
    for g in graphs:
        for step in reduction_series(normalize(g)).steps:
            src = step.source
            fixed_v, fixed_d = point_maps(
                src, range(src.n_vertices + src.n_darts))
            for cls in step.classes:
                ag, boundary = cls.rep.as_graph(), cls.rep.boundary
                gens = ref_chain_generators(ag, boundary)
                n = ag.n_vertices + ag.n_darts
                group = combinatorics.PermutationGroup(
                    [combinatorics.Permutation(list(t)) for t in gens]
                    or [combinatorics.Permutation(n - 1)])
                assert group.order() == count_automorphisms(
                    ag, pinned={b: b for b in boundary})
                for t in gens:
                    vm, dm = point_maps(ag, t)
                    pi = point_images(src, fixed_v | vm, fixed_d | dm)
                    assert is_identity(reduction_epimorphism(step, pi))
                checked += 1
    assert checked == 58
