import sys

import pytest

from regcover import atoms, blocks
from regcover.blocks import attached_subgraph, block_tree, central_element
from regcover.errors import GraphError, InternalError
from regcover.fixtures import (bowtie, cube, cycle, double_edges,
                               expansion_corpus, path_graph, random_instance,
                               theta, triangle_chain, with_pendants)
from regcover.graph import STANDARD, GraphBuilder, normalize
from regcover.groups import semiregular_subgroups
from regcover.iso import are_isomorphic

from helpers import dmap, vmap
from test_iso import _beyond_cap_graphs


def test_two_connected_single_block():
    bt = block_tree(cycle(5))
    assert len(bt.blocks) == 1
    assert bt.center == ("block", 0)
    assert not bt.articulations


def test_bowtie_center_is_articulation():
    bt = block_tree(bowtie())
    assert len(bt.blocks) == 2
    assert bt.articulations == {"c"}
    assert bt.center == ("articulation", "c")


def test_triangle_chain_center_is_middle_triangle():
    g = triangle_chain(3)
    bt = block_tree(g)
    kind, (_, vertices) = central_element(g)
    assert kind == "block"
    assert vertices == {"s1", "t1", "s2"}


def test_cube_central_block_is_cube():
    kind, (_, vertices) = central_element(cube())
    assert kind == "block"
    assert vertices == set(cube().vertex_list)


def test_k4_with_pendant_triangle_center():
    b = GraphBuilder()
    for i in range(4):
        b.vertex(f"v{i}")
    n = 0
    for i in range(4):
        for j in range(i + 1, 4):
            b.edge(f"e{n}", f"v{i}", f"v{j}"); n += 1
    b.vertex("t1").vertex("t2")
    b.edge("g0", "v0", "t1").edge("g1", "v0", "t2").edge("g2", "t1", "t2")
    g = b.build()
    # the block path K4 - v0 - triangle has its middle at the articulation
    assert central_element(g) == ("articulation", "v0")


def test_every_edge_in_exactly_one_block():
    for name, g in expansion_corpus():
        g = normalize(g)
        bt = block_tree(g)
        count = {}
        for darts, _ in bt.blocks:
            for h in darts:
                count[h] = count.get(h, 0) + 1
        assert set(count) == set(g.darts), name
        assert all(c == 1 for c in count.values()), name
        for v in bt.articulations:
            member = sum(1 for _, vertices in bt.blocks if v in vertices)
            assert member >= 2, name


def test_attached_subgraph_needs_central_block_articulation():
    with pytest.raises(GraphError):
        attached_subgraph(block_tree(cube()), "000")
    with pytest.raises(GraphError):
        attached_subgraph(block_tree(bowtie()), "c")


def test_attached_subgraph_pendant_and_triangle():
    g = with_pendants(cycle(4), ["v0", "v2"])
    bt = block_tree(g)
    assert bt.center[0] == "block"
    darts, vertices = attached_subgraph(bt, "v0")
    assert vertices == {"v0"} and len(darts) == 2

    b = GraphBuilder()
    for i in range(4):
        b.vertex(f"v{i}")
    for i in range(4):
        b.edge(f"e{i}", f"v{i}", f"v{(i + 1) % 4}")
    for v in ("v0", "v2"):
        b.vertex(f"{v}a").vertex(f"{v}b")
        b.edge(f"t{v}1", v, f"{v}a")
        b.edge(f"t{v}2", v, f"{v}b")
        b.edge(f"t{v}3", f"{v}a", f"{v}b")
    g = b.build()
    bt = block_tree(g)
    _, vertices = attached_subgraph(bt, "v2")
    assert vertices == {"v2", "v2a", "v2b"}


def test_semiregular_action_on_attached_subgraphs():
    # the unique-translate law: articulations of the central block in one
    # orbit carry isomorphic attached subgraphs, via exactly one element
    g = with_pendants(cycle(6), [f"v{i}" for i in range(6)])
    bt = block_tree(g)
    arts = bt.articulations_on_central_block()
    assert len(arts) == 6
    for gamma in semiregular_subgroups(g):
        if gamma.is_trivial:
            continue
        for u in arts:
            gu = attached_subgraph(bt, u)
            for p in gamma:
                v = vmap(g, p)[u]
                gv = attached_subgraph(bt, v)
                assert are_isomorphic(g.restrict(*gu),
                                      g.restrict(*gv)) is not None
                movers = [q for q in gamma
                          if {dmap(g, q)[h] for h in gu[0]} == gv[0]]
                assert len(movers) == 1


def test_nontrivial_semiregular_implies_central_block():
    for name, g in expansion_corpus():
        g = normalize(g)
        subs = [s for s in semiregular_subgroups(g) if not s.is_trivial]
        if subs:
            assert block_tree(g).center[0] == "block", name


def test_lone_vertex_central_articulation():
    g = GraphBuilder().vertex("v").build()
    assert central_element(g) == ("articulation", "v")


def test_block_tree_of_a_long_path_leaves_the_recursion_limit_alone(
        monkeypatch):
    def refuse(limit):
        raise RuntimeError(f"a cut search set the recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    bt = block_tree(path_graph(3000))
    assert len(bt.blocks) == 2999
    assert len(bt.articulations) == 2998
    assert bt.blocks[bt.center[1]][1] == {"v1499", "v1500"}
    # the 2-cut searches walk three arms of 1000 vertices each
    g = theta(1000, 1000, 1000)
    assert atoms._cut_pairs(g) == {("u", "v")}
    comps = atoms._component_vertex_sets(g, {"u", "v"})
    assert sorted(map(len, comps)) == [1000, 1000, 1000]


def test_blocks_match_networkx_biconnected_components():
    # by vertices, and by the standard darts of each block: those of every
    # edge with both ends in the networkx component, parallel edges too
    nx = pytest.importorskip("networkx")
    graphs = [g for _, g in expansion_corpus()] + _beyond_cap_graphs()
    graphs += [normalize(random_instance(seed)) for seed in range(300)]
    graphs += [double_edges(g) for g in graphs]
    for g in graphs:
        standard = [(h, k) for h, k in g.edges
                    if g.edge_kind(h) == STANDARD]
        simple = nx.Graph()
        simple.add_nodes_from(g.vertex_list)
        simple.add_edges_from((g.vertex_of(h), g.vertex_of(k))
                              for h, k in standard)
        ours = {(vertices, frozenset(h for h in darts
                                     if g.edge_kind(h) == STANDARD))
                for darts, vertices in block_tree(g).blocks}
        theirs = {(frozenset(c), frozenset(
            x for h, k in standard
            if g.vertex_of(h) in c and g.vertex_of(k) in c for x in (h, k)))
            for c in nx.biconnected_components(simple)}
        assert {b for b in ours if b[1]} == theirs, g


def test_an_edge_ending_at_a_search_root_is_an_internal_error(monkeypatch):
    # a walk that reports every vertex as a root leaves the later end of
    # each edge a root, which no depth-first search does
    def all_roots(g, removed=()):
        roots = dict.fromkeys(g.vertex_list)
        return dict.fromkeys(roots, 0), roots, set()

    monkeypatch.setattr(blocks, "lowpoints", all_roots)
    with pytest.raises(InternalError, match="DFS root"):
        block_tree(cycle(4))


def test_a_block_structure_that_is_no_tree_is_an_internal_error(
        monkeypatch):
    # a walk that says every child is cut off from its parent puts the
    # triangle's edges in two blocks sharing two articulations, a cycle of
    # tree nodes; and two adjacent nodes have no unique center.  Neither
    # comes from a connected graph, so both are bugs, not bad input.
    def chain(g, removed=()):
        vs = g.vertex_list
        return ({v: i for i, v in enumerate(vs)},
                dict(zip(vs, (None,) + vs[:-1])), set(vs[1:]))

    monkeypatch.setattr(blocks, "lowpoints", chain)
    with pytest.raises(InternalError, match="not a tree"):
        block_tree(cycle(3))
    pair = {("block", 0): [("block", 1)], ("block", 1): [("block", 0)]}
    with pytest.raises(InternalError, match="no unique center"):
        blocks._tree_center(pair)
