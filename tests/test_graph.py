import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from regcover.errors import GraphError
from regcover.fixtures import (cube, cycle, double_edges, expansion_corpus,
                               path_graph, random_instance)
from regcover.graph import (GraphBuilder, connected_components, degree,
                            normalize, validate, Graph)
from regcover.textfmt import parse

from helpers import union_find_components

REFS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"


def test_validate_single_vertex():
    g = GraphBuilder().vertex("v").build()
    assert validate(g) == []
    assert g.n_vertices == 1 and g.n_darts == 0


def test_validate_loop():
    g = GraphBuilder().vertex("v").loop("e", "v").build()
    assert validate(g) == []
    assert g.edge_kind("e.1") == "loop"


def test_validate_rejects_broken_pairing():
    g = GraphBuilder().vertex("v").loop("e", "v").build()
    bad = Graph(g.darts, g.vertices, {"e.1": "e.2", "e.2": "e.2"},
                g.incidence, g.edge_type, g.color)
    assert any("involutive" in v for v in validate(bad))


def test_validate_rejects_direction_on_undirected():
    g = GraphBuilder().vertex("u").vertex("v").edge("e", "u", "v").build()
    bad = Graph(g.darts, g.vertices, g.pairing, g.incidence, g.edge_type,
                g.color, tails={"e.1"})
    assert any("direction" in v for v in validate(bad))


def test_validate_rejects_dangling_vertex():
    g = GraphBuilder().vertex("u").vertex("v").edge("e", "u", "v").build()
    bad = Graph(g.darts, frozenset({"u"}), g.pairing, g.incidence,
                g.edge_type, g.color)
    assert any("unknown vertex" in v for v in validate(bad))


def test_builder_on_a_base_refuses_taken_names():
    # "k" is taken by its dart k.2 alone, "h" by h.1 alone
    base = Graph({"e.1", "e.2", "h.1", "k.2"}, {"a", "b"},
                 {"e.1": "e.2", "e.2": "e.1", "h.1": "h.1", "k.2": "k.2"},
                 {"e.1": "a", "e.2": "b", "h.1": "a", "k.2": "b"},
                 {"e.1": "undirected", "e.2": "undirected"},
                 {"e.1": 0, "e.2": 0, "h.1": 0, "k.2": 0})
    b = GraphBuilder(base)
    for name in ("e", "h", "k"):
        with pytest.raises(GraphError, match="duplicate item name"):
            b.pendant(name, "a")
        assert b.fresh(name) == name + "x"
    with pytest.raises(GraphError, match="duplicate vertex"):
        b.vertex("a")
    b.loop(b.fresh("k"), "b")
    assert b.fresh("k") == "kxx"
    g = b.build()
    assert validate(g) == []
    assert g.darts == base.darts | {"kx.1", "kx.2"}
    assert g.restrict(base.darts) == base


def test_double_edges_copies_direction():
    g = dict(expansion_corpus())["C6dir"]
    doubled = double_edges(g)
    assert validate(doubled) == []
    for i, (h, k) in enumerate(g.edges):
        tail = h if h in g.tails else k
        copy = f"dd{i}.1" if tail == h else f"dd{i}.2"
        assert copy in doubled.tails
        assert doubled.vertex_of(copy) == g.vertex_of(tail)


def test_normalize_requires_connected():
    b = GraphBuilder()
    for i in range(3):
        b.vertex(f"a{i}")
    b.vertex("b0")
    for i in range(3):
        b.edge(f"e{i}", f"a{i}", f"a{(i + 1) % 3}")
    with pytest.raises(GraphError):
        normalize(b.build())


def test_validate_rejects_missing_color():
    g = GraphBuilder().vertex("u").vertex("v").edge("e", "u", "v").build()
    colors = dict(g.color)
    del colors["e.2"]
    bad = Graph(g.darts, g.vertices, g.pairing, g.incidence, g.edge_type,
                colors)
    assert any("color" in v for v in validate(bad))


def test_builder_rejects_duplicates_and_bad_tails():
    b = GraphBuilder().vertex("u").vertex("v")
    with pytest.raises(GraphError):
        b.vertex("u")
    with pytest.raises(GraphError):
        b.edge("e", "u", "v", type="directed")
    with pytest.raises(GraphError):
        b.edge("e", "u", "v", tail="u")
    b.edge("e", "u", "v")
    with pytest.raises(GraphError):
        b.edge("e", "u", "v")
    # every item's type and color are checked when it is added, and the
    # error names the item
    with pytest.raises(GraphError, match="'l'.*bogus"):
        b.loop("l", "u", type="bogus")
    with pytest.raises(GraphError, match="'f'.*weird"):
        b.free("f", type="weird")
    with pytest.raises(GraphError, match="'p'.*integer"):
        b.pendant("p", "u", color="red")
    with pytest.raises(GraphError, match="'h'.*integer"):
        b.halfedge("h", "u", color=None)
    with pytest.raises(GraphError, match="'k'.*negative"):
        b.edge("k", "u", "v", color=-1)
    assert validate(b.build()) == []


def test_degree():
    g = GraphBuilder().vertex("v").loop("e", "v").build()
    assert degree(g, "v") == 2
    g = GraphBuilder().vertex("v").pendant("p", "v").build()
    assert degree(g, "v") == 1
    assert all(degree(cube(), v) == 3 for v in cube().vertex_list)
    with pytest.raises(GraphError):
        degree(g, "nope")


def test_normalize_path():
    g = normalize(path_graph(3))
    assert g.n_vertices == 1
    assert sum(1 for h, k in g.edges if g.edge_kind(h) == "pendant") == 2


def test_normalize_k2_unchanged():
    g = path_graph(2)
    assert normalize(g) == g


def test_normalize_star():
    b = GraphBuilder().vertex("c")
    for i in range(3):
        b.vertex(f"l{i}").edge(f"e{i}", "c", f"l{i}")
    g = normalize(b.build())
    assert g.n_vertices == 1
    assert sum(1 for h, k in g.edges if g.edge_kind(h) == "pendant") == 3


def test_normalize_idempotent_and_preserves_aut():
    from regcover.groups import automorphism_group
    g = path_graph(3)
    n1 = normalize(g)
    assert normalize(n1) == n1
    assert (automorphism_group(g).order
            == automorphism_group(n1).order == 2)


def test_connected_components():
    assert len(connected_components(cycle(6))) == 1
    b = GraphBuilder()
    for i in range(3):
        b.vertex(f"a{i}")
    for i in range(4):
        b.vertex(f"b{i}")
    for i in range(3):
        b.edge(f"ea{i}", f"a{i}", f"a{(i + 1) % 3}")
    for i in range(4):
        b.edge(f"eb{i}", f"b{i}", f"b{(i + 1) % 4}")
    assert len(connected_components(b.build())) == 2
    free = GraphBuilder().free("f").build()
    comps = connected_components(free)
    assert len(comps) == 1 and not comps[0][1]


def test_components_match_union_find():
    # the dart walk gives the union-find components in the same order,
    # lone vertices and free items included
    b = GraphBuilder().vertex("a").vertex("b").vertex("c").vertex("z")
    b.edge("e", "a", "b").pendant("p", "c").loop("l", "z")
    b.free("f").halfedge("h", None).halfedge("k", "b")
    graphs = [b.build(), GraphBuilder().vertex("x").vertex("y").build()]
    graphs += [g for _, g in expansion_corpus()]
    for seed in range(200):
        graphs += [random_instance(seed), normalize(random_instance(seed))]
    pool = json.loads(REFS.read_text())["cover"]["pool"]
    graphs += [parse(text) for text in pool.values()]
    for g in graphs:
        assert connected_components(g) == list(union_find_components(g)), g
    assert [len(vs) for _, vs in connected_components(graphs[0])] == [
        0, 0, 2, 1, 1]


def test_restrict():
    b = GraphBuilder().vertex("u").vertex("v").vertex("w")
    b.edge("d", "u", "v", type="directed", tail="v", color=2)
    b.edge("e", "v", "w").loop("l", "w").halfedge("h", "u", color=1)
    g = b.build()
    kept = {"d.1", "d.2", "e.1", "e.2"}
    sub = g.restrict(kept)
    assert sub.vertices == g.vertices and sub.darts == kept
    assert validate(sub) == [] and sub.tails == {"d.2"}
    assert sub.color == {"d.1": 2, "d.2": 2, "e.1": 0, "e.2": 0}
    cut = g.restrict(g.darts, {"u", "v"})
    assert cut.vertices == {"u", "v"}
    assert cut.edge_kind("e.1") == "pendant" and cut.edge_kind("l.1") == "free"
    assert validate(cut) == []


def test_restrict_refuses_a_dart_set_not_closed_under_the_pairing():
    g = cycle(4)
    with pytest.raises(GraphError, match="not closed under pairing"):
        g.restrict(g.darts - {"e0.1"})
    with pytest.raises(GraphError, match="not closed under pairing"):
        g.restrict({"e0.1", "e1.1", "e1.2"}, {"v0", "v1"})


names = st.integers(min_value=0, max_value=5)


@st.composite
def graphs(draw):
    b = GraphBuilder()
    n = draw(st.integers(min_value=1, max_value=5))
    for i in range(n):
        b.vertex(f"v{i}")
    n_items = draw(st.integers(min_value=0, max_value=8))
    for j in range(n_items):
        kind = draw(st.sampled_from(["edge", "loop", "pendant", "halfedge",
                                     "free", "freehalf"]))
        color = draw(st.integers(min_value=0, max_value=2))
        v = f"v{draw(names) % n}"
        if kind == "edge" and n >= 2:
            w = f"v{draw(names) % n}"
            if w == v:
                continue
            typ = draw(st.sampled_from(["undirected", "halvable", "directed"]))
            tail = v if typ == "directed" else None
            b.edge(f"e{j}", v, w, type=typ, color=color, tail=tail)
        elif kind == "loop":
            typ = draw(st.sampled_from(["undirected", "halvable"]))
            b.loop(f"e{j}", v, type=typ, color=color)
        elif kind == "pendant":
            b.pendant(f"e{j}", v, color=color)
        elif kind == "halfedge":
            b.halfedge(f"e{j}", v, color=color)
        elif kind == "free":
            b.free(f"e{j}", color=color,
                   type=draw(st.sampled_from(["undirected", "halvable"])))
        elif kind == "freehalf":
            b.halfedge(f"e{j}", None, color=color)
    return b.build()


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_builder_output_always_validates(g):
    assert validate(g) == []


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_dart_count_law(g):
    assert g.n_darts == 2 * g.n_edges + len(g.halfedges)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_components_match_union_find_on_drawn_graphs(g):
    assert connected_components(g) == list(union_find_components(g))
