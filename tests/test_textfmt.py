import pytest
from hypothesis import given, settings

from regcover.errors import ParseError
from regcover.fixtures import expansion_corpus, theta
from regcover.textfmt import parse, serialize

from test_graph import graphs


def test_parse_basic():
    g = parse("""
# a triangle with a pendant
vertex a
vertex b
vertex c
edge e1 a b color=1
edge e2 b c
edge e3 c a type=halvable
pendant p a color=2
""")
    assert g.n_vertices == 3
    assert g.n_edges == 4
    assert g.color["e1.1"] == 1
    assert g.edge_type["e3.1"] == "halvable"


def test_parse_directed_and_halfedge():
    g = parse("vertex u\nvertex v\nedge e u v type=directed color=0 tail=v\n"
              "halfedge h u color=3\nhalfedge f - color=1\n")
    assert "e.2" in g.tails
    assert g.vertex_of("h.1") == "u"
    assert g.vertex_of("f.1") is None


@pytest.mark.parametrize("text,fragment", [
    ("vertex a\nvertex a\n", "duplicate"),
    ("vertex a\nedge e a b\n", "unknown vertex"),
    ("vertex a\nvertex b\nedge e a b type=directed\n", "tail"),
    ("vertex a\nvertex b\nedge e a b tail=a\n", "tail"),
    ("vertex a\nvertex b\nedge e a b type=weird\n", "type"),
    ("vertex a\nvertex b\nedge e a b color=x\n", "color"),
    ("vertex a\nloop l a color=-2\n", "color"),
    ("blah a\n", "unknown item"),
    ("vertex a\nvertex b\nedge e a b\nedge e a b\n", "duplicate"),
])
def test_parse_rejections(text, fragment):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as err:
        parse("vertex a\nvertex a\n")
    assert err.value.line == 2


def test_roundtrip_fixtures():
    for name, g in expansion_corpus():
        assert parse(serialize(g)) == g, name


def test_roundtrip_is_byte_stable():
    g = theta(2, 2, 2)
    s1 = serialize(g)
    s2 = serialize(parse(s1))
    assert s1 == s2


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_roundtrip_random(g):
    assert parse(serialize(g)) == g
