"""Named graph constructors, the oracle-equivalence corpus, and the
golden fixture cases used by the CLI `fixtures` subcommand."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .graph import (DIRECTED, HALVABLE, UNDIRECTED, GraphBuilder, STANDARD,
                    normalize, validate)


def cycle(n, edge_type=UNDIRECTED, color=0):
    b = GraphBuilder()
    if n < 1:
        raise ValueError("cycle needs n >= 1")
    for i in range(n):
        b.vertex(f"v{i}")
    if n == 1:
        b.loop("e0", "v0", type=edge_type, color=color)
        return b.build()
    for i in range(n):
        b.edge(f"e{i}", f"v{i}", f"v{(i + 1) % n}", type=edge_type, color=color)
    return b.build()


def path_graph(n_vertices):
    b = GraphBuilder()
    for i in range(n_vertices):
        b.vertex(f"v{i}")
    for i in range(n_vertices - 1):
        b.edge(f"e{i}", f"v{i}", f"v{i + 1}")
    return b.build()


def complete(n, edge_type=UNDIRECTED):
    b = GraphBuilder()
    for i in range(n):
        b.vertex(f"v{i}")
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            b.edge(f"e{k}", f"v{i}", f"v{j}", type=edge_type)
            k += 1
    return b.build()


def cube(edge_type=UNDIRECTED):
    b = GraphBuilder()
    verts = [f"{i:03b}" for i in range(8)]
    for v in verts:
        b.vertex(v)
    k = 0
    for i, u in enumerate(verts):
        for w in verts[i + 1:]:
            if sum(a != c for a, c in zip(u, w)) == 1:
                b.edge(f"e{k}", u, w, type=edge_type)
                k += 1
    return b.build()


def prism(n, edge_type=UNDIRECTED):
    b = GraphBuilder()
    for i in range(n):
        b.vertex(f"a{i}")
        b.vertex(f"b{i}")
    for i in range(n):
        b.edge(f"ea{i}", f"a{i}", f"a{(i + 1) % n}", type=edge_type)
        b.edge(f"eb{i}", f"b{i}", f"b{(i + 1) % n}", type=edge_type)
        b.edge(f"er{i}", f"a{i}", f"b{i}", type=edge_type)
    return b.build()


def k33(edge_type=UNDIRECTED):
    b = GraphBuilder()
    for i in range(3):
        b.vertex(f"a{i}")
        b.vertex(f"b{i}")
    k = 0
    for i in range(3):
        for j in range(3):
            b.edge(f"e{k}", f"a{i}", f"b{j}", type=edge_type)
            k += 1
    return b.build()


def icosahedron(edge_type=UNDIRECTED):
    b = GraphBuilder()
    b.vertex("t")
    b.vertex("b")
    for i in range(5):
        b.vertex(f"u{i}")
        b.vertex(f"l{i}")
    k = 0
    for i in range(5):
        for pair in ((("t", f"u{i}")), (("b", f"l{i}")),
                     ((f"u{i}", f"u{(i + 1) % 5}")),
                     ((f"l{i}", f"l{(i + 1) % 5}")),
                     ((f"u{i}", f"l{i}")), ((f"u{i}", f"l{(i + 1) % 5}"))):
            b.edge(f"e{k}", pair[0], pair[1], type=edge_type)
            k += 1
    return b.build()


def petersen():
    b = GraphBuilder()
    for i in range(5):
        b.vertex(f"o{i}")
        b.vertex(f"i{i}")
    for i in range(5):
        b.edge(f"eo{i}", f"o{i}", f"o{(i + 1) % 5}")
        b.edge(f"es{i}", f"o{i}", f"i{i}")
        b.edge(f"ei{i}", f"i{i}", f"i{(i + 2) % 5}")
    return b.build()


def ladder(n, edge_type=UNDIRECTED):
    """2 x n grid."""
    b = GraphBuilder()
    for i in range(n):
        b.vertex(f"a{i}")
        b.vertex(f"b{i}")
    for i in range(n):
        b.edge(f"er{i}", f"a{i}", f"b{i}", type=edge_type)
        if i + 1 < n:
            b.edge(f"ea{i}", f"a{i}", f"a{i + 1}", type=edge_type)
            b.edge(f"eb{i}", f"b{i}", f"b{i + 1}", type=edge_type)
    return b.build()


def theta(*interiors, edge_type=UNDIRECTED):
    """Two branch vertices joined by arms; each argument is the number of
    interior vertices on one arm (0 = a direct parallel edge)."""
    b = GraphBuilder()
    b.vertex("u")
    b.vertex("v")
    k = 0
    for ai, m in enumerate(interiors):
        prev = "u"
        for j in range(m):
            name = f"x{ai}_{j}"
            b.vertex(name)
            b.edge(f"e{k}", prev, name, type=edge_type)
            k += 1
            prev = name
        b.edge(f"e{k}", prev, "v", type=edge_type)
        k += 1
    return b.build()


def dipole(colors, types=None):
    """Two vertices joined by parallel edges with the given colors/types."""
    b = GraphBuilder()
    b.vertex("u")
    b.vertex("v")
    if types is None:
        types = [HALVABLE] * len(colors)
    for i, (c, t) in enumerate(zip(colors, types)):
        if t == DIRECTED:
            b.edge(f"e{i}", "u", "v", type=t, color=c, tail="u")
        else:
            b.edge(f"e{i}", "u", "v", type=t, color=c)
    return b.build()


def star_pendants(k, colors=None):
    b = GraphBuilder()
    b.vertex("c")
    for i in range(k):
        c = 0 if colors is None else colors[i]
        b.pendant(f"p{i}", "c", color=c)
    return b.build()


def bowtie():
    """Two triangles sharing one vertex."""
    b = GraphBuilder()
    for v in ("c", "a1", "a2", "b1", "b2"):
        b.vertex(v)
    b.edge("e0", "c", "a1").edge("e1", "c", "a2").edge("e2", "a1", "a2")
    b.edge("e3", "c", "b1").edge("e4", "c", "b2").edge("e5", "b1", "b2")
    return b.build()


def triangle_chain(k):
    """k triangles glued in a path at shared vertices."""
    b = GraphBuilder()
    b.vertex("s0")
    n = 0
    for i in range(k):
        b.vertex(f"t{i}")
        b.vertex(f"s{i + 1}")
        b.edge(f"e{n}", f"s{i}", f"t{i}"); n += 1
        b.edge(f"e{n}", f"t{i}", f"s{i + 1}"); n += 1
        b.edge(f"e{n}", f"s{i}", f"s{i + 1}"); n += 1
    return b.build()


def book(k, edge_type=UNDIRECTED):
    """k triangles sharing one common edge uv."""
    b = GraphBuilder()
    b.vertex("u")
    b.vertex("v")
    b.edge("spine", "u", "v", type=edge_type)
    n = 0
    for i in range(k):
        b.vertex(f"x{i}")
        b.edge(f"e{n}", "u", f"x{i}", type=edge_type); n += 1
        b.edge(f"e{n}", f"x{i}", "v", type=edge_type); n += 1
    return b.build()


def with_pendants(g, vertices, color=0):
    """A copy of g with one extra pendant edge at each listed vertex."""
    b = GraphBuilder(g)
    for i, v in enumerate(vertices):
        b.pendant(b.fresh(f"pp{i}"), v, color=color)
    return b.build()


def double_edges(g):
    """Duplicate every standard edge with a parallel copy of the same type,
    color and direction."""
    b = GraphBuilder(g)
    for i, (h, k) in enumerate(g.edges):
        if g.edge_kind(h) != STANDARD:
            continue
        u, w = g.vertex_of(h), g.vertex_of(k)
        tail = u if h in g.tails else w if k in g.tails else None
        b.edge(b.fresh(f"dd{i}"), u, w, type=g.edge_type[h],
               color=g.color[h], tail=tail)
    return b.build()


def subdivided_cube():
    """Cube with one subdivided edge: hosts a 3-connected proper atom."""
    b = GraphBuilder()
    verts = [f"{i:03b}" for i in range(8)]
    for v in verts:
        b.vertex(v)
    b.vertex("m")
    k = 0
    for i, u in enumerate(verts):
        for w in verts[i + 1:]:
            if sum(a != c for a, c in zip(u, w)) == 1:
                if (u, w) == ("000", "001"):
                    continue
                b.edge(f"e{k}", u, w, type=UNDIRECTED)
                k += 1
    b.edge("s0", "000", "m")
    b.edge("s1", "m", "001")
    return b.build()


def asymmetric_arm_theta():
    """Three isomorphic asymmetric arms between u and v: each arm is
    u - x - y - v with a pendant edge at x."""
    b = GraphBuilder()
    b.vertex("u")
    b.vertex("v")
    n = 0
    for i in range(3):
        b.vertex(f"x{i}")
        b.vertex(f"y{i}")
        b.edge(f"e{n}", "u", f"x{i}"); n += 1
        b.edge(f"e{n}", f"x{i}", f"y{i}"); n += 1
        b.edge(f"e{n}", f"y{i}", "v"); n += 1
        b.pendant(f"p{i}", f"x{i}")
    return b.build()


def cycle_with_triangles(n=4):
    """A cycle with a pendant triangle at every vertex: block atoms that
    move under the rotations."""
    b = GraphBuilder()
    for i in range(n):
        b.vertex(f"v{i}")
    for i in range(n):
        b.edge(f"e{i}", f"v{i}", f"v{(i + 1) % n}")
    k = 0
    for i in range(n):
        b.vertex(f"t{i}a")
        b.vertex(f"t{i}b")
        b.edge(f"g{k}", f"v{i}", f"t{i}a"); k += 1
        b.edge(f"g{k}", f"v{i}", f"t{i}b"); k += 1
        b.edge(f"g{k}", f"t{i}a", f"t{i}b"); k += 1
    return b.build()


def antisymmetric_arm_pair():
    """Two flipped copies of an asymmetric arm between u and v plus a
    halvable edge: the boundary swap maps each arm onto the other, so the
    reduced directed edges pair into a directed loop in the quotients."""
    b = GraphBuilder()
    b.vertex("u")
    b.vertex("v")
    b.edge("m", "u", "v", type=HALVABLE)
    b.vertex("x1")
    b.vertex("y1")
    b.edge("a1", "u", "x1").edge("a2", "x1", "y1").edge("a3", "y1", "v")
    b.pendant("p1", "x1")
    b.vertex("x2")
    b.vertex("y2")
    b.edge("b1", "u", "x2").edge("b2", "x2", "y2").edge("b3", "y2", "v")
    b.pendant("p2", "y2")
    return b.build()


def lens_theta():
    """Three arms u - x - (two parallel 2-paths) - y - v: reduces through
    proper atoms, then dipoles, then halvable arms, then a dipole again."""
    b = GraphBuilder()
    b.vertex("u")
    b.vertex("v")
    n = 0
    for i in range(3):
        b.vertex(f"x{i}")
        b.vertex(f"y{i}")
        b.vertex(f"a{i}")
        b.vertex(f"b{i}")
        b.edge(f"e{n}", "u", f"x{i}"); n += 1
        b.edge(f"e{n}", f"y{i}", "v"); n += 1
        for mid in ("a", "b"):
            b.edge(f"e{n}", f"x{i}", f"{mid}{i}"); n += 1
            b.edge(f"e{n}", f"{mid}{i}", f"y{i}"); n += 1
    return b.build()


def reduction_showcase():
    """An 8-cycle core carrying four halvable dipoles, four symmetric
    pendant blocks (triangles), and four asymmetric proper atoms placed
    rotation-symmetrically, so the reduced graph keeps symmetries of
    order 4."""
    b = GraphBuilder()
    for i in range(8):
        b.vertex(f"v{i}")
    n = 0
    for i in (0, 2, 4, 6):  # dipoles of four parallel edges
        for j in range(4):
            b.edge(f"d{i}_{j}", f"v{i}", f"v{i + 1}", type=UNDIRECTED)
    for i in (1, 3, 5, 7):  # asymmetric arms v_i .. v_{i+1 mod 8}
        a, c = f"v{i}", f"v{(i + 1) % 8}"
        b.vertex(f"x{i}")
        b.vertex(f"y{i}")
        b.edge(f"a{n}", a, f"x{i}"); n += 1
        b.edge(f"a{n}", f"x{i}", f"y{i}"); n += 1
        b.edge(f"a{n}", f"y{i}", c); n += 1
        b.pendant(f"q{i}", f"x{i}")
    for i in (0, 2, 4, 6):  # pendant triangles
        b.vertex(f"t{i}a")
        b.vertex(f"t{i}b")
        b.edge(f"t{n}", f"v{i}", f"t{i}a"); n += 1
        b.edge(f"t{n}", f"v{i}", f"t{i}b"); n += 1
        b.edge(f"t{n}", f"t{i}a", f"t{i}b"); n += 1
    return b.build()


def with_loops(g, vertices, edge_type=UNDIRECTED, color=0):
    """A copy of g with one extra loop at each listed vertex."""
    b = GraphBuilder(g)
    for i, v in enumerate(vertices):
        b.loop(b.fresh(f"ll{i}"), v, type=edge_type, color=color)
    return b.build()


def expansion_corpus():
    """Named connected graphs (<= 12 vertices) for oracle-equivalence runs."""
    out = []

    def add(name, g):
        out.append((name, g))

    for n in range(2, 9):
        add(f"C{n}", cycle(n))
    for n in (4, 6, 8):
        add(f"C{n}h", cycle(n, HALVABLE))
    add("C6dir", _directed_cycle(6))
    add("theta111", theta(1, 1, 1))
    add("theta222", theta(2, 2, 2))
    add("theta222h", theta(2, 2, 2, edge_type=HALVABLE))
    add("theta122", theta(1, 2, 2))
    add("theta1111h", theta(1, 1, 1, 1, edge_type=HALVABLE))
    add("K4", complete(4))
    add("cube", cube())
    add("cubeh", cube(HALVABLE))
    add("K33", k33())
    add("prism3", prism(3))
    add("prism5", prism(5))
    add("petersen", petersen())
    add("ladder3", ladder(3))
    add("bowtie", bowtie())
    add("chain3", triangle_chain(3))
    add("book2", book(2))
    add("book3", book(3))
    add("book3h", book(3, edge_type=HALVABLE))
    add("C6pend", with_pendants(cycle(6), [f"v{i}" for i in range(6)]))
    add("C8altpend", with_pendants(cycle(8), ["v0", "v2", "v4", "v6"]))
    add("C4twopend", with_pendants(cycle(4), ["v0", "v0"]))
    add("C4opppend", with_pendants(cycle(4), ["v0", "v2"]))
    add("K4pend", with_pendants(complete(4), [f"v{i}" for i in range(4)]))
    add("D3", dipole([0, 0, 0]))
    add("D3u", dipole([0, 0, 0], [UNDIRECTED] * 3))
    add("D4", dipole([0, 0, 0, 0]))
    add("D22", dipole([0, 0, 1, 1]))
    add("D3pend", with_pendants(dipole([0, 0, 0], [UNDIRECTED] * 3), ["u", "v"]))
    add("C4double", double_edges(cycle(4)))
    add("C3doubleh", double_edges(cycle(3, HALVABLE)))
    add("subdivcube", subdivided_cube())
    add("asymtheta", asymmetric_arm_theta())
    add("C4loops", with_loops(cycle(4), [f"v{i}" for i in range(4)]))
    add("C4loopsh", with_loops(cycle(4, HALVABLE),
                               [f"v{i}" for i in range(4)], HALVABLE))
    add("thetaloops", with_loops(theta(1, 1, 1), ["u", "v"]))
    add("C4tri", cycle_with_triangles(4))
    add("asymloop", antisymmetric_arm_pair())
    add("icosa", icosahedron())
    return out


def _directed_cycle(n):
    b = GraphBuilder()
    for i in range(n):
        b.vertex(f"v{i}")
    for i in range(n):
        b.edge(f"e{i}", f"v{i}", f"v{(i + 1) % n}", type=DIRECTED,
               tail=f"v{i}")
    return b.build()


def random_instance(seed, max_vertices=12):
    """Seeded random small graph for the property suites."""
    rng = random.Random(seed)
    kind = rng.choice(["cycle", "theta", "dipole", "glued", "decorated"])
    et = rng.choice([UNDIRECTED, HALVABLE])
    if kind == "cycle":
        g = cycle(rng.randint(3, 8), et)
    elif kind == "theta":
        arms = [rng.randint(0, 2) for _ in range(rng.randint(3, 4))]
        while 2 + sum(arms) > max_vertices:
            arms.pop()
        if len(arms) < 3:
            arms = [1, 1, 1]
        g = theta(*arms, edge_type=et)
    elif kind == "dipole":
        k = rng.randint(2, 4)
        colors = [rng.randint(0, 1) for _ in range(k)]
        g = dipole(colors, [et] * k)
        if rng.random() < 0.7:
            g = with_pendants(g, ["u", "v"])
    elif kind == "glued":
        g = rng.choice([bowtie(), triangle_chain(2), book(2), book(3)])
    else:
        base = cycle(rng.randint(3, 6), et)
        spots = [f"v{rng.randrange(base.n_vertices)}"
                 for _ in range(rng.randint(1, 3))]
        g = with_pendants(base, spots)
    return g


@dataclass(frozen=True)
class FixtureCase:
    name: str
    provenance: str   # known / trivial / derived
    check: object     # callable returning (ok, message)


def _case_aut_order(build, expected):
    def check():
        from .groups import automorphism_group
        got = automorphism_group(build()).order
        return got == expected, f"|Aut| = {got}, expected {expected}"
    return check


def _case_cover(build_g, build_h, expect_yes):
    def check():
        from .quotient import regular_cover_test
        got = regular_cover_test(build_g(), build_h()) is not None
        return got == expect_yes, f"cover = {got}, expected {expect_yes}"
    return check


def _case_primitive(build, tag):
    def check():
        from .atoms import classify_primitive
        got = classify_primitive(build()).tag
        return got == tag, f"primitive class = {got}, expected {tag}"
    return check


def fixture_cases():
    return [
        FixtureCase("aut-k4", "known",
                    _case_aut_order(lambda: complete(4), 24)),
        FixtureCase("aut-cube", "known",
                    _case_aut_order(lambda: cube(), 48)),
        FixtureCase("aut-c6", "trivial",
                    _case_aut_order(lambda: cycle(6), 12)),
        FixtureCase("cover-cube-k4", "known",
                    _case_cover(lambda: cube(), lambda: complete(4), True)),
        FixtureCase("cover-k4-cube", "trivial",
                    _case_cover(lambda: complete(4), lambda: cube(), False)),
        FixtureCase("cover-c6-c3", "trivial",
                    _case_cover(lambda: cycle(6), lambda: cycle(3), True)),
        FixtureCase("primitive-cube", "known",
                    _case_primitive(lambda: cube(), "three_connected")),
        FixtureCase("primitive-c5", "known",
                    _case_primitive(lambda: cycle(5), "cycle")),
        FixtureCase("primitive-k2", "known",
                    _case_primitive(lambda: path_graph(2), "k2")),
        FixtureCase("primitive-theta", "derived",
                    _case_primitive(lambda: theta(2, 2, 2), "not_primitive")),
    ]


def run_fixture_cases(report=print):
    failures = 0
    for case in fixture_cases():
        ok, msg = case.check()
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        report(f"{status} {case.name} [{case.provenance}] {msg}")
    return failures


def run_random_checks(seed, count=20):
    """Seeded random instances: validation plus atom interior disjointness."""
    from .atoms import find_atoms
    bad = 0
    for i in range(count):
        g = normalize(random_instance(seed * 10007 + i))
        atoms = find_atoms(g)
        overlap = any((a.interior_vertices & b.interior_vertices)
                      or (a.ref.darts & b.ref.darts)
                      for a, b in itertools.combinations(atoms, 2))
        if validate(g) or overlap:
            bad += 1
    status = "PASS" if bad == 0 else "FAIL"
    print(f"{status} random-instances [derived] {count} seeded graphs "
          f"(seed {seed}), {bad} violations")
    return bad
