"""Acceptance suite: one test per criterion, each printing a PASS line.

Runnable under pytest (`pytest tests/test_acceptance.py -v -s`) or directly
(`python tests/test_acceptance.py`).
"""

import sys
import time

from regcover.atoms import find_atoms
from regcover.fixtures import (complete, cube, cycle, dipole,
                               expansion_corpus, with_pendants)
from regcover.graph import (HALVABLE, UNDIRECTED, is_cycle,
                            is_path_with_two_halfedges, normalize)
from regcover.groups import (automorphism_group,
                             conjugacy_classes_of_subgroups,
                             semiregular_subgroups, semiregularity_violation,
                             subgroup_order_histogram)
from regcover.iso import canonical_form
from regcover.quotient import (all_quotients, atom_quotients, expansion_chain,
                               quotient, regular_cover_test)
from regcover.reduction import (kernel_order, reduction_epimorphism,
                                reduction_series)

from helpers import is_identity


def _report(n, message, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {n} PASS ({elapsed:.2f}s): {message}")


def test_criterion_1_platonic_group_orders():
    t = time.time()
    k4 = automorphism_group(complete(4)).order
    assert k4 == 24
    _report("1a", f"|Aut(K4)| = {k4}", t, 1.0)
    t = time.time()
    q3 = automorphism_group(cube()).order
    assert q3 == 48
    _report("1b", f"|Aut(cube)| = {q3}", t, 1.0)


def test_criterion_2_subgroup_table():
    t = time.time()
    aut = automorphism_group(complete(4))
    hist = subgroup_order_histogram(conjugacy_classes_of_subgroups(aut))
    expected = {1: 1, 2: 2, 3: 1, 4: 3, 6: 1, 8: 1, 12: 1}
    assert hist == {**expected, 24: 1}
    _report(2, f"S4 subgroup classes by order = {expected} plus the full group",
            t, 1.0)


def test_criterion_3_cover_decision():
    t = time.time()
    witness = regular_cover_test(cube(), complete(4))
    assert witness is not None and witness.order == 2
    assert all(semiregularity_violation(witness.graph, p) is None
               for p in witness)
    recomputed = quotient(cube(), witness).result
    from regcover.iso import are_isomorphic
    assert are_isomorphic(recomputed, complete(4)) is not None
    assert regular_cover_test(complete(4), cube()) is None
    _report(3, "cube covers K4 (verified order-2 witness); K4 does not "
               "cover the cube", t, 1.0)


def _dipole_atom(colors):
    host = with_pendants(dipole(colors), ["u", "v"])
    (a,) = [x for x in find_atoms(host) if x.kind == "dipole"]
    return a


def test_criterion_4_dipole_half_quotients():
    t = time.time()
    for e in range(2, 9):
        got = len(atom_quotients(_dipole_atom([0] * e)).half_quotients)
        assert got == e // 2 + 1, (e, got)
    got = len(atom_quotients(_dipole_atom([0, 0, 1, 1])).half_quotients)
    assert got == 4
    for k in range(1, 5):
        colors = [i for i in range(k) for _ in range(2)]
        got = len(atom_quotients(_dipole_atom(colors)).half_quotients)
        assert got == 2 ** k
    _report(4, "half-quotient counts: floor(e/2)+1 for e=2..8, 4 for 2+2, "
               "2^k for k color pairs", t, 5.0)


def test_criterion_5_and_6_oracle_equivalence_and_order_law():
    t = time.time()
    corpus = [(name, normalize(g)) for name, g in expansion_corpus()]
    assert len(corpus) >= 30
    assert all(g.n_vertices <= 12 for _, g in corpus)
    for name, g in corpus:
        bf = {canonical_form(q) for q in all_quotients(g, "bruteforce")}
        red = {canonical_form(q) for q in all_quotients(g, "reduction")}
        assert bf == red, name
        series = reduction_series(g)
        for step in series.steps:
            aut_s = automorphism_group(step.source)
            a_src = aut_s.order
            a_tgt = automorphism_group(step.target).order
            ker = len([p for p in aut_s
                       if is_identity(reduction_epimorphism(step, p))])
            assert a_src == a_tgt * ker, name
            assert ker == kernel_order(step), name
    _report("5+6", f"bruteforce and reduction quotient sets equal on "
                   f"{len(corpus)} graphs; |Aut(G_i)| = |Aut(G_i+1)| * |Ker| "
                   f"with |Ker| = prod |Fix(A)| at every step", t, 300.0)


def test_criterion_7_primitive_classification():
    t = time.time()
    for name, g in expansion_corpus():
        g = normalize(g)
        series = reduction_series(g)
        cls = series.primitive
        assert cls.is_primitive, name
        assert cls.admitted, (name, cls)
    for n in range(2, 9):
        assert reduction_series(cycle(n)).depth == 0
    assert reduction_series(dipole([0], [UNDIRECTED])).depth == 0
    _report(7, "every series ends in an admitted primitive shape; cycles "
               "and K2 are fixed points", t, 10.0)


def test_criterion_8_odd_order_unique_expansion():
    t = time.time()
    checked = 0
    for name, g in expansion_corpus():
        g = normalize(g)
        series = reduction_series(g)
        g_r = series.graphs[-1]
        for gamma in semiregular_subgroups(g_r):
            if gamma.order % 2 == 0:
                continue
            h_r = quotient(g_r, gamma).result
            levels = expansion_chain(h_r, series)
            assert all(len(level) == 1 for level in levels), name
            checked += 1
    assert checked > 0
    _report(8, f"odd-order primitive quotients expand uniquely "
               f"({checked} chains)", t, 300.0)


def test_criterion_9_cycle_quotients():
    t = time.time()
    for n in range(2, 13):
        for et in (UNDIRECTED, HALVABLE):
            for q in all_quotients(cycle(n, et)):
                cyc = is_cycle(q)
                path2h = is_path_with_two_halfedges(q)
                assert cyc or path2h, (n, et)
                if path2h:
                    assert n % 2 == 0 and et == HALVABLE, (n, et)
    _report(9, "cycle quotients are cycles or two-half-edge paths; "
               "half-edges only for even n with halvable edges", t, 10.0)


def test_criterion_10_property_suites():
    t = time.time()
    import test_properties as props
    props.test_instances_are_valid_and_desk_scale()
    props.test_atom_disjointness_properties()
    props.test_atom_set_equivariance()
    props.test_fiber_sizes_and_local_bijectivity()
    _report(10, f"atom disjointness, equivariance, fiber law and local "
                f"bijectivity hold on {props.N_INSTANCES} seeded instances",
            t, 120.0)


def _main():
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"ACCEPTANCE FAIL in {name}: {exc}")
    if failures:
        print(f"{failures} criteria failed")
        return 1
    print("all acceptance criteria passed")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    sys.exit(_main())
