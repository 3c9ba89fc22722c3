#!/usr/bin/env python3
"""Multiplication table, subgroup class search and semiregular search of a
few Aut(G).

    python3 scripts/lattice_timing.py [repeats]    # default: 3

For Petersen (S5), prism(60), K6 (S6) and book(6) (|Aut| 1,440), each
line gives the order of Aut(G), the rows of its multiplication table that
were looked up (a generating set's) against those composed of them, the
milliseconds `Group.table` takes, and the milliseconds and result of
`conjugacy_classes_of_subgroups` once the table is built (book(6): table
only).  Every time is the best of `repeats` runs in this process, each on
a group listed afresh, so no run reads what an earlier one kept.

For the Z32 and Z128 covers of Petersen (`zk_cover_timing.zk_cover`),
each line gives the milliseconds of the semiregular search with no order
(`groups._semiregular_lattice`) once the stabilizer chain is built, the
best of `repeats` runs, each with the search's kept result dropped, next
to the work of one more run: the tuples t*k it built, the dart walks it
made (`_shared_cycle_length` calls with the mates) and the members x for
which <x> is semiregular.

For K7 (S7, 5,040 automorphisms, with no cap: `_semiregular_lattice`
takes no `max_order`), the last line gives the milliseconds of the
semiregular search of order 7, a prime, once the stabilizer chain is
built, the best of `repeats` runs, with its members, subgroups and
classes.
"""

import sys

from regcover import groups
from regcover.fixtures import book, complete, petersen, prism
from regcover.groups import (_generating_set, automorphism_group,
                             conjugacy_classes_of_subgroups)
from regcover.iso import chain_cosets
from zk_cover_timing import best_ms, zk_cover

# (name, graph, whether its subgroup classes are searched)
GRAPHS = [("Petersen", petersen, True),
          ("prism(60)", lambda: prism(60), True),
          ("K6", lambda: complete(6), True),
          ("book(6)", lambda: book(6), False)]


def main(repeats):
    for name, build, search in GRAPHS:
        g = build()

        def fresh():
            return [automorphism_group(g, max_order=None)
                    for _ in range(repeats)]

        table_ms, _ = best_ms(lambda aut: aut.table, fresh())
        auts = fresh()
        gens = _generating_set(auts[0])
        line = (f"{name}: |Aut| {auts[0].order}, rows looked up {len(gens)}, "
                f"composed {auts[0].order - 1 - len(gens)}, "
                f"table {table_ms:.1f} ms")
        if search:
            for aut in auts:
                aut.table
            search_ms, classes = best_ms(
                lambda aut: conjugacy_classes_of_subgroups(aut, max_order=None),
                auts)
            line += (f", class search {search_ms:.1f} ms ({len(classes)} "
                     f"classes, {sum(map(len, classes))} subgroups)")
        print(line)
    for k in (32, 128):
        g = zk_cover(k)
        chain_cosets(g)
        search_ms, (members, _, _) = best_ms(semiregular_search,
                                             [g] * repeats)
        built, walks = search_work(g)
        print(f"Z{k} cover of Petersen: {g.n_vertices} vertices, "
              f"semiregular search {search_ms:.1f} ms, {built} tuples "
              f"built, {walks} dart walks, {members} members")
    g = complete(7)
    chain_cosets(g)
    search_ms, (members, subgroups, classes) = best_ms(
        lambda g: semiregular_search(g, 7), [g] * repeats)
    print(f"K7: semiregular search of order 7 {search_ms:.1f} ms, "
          f"{members} members, {subgroups} subgroups, {classes} classes")


def semiregular_search(g, order=None):
    """The numbers of members, subgroups and classes of a fresh
    semiregular search of g."""
    g.__dict__.pop("_semiregular_lattices", None)
    return tuple(map(len, groups._semiregular_lattice(g, order)))


def search_work(g, order=None):
    """(tuples t*k built, dart walks) of a fresh semiregular search of g:
    a kernel element read past the identity builds one tuple, as t*1 is t
    itself, and a walk is a call of `_shared_cycle_length` with the
    mates."""
    work = [0, 0]
    kernel, cycles = groups.chain_kernel, groups._shared_cycle_length

    class Counting(list):
        def __getitem__(self, i):
            got = super().__getitem__(i)
            return Counting(got) if isinstance(i, slice) else got

        def __iter__(self):
            for k in super().__iter__():
                work[0] += 1
                yield k

    def counting_cycles(x, points, order=None, mates=(), n=0):
        work[1] += bool(mates)
        return cycles(x, points, order, mates, n)

    groups.chain_kernel = lambda g: Counting(kernel(g))
    groups._shared_cycle_length = counting_cycles
    try:
        semiregular_search(g, order)
    finally:
        groups.chain_kernel, groups._shared_cycle_length = kernel, cycles
    return tuple(work)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
