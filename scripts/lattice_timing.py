#!/usr/bin/env python3
"""Multiplication table and subgroup class search of a few Aut(G).

    python3 scripts/lattice_timing.py [repeats]    # default: 3

For Petersen (S5), prism(60), K6 (S6) and book(6) (|Aut| 1,440), each
line gives the order of Aut(G), the rows of its multiplication table that
were looked up (a generating set's) against those composed of them, the
milliseconds `Group.table` takes, and the milliseconds and result of
`conjugacy_classes_of_subgroups` once the table is built (book(6): table
only).  Every time is the best of `repeats` runs in this process, each on
a group listed afresh, so no run reads what an earlier one kept.
"""

import sys
import time

from regcover.fixtures import book, complete, petersen, prism
from regcover.groups import (_generating_set, automorphism_group,
                             conjugacy_classes_of_subgroups)

# (name, graph, whether its subgroup classes are searched)
GRAPHS = [("Petersen", petersen, True),
          ("prism(60)", lambda: prism(60), True),
          ("K6", lambda: complete(6), True),
          ("book(6)", lambda: book(6), False)]


def best_ms(run, auts):
    """Least milliseconds of run(aut) over `auts`, listings of one group,
    and the last result."""
    times = []
    for aut in auts:
        t0 = time.perf_counter()
        out = run(aut)
        times.append((time.perf_counter() - t0) * 1e3)
    return min(times), out


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


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
