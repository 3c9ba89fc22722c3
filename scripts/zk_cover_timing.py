#!/usr/bin/env python3
"""Cover test and bruteforce quotients on Z_k covers of the Petersen graph.

    python3 scripts/zk_cover_timing.py [k ...]    # default: 32 64 128

Each cover is the derived graph of a voltage assignment in Z_k on
Petersen's standard edges, drawn at random with seed 3: vertex (v, i) is
joined to (w, i + a) for each edge vw of voltage a.  Z_k acts on the
fibres by adding to i, so the cover has 10k vertices and Petersen is a
regular quotient of it.  Each line gives the order of Aut(G), the seconds
`regular_cover_test(G, Petersen)` takes and the order of its witness, and
the seconds the bruteforce `all_quotients(G)` takes and the quotients it
lists.  The times are wall times of one run in this process.
"""

import random
import sys
import time

from regcover.fixtures import petersen
from regcover.graph import GraphBuilder
from regcover.iso import count_automorphisms
from regcover.quotient import all_quotients, regular_cover_test


def zk_cover(k, seed=3):
    """The Z_k cover of Petersen with random voltages drawn from `seed`."""
    h = petersen()
    rng = random.Random(seed)
    b = GraphBuilder()
    for v in h.vertex_list:
        for i in range(k):
            b.vertex(f"{v}.{i}")
    for n, (d, m) in enumerate(h.edges):
        u, w, a = h.vertex_of(d), h.vertex_of(m), rng.randrange(k)
        for i in range(k):
            b.edge(f"e{n}.{i}", f"{u}.{i}", f"{w}.{(i + a) % k}")
    return b.build()


def main(ks):
    h = petersen()
    for k in ks:
        # a graph apiece, so that neither call reads what the other kept
        g1, g2 = zk_cover(k), zk_cover(k)
        t0 = time.perf_counter()
        witness = regular_cover_test(g1, h)
        t1 = time.perf_counter()
        quotients = all_quotients(g2)
        t2 = time.perf_counter()
        print(f"Z{k}: {g1.n_vertices} vertices, |Aut| "
              f"{count_automorphisms(g1)}, cover test {t1 - t0:.2f} s "
              f"(witness order {witness.order}), bruteforce quotients "
              f"{t2 - t1:.2f} s ({len(quotients)} listed)")


if __name__ == "__main__":
    main([int(k) for k in sys.argv[1:]] or [32, 64, 128])
