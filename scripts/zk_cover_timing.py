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
lists.  Each time is the best of REPEATS runs in this process, each on
a cover built afresh, so no run reads what an earlier one kept.
"""

import random
import sys
import time

from regcover.fixtures import petersen
from regcover.graph import GraphBuilder
from regcover.iso import count_automorphisms
from regcover.quotient import all_quotients, regular_cover_test

REPEATS = 3


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


def best_ms(run, inputs):
    """Least milliseconds of run(x) over `inputs`, and the last result."""
    times = []
    for x in inputs:
        t0 = time.perf_counter()
        out = run(x)
        times.append((time.perf_counter() - t0) * 1e3)
    return min(times), out


def main(ks):
    h = petersen()
    for k in ks:
        # a graph per run and per call, so that none reads what another kept
        covers = [zk_cover(k) for _ in range(REPEATS)]
        cover_ms, witness = best_ms(lambda g: regular_cover_test(g, h),
                                    covers)
        brute_ms, quotients = best_ms(all_quotients,
                                      [zk_cover(k) for _ in range(REPEATS)])
        g = covers[-1]
        print(f"Z{k}: {g.n_vertices} vertices, |Aut| "
              f"{count_automorphisms(g)}, cover test {cover_ms / 1e3:.2f} s "
              f"(witness order {witness.order}), bruteforce quotients "
              f"{brute_ms / 1e3:.2f} s ({len(quotients)} listed)")


if __name__ == "__main__":
    main([int(k) for k in sys.argv[1:]] or [32, 64, 128])
