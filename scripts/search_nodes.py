#!/usr/bin/env python3
"""Final-level canonical searches of the reduction route, seeded and not.

    python3 scripts/search_nodes.py [repeats]    # default: 5

For each graph with |Aut| above the group-order cap (the benchmark's
beyond-cap inputs), read back from its serialized text, this runs
`all_quotients(G, via="reduction")` and measures the canonical searches
that deduplicate the last level of expansions, the one that lists G's
quotients: their search nodes (refinements made by the search) and the
best of `repeats` wall times, in milliseconds.  It does so twice: as the
library runs, where each expanded graph's search starts from the
automorphisms its expansion knows (`quotient._expansion_automorphisms`),
and with that provider patched to give nothing.  Outputs are the same
either way; only the search effort differs.

Beside them it counts, over the whole pass, the boundary-marked canonical
searches `find_atoms` runs to sort the atoms and the atom forms it takes
from an isomorphic atom of the same level instead, through a checked map
(`iso.transfer_form`).
"""

import importlib
import sys
import time

from regcover import atoms, iso
from regcover.fixtures import (book, cycle, cycle_with_triangles, dipole,
                               theta, with_pendants)
from regcover.graph import HALVABLE, normalize
from regcover.textfmt import parse, serialize

quotient = importlib.import_module("regcover.quotient")


def beyond_cap_graphs():
    def two_pendants(n):
        return with_pendants(
            cycle(n), [f"v{i}" for i in range(n) for _ in range(2)])

    return [
        ("theta1x7", theta(*[1] * 7)),
        ("theta2x6", theta(*[2] * 6)),
        ("C6tri", cycle_with_triangles(6)),
        ("book6", book(6)),
        ("theta1x6", theta(*[1] * 6)),
        ("theta3x5", theta(*[3] * 5)),
        ("theta2x5h", theta(*[2] * 5, edge_type=HALVABLE)),
        ("book5", book(5)),
        ("D6", dipole([0] * 6)),
        ("C6twopend", two_pendants(6)),
        ("C8twopend", two_pendants(8)),
    ]


def final_level(text, count):
    """(search nodes or None, seconds) of the last `_dedup_sorted` call of
    the reduction route on the graph `text`; nodes only when `count`."""
    # [nodes, seconds] per deduplication in call order, after the
    # searches made before the first
    levels = [[0, 0.0]]
    refine, dedup = iso._refine, quotient._dedup_sorted

    def counting(g, colors):
        if sys._getframe(1).f_code.co_name == "search":
            levels[-1][0] += 1
        return refine(g, colors)

    def timed(graphs):
        levels.append([0, 0.0])
        start = time.perf_counter()
        out = dedup(graphs)
        levels[-1][1] = time.perf_counter() - start
        return out

    quotient._dedup_sorted = timed
    if count:
        iso._refine = counting
    try:
        quotient.all_quotients(normalize(parse(text)), via="reduction")
    finally:
        iso._refine, quotient._dedup_sorted = refine, dedup
    nodes, seconds = levels[-1]
    return (nodes if count else None), seconds


def atom_forms(run):
    """(searched, transferred) while run() runs: the graph of each
    boundary-marked search `find_atoms` runs to sort atoms, and the
    (source, member, source boundary, member boundary) of each form
    `iso.transfer_form` writes instead of a search."""
    searched, transferred, inside = [], [], []
    find, best_leaf, transfer = (atoms._find_atoms, iso._best_leaf,
                                 atoms.transfer_form)

    def finding(g):
        inside.append(g)
        try:
            return find(g)
        finally:
            inside.pop()

    def searching(g, marking, ordered_marking):
        if inside:
            searched.append(g)
        return best_leaf(g, marking, ordered_marking)

    def transferring(g1, g2, vmap, dmap, marking1, marking2):
        ok = transfer(g1, g2, vmap, dmap, marking1, marking2)
        if ok:
            transferred.append((g1, g2, marking1, marking2))
        return ok

    atoms._find_atoms, iso._best_leaf = finding, searching
    atoms.transfer_form = transferring
    try:
        run()
    finally:
        atoms._find_atoms, iso._best_leaf = find, best_leaf
        atoms.transfer_form = transfer
    return searched, transferred


def measure(text, repeats):
    nodes = final_level(text, True)[0]
    seconds = min(final_level(text, False)[1] for _ in range(repeats))
    return nodes, seconds


def main():
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    print(f"{'graph':<11} {'nodes':>7} {'unseeded':>9} "
          f"{'ms':>7} {'unseeded':>9} {'atoms searched':>15} "
          f"{'transferred':>12}")
    provide = quotient._expansion_automorphisms
    totals = [0, 0, 0, 0]
    for name, g in beyond_cap_graphs():
        text = serialize(g)
        seeded = measure(text, repeats)
        quotient._expansion_automorphisms = lambda *args: []
        try:
            unseeded = measure(text, repeats)
        finally:
            quotient._expansion_automorphisms = provide
        searched, transferred = map(len, atom_forms(
            lambda: quotient.all_quotients(normalize(parse(text)),
                                           via="reduction")))
        for i, n in enumerate((seeded[0], unseeded[0], searched,
                               transferred)):
            totals[i] += n
        print(f"{name:<11} {seeded[0]:>7} {unseeded[0]:>9} "
              f"{seeded[1] * 1e3:>7.2f} {unseeded[1] * 1e3:>9.2f} "
              f"{searched:>15} {transferred:>12}")
    print(f"{'total':<11} {totals[0]:>7} {totals[1]:>9} {'':>7} {'':>9} "
          f"{totals[2]:>15} {totals[3]:>12}")


if __name__ == "__main__":
    main()
