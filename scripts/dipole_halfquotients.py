#!/usr/bin/env python3
"""Half-quotient counts of dipoles.

A single-color dipole with e halvable edges has floor(e/2)+1 half-quotients
(choose the number of loops); pairing up colors pushes the count to the
2^(e/2) ceiling.  Each line also gives the boundary-swapping involutions
listed and the quotients built from them, one per involution.  The atom
lists only the first involution of each class under conjugation by the
automorphisms fixing every vertex, so the involution column counts class
firsts: 5 on the single-color e=8 dipole, of 764 involutions in all.
"""

import importlib

from regcover.atoms import find_atoms
from regcover.fixtures import dipole, with_pendants
from regcover.quotient import atom_quotients

# the module, not the function of the same name the package exports
QUOTIENT = importlib.import_module("regcover.quotient")


def dipole_atom(colors):
    host = with_pendants(dipole(colors), ["u", "v"])
    (a,) = [x for x in find_atoms(host) if x.kind == "dipole"]
    return a


def counts(colors):
    """(half-quotients, involutions listed, quotients built) of a dipole."""
    a = dipole_atom(colors)
    build, built = QUOTIENT.quotient, []

    def counting(g, gamma):
        built.append(gamma)
        return build(g, gamma)

    QUOTIENT.quotient = counting
    try:
        n = len(atom_quotients(a).half_quotients)
    finally:
        QUOTIENT.quotient = build
    return n, len(a.swap_involutions()), len(built)


def main():
    print("single color class:")
    for e in range(2, 9):
        n, listed, built = counts([0] * e)
        print(f"  e={e}: {n} half-quotients (bound 2^{e // 2} = "
              f"{2 ** (e // 2)}); {listed} involutions, {built} quotients "
              f"built")
    print("paired colors (k pairs of 2):")
    for k in range(1, 5):
        colors = [i for i in range(k) for _ in range(2)]
        n, listed, built = counts(colors)
        print(f"  k={k} (e={2 * k}): {n} half-quotients = 2^{k}; "
              f"{listed} involutions, {built} quotients built")


if __name__ == "__main__":
    main()
