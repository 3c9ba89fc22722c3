#!/usr/bin/env python3
"""Walk a reduction series and its expansion on a showcase graph.

The graph is an 8-cycle carrying three atom classes (halvable dipoles,
symmetric pendant triangles, asymmetric decorated arms); one step reduces
it to a primitive decorated cycle.
"""

from regcover.dot import reduction_tree_to_dot
from regcover.fixtures import reduction_showcase, theta
from regcover.graph import HALVABLE
from regcover.groups import automorphism_group
from regcover.iso import canonical_form
from regcover.quotient import all_quotients
from regcover.reduction import kernel_order, reduction_series


def main():
    g = reduction_showcase()
    series = reduction_series(g)
    print(f"showcase graph: {g}")
    for i, step in enumerate(series.steps):
        print(f"step {i}: {step.source.n_darts} -> {step.target.n_darts} darts")
        for cls in step.classes:
            print(f"  class color={cls.color}: {cls.rep.kind}, "
                  f"{cls.rep.symmetry}, {len(cls.members)} atoms")
    print(f"primitive: {series.primitive.tag}({series.primitive.n})")
    print(f"|Aut(G_1)| = {automorphism_group(series.graphs[-1]).order}, "
          f"|Ker| = {kernel_order(series.steps[0])}")
    print()
    print(reduction_tree_to_dot(series))

    h = theta(2, 2, 2, edge_type=HALVABLE)
    bf = all_quotients(h, "bruteforce")
    red = all_quotients(h, "reduction")
    same = {canonical_form(q) for q in bf} == {canonical_form(q) for q in red}
    print(f"theta oracle check: {len(bf)} quotients either way, equal: {same}")


if __name__ == "__main__":
    main()
