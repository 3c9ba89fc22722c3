"""Randomized structural property suite over seeded instances.

200 seeded random graphs: atom interiors are pairwise disjoint, atoms
overlap only in boundaries, the atom set is automorphism-equivariant,
quotient fibers all have the group's size, and projections are locally
bijective.
"""

import itertools

from regcover.atoms import find_atoms
from regcover.fixtures import random_instance
from regcover.graph import normalize, point_maps, validate
from regcover.groups import automorphism_group, semiregular_subgroups
from regcover.quotient import quotient

N_INSTANCES = 200


def _instances():
    for seed in range(N_INSTANCES):
        yield seed, normalize(random_instance(seed))


def test_instances_are_valid_and_desk_scale():
    for seed, g in _instances():
        assert validate(g) == [], seed
        assert g.n_vertices <= 12, seed


def test_atom_disjointness_properties():
    for seed, g in _instances():
        atoms = find_atoms(g)
        for a, b in itertools.combinations(atoms, 2):
            assert not (a.interior_vertices & b.interior_vertices), seed
            assert not (a.ref.darts & b.ref.darts), seed
            shared = a.ref.vertices & b.ref.vertices
            assert shared == set(a.boundary) & set(b.boundary), seed


def test_atom_set_equivariance():
    for seed, g in _instances():
        atoms = find_atoms(g)
        if not atoms:
            continue
        atom_sets = {a.ref.darts for a in atoms}
        boundaries = {a.ref.darts: set(a.boundary) for a in atoms}
        for p in automorphism_group(g, max_order=None):
            vm, dm = point_maps(g, p)
            for a in atoms:
                image = frozenset(dm[h] for h in a.ref.darts)
                assert image in atom_sets, seed
                assert {vm[x] for x in a.boundary} == boundaries[image], seed


def test_fiber_sizes_and_local_bijectivity():
    for seed, g in _instances():
        for gamma in semiregular_subgroups(g, max_order=None):
            q = quotient(g, gamma)
            fibers = {}
            for v in g.vertex_list:
                fibers.setdefault(q.vertex_map[v], []).append(v)
            assert all(len(f) == gamma.order for f in fibers.values()), seed
            dfibers = {}
            for h in g.dart_list:
                dfibers.setdefault(q.dart_map[h], []).append(h)
            assert all(len(f) == gamma.order for f in dfibers.values()), seed
            for v in g.vertex_list:
                images = [q.dart_map[h] for h in g.darts_at(v)]
                assert len(set(images)) == len(images), seed
                assert set(images) == set(
                    q.result.darts_at(q.vertex_map[v])), seed
