"""Automorphism groups: read off a stabilizer chain, or listed as sets of
image tuples where a subgroup search needs every element.

A group element is one tuple over the graph's points (`graph.point_index`):
the point number of each point's image, as the stabilizer chain builds
it, and there is no second permutation form.  (a * b)[p] = a[b[p]].
Tuples order elements by their vertex images first, and the orbits of
either domain are closures over points.  `graph.point_images` and
`graph.point_maps` convert between a tuple and a vertex map and dart map.

`automorphism_group` multiplies out a stabilizer chain: one automorphism
per coset of each point stabilizer along the canonical search's first
path, and the automorphisms fixing every vertex.  The order, the product of the
coset counts and the kernel's size (`iso.chain_order`), is known before
any element is built.  `count_automorphisms`, which lives next to the item
index in `iso`, takes its count from the same chain, so a count never
builds a permutation either.  `chain_generators` reads a generating set
off that chain as it is, and `orbits` closes points under any image
tuples, so the order and the orbits of Aut(g) need no listing.

`semiregular_subgroups` lists no Aut(g): it reads the chain's products
as image tuples, keeps those that generate a semiregular group, and
builds a `Group` only for each subgroup it returns.

Groups are stored extensionally.  Each group picks a base once: a short
list of points whose images tell all of its elements apart.
A product a*b is then found by looking up a's images of b's base images,
so the multiplication table is built without composing whole
permutations.  Subgroup enumeration works in index space over that table:
every subgroup found keeps a generator tuple, and <S, x> is closed by
right-multiplying one representative per right coset of S with the
generators of S plus x only (Dimino's method).  Each S is extended by one
x per class of elements that give the same <S, x>: the union of the
double cosets S*x^k*S over k prime to the order of x.  The semiregular
search builds a partial table over the elements that generate a
semiregular group alone, where a product outside that set is None; a
class with a None power or product is skipped unclosed.  Asked for one
order k, it keeps only those elements whose order divides k, and it
extends no subgroup of order k, as no larger one has an order dividing k.

Every lattice, the full group's and the semiregular one, is searched one
conjugacy class at a time (Neubüser's cyclic extension of class
representatives): only the first subgroup found in a class is extended,
and each new subgroup's whole class, its orbit under conjugation by a
generating set of the group, is registered when it is found.  That
search is complete when the listed elements are closed under
conjugation: if U = <U', x> and U' = g*R*g^-1 for a representative R,
then U = g*<R, g^-1*x*g>*g^-1, so R's extensions reach a conjugate of U.
Conjugation is one position map per generator over the listed elements
(`_conjugations`); the full lattice conjugates by a greedy generating set
of the group, the semiregular one by the stabilizer chain's generators
(`chain_generators`).

Conjugate semiregular subgroups give isomorphic quotients, so the quotient
layer takes the first subgroup of each registered class
(`semiregular_class_representatives`).  `element_class_firsts` does the
same for single elements, as orbits of those position maps: the quotient
layer takes with it one boundary-swapping involution of an atom per class.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import compress
from operator import eq, itemgetter

from .errors import GraphError, InternalError, size_limit
from .graph import HALVABLE, cached, point_index, point_maps
from .iso import (chain_order, chain_products, count_automorphisms,
                  kernel_images, orbit_closure, stabilizer_chain,
                  verify_isomorphism)

MAX_GROUP_ORDER = 200


def _mate_points(g):
    """Per dart of g, in `dart_list` order, the point of its mate when the
    two darts form a non-halvable edge, else -1: a permutation reverses
    such an edge when a dart's image is this point.  Kept on g as
    `_mate_points` (see `graph.cached`)."""
    return cached(g, "_mate_points", _index_mates)


def _index_mates(g):
    didx = point_index(g)[1]
    return tuple(didx[g.pairing[h]]
                 if g.pairing[h] != h and g.edge_type.get(h) != HALVABLE
                 else -1 for h in g.dart_list)


def _violating_point(images, nv, mates):
    """None when the permutation `images` is the identity, or fixes no
    point and reverses no non-halvable edge (`mates`, see `_mate_points`);
    else the first point it fixes or, with none fixed, the first dart it
    maps onto its mate.  `nv` is the number of vertex points."""
    points = range(len(images))
    i = next(compress(points, map(eq, images, points)), None)
    if i is not None:
        return None if i == 0 and images == tuple(points) else i
    return next(compress(points[nv:], map(eq, images[nv:], mates)), None)


def semiregularity_violation(g, images):
    """None, or a string explaining the non-trivial stabilizer of the
    automorphism of g with image tuple `images`."""
    nv = len(g.vertex_list)
    i = _violating_point(images, nv, _mate_points(g))
    if i is None:
        return None
    if images[i] != i:
        h = g.dart_list[i - nv]
        return (f"swaps the darts of non-halvable edge "
                f"{h!r}/{g.pairing[h]!r}")
    if i < nv:
        return f"fixes vertex {g.vertex_list[i]!r}"
    return f"fixes dart {g.dart_list[i - nv]!r}"


def _greedy_base(images):
    """Points whose images tell all the image tuples apart, picked
    greedily: each point, in order, that tells more of them apart."""
    distinct = 1
    base = []
    for point in range(len(images[0])):
        if distinct == len(images):
            break
        n = len(set(map(itemgetter(*base, point), images)))
        if n > distinct:
            base.append(point)
            distinct = n
    return tuple(base)


def _product_table(images, base):
    """Multiplication table over the image tuples, by their positions;
    None where a product is not among them.  `base` tells apart the
    elements of a group that holds the tuples, products included.

    (a * b)(p) = a(b(p)), so the base images of a * b are a's images of
    b's base images.
    """
    if not base:
        return [(0,)]
    key = itemgetter(*base)
    position = {key(img): k for k, img in enumerate(images)}.get
    times = [itemgetter(*[img[p] for p in base]) for img in images]
    return [tuple([position(b(img)) for b in times]) for img in images]


class Group:
    """A closed set of automorphisms of one graph, identity included.

    `elements` are the automorphisms' image tuples over the graph's points
    (see `graph.point_index`), sorted.  With `verify`, each element is
    checked to be an automorphism of the graph and the set to be closed;
    a caller that builds elements from a stabilizer chain passes False.
    """

    def __init__(self, graph, elements, verify=True):
        self.graph = graph
        # sorted input, as from `subgroup`, costs one comparison an element
        self.elements = tuple(sorted(dict.fromkeys(map(tuple, elements))))
        n = len(graph.vertex_list) + len(graph.dart_list)
        if any(len(x) != n for x in self.elements):
            raise GraphError(f"group element is not a tuple over the "
                             f"graph's {n} points")
        if tuple(range(n)) not in self.elements:
            raise GraphError("group must contain the identity")
        if verify:
            self.check_closure()

    def check_closure(self):
        """GraphError unless every element is an automorphism of the graph
        and every product is an element; a finite set of permutations
        closed under products holds their inverses too."""
        g = self.graph
        for x in self.elements:
            if not verify_isomorphism(g, g, *point_maps(g, x)):
                raise GraphError("group element is not an automorphism of "
                                 "the graph")
        pool = set(self.elements)
        for a in self.elements:
            for b in self.elements:
                if tuple([a[i] for i in b]) not in pool:
                    raise GraphError("group not closed under composition")

    @property
    def order(self):
        return len(self.elements)

    @property
    def is_trivial(self):
        return self.order == 1

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p):
        return p in self._index

    def __eq__(self, other):
        return (isinstance(other, Group) and self.graph is other.graph
                and self.elements == other.elements)

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Group(order={self.order})"

    @cached_property
    def _index(self):
        return {p: i for i, p in enumerate(self.elements)}

    @cached_property
    def identity_index(self):
        return self.elements.index(tuple(range(len(self.elements[0]))))

    @cached_property
    def _base(self):
        return _greedy_base(self.elements)

    @cached_property
    def table(self):
        """table[i][j] = index of elements[i] * elements[j], where
        (a * b)[p] = a[b[p]]."""
        return _product_table(self.elements, self._base)

    @cached_property
    def inverse_indices(self):
        e = self.identity_index
        return tuple(row.index(e) for row in self.table)

    @cached_property
    def semiregular_flags(self):
        nv, mates = len(self.graph.vertex_list), _mate_points(self.graph)
        return tuple(_violating_point(x, nv, mates) is None
                     for x in self.elements)

    @cached_property
    def _subgroup_lattice(self):
        """(subgroups, classes): `_subgroup_index_sets` of the table under
        conjugation by `_generating_set`, with each class a sorted list of
        positions in the subgroup list, in the order of their first
        members.  `all_subgroups` and `conjugacy_classes_of_subgroups`
        both read this one search."""
        gens = [self.elements[i] for i in _generating_set(self)]
        maps = _conjugations(self.elements, self._base, gens)
        subs, classes = _subgroup_index_sets(
            self.table, self.identity_index, self.order, maps)
        position = {s: i for i, s in enumerate(subs)}
        return subs, sorted(sorted(map(position.get, cls)) for cls in classes)

    def subgroup(self, indices):
        """The group of elements[i] for i in `indices`.  It keeps this
        group's `_base`, which tells its elements apart too."""
        sub = Group(self.graph, [self.elements[i] for i in sorted(indices)],
                    verify=False)
        sub._base = self._base
        return sub


def chain_generators(g, fixed=()):
    """Image tuples of automorphisms that generate Aut(g), or with `fixed`
    the automorphisms fixing each of its vertices: the coset
    representatives of `stabilizer_chain(g, fixed)` and, for each kernel
    job, the transposition of its first two items, the cycle of all its
    items, and its first item turned along its second way when it has one.
    The kernel fixes every vertex and permutes each job's items, each
    along one of its ways, independently: Sym(items) wreath the ways,
    which the three moves generate.  The chain of `fixed` is read off the
    canonical search that marks it in order, which an atom's ordered
    forms have already made."""
    transversals, kernel = stabilizer_chain(g, fixed)
    gens = [t for reps in transversals for t in reps]
    didx = point_index(g)[1]
    one = range(len(g.vertex_list) + len(g.dart_list))
    for _, items, _, ways in kernel:
        n = len(items)
        moves = []  # (item, target item, way) per moved item
        if n > 1:
            moves.append([(items[0], items[1], ways[0]),
                          (items[1], items[0], ways[0])])
        if n > 2:
            moves.append([(items[i], items[i - n + 1], ways[0])
                          for i in range(n)])
        if len(ways) > 1:
            moves.append([(items[0], items[0], ways[1])])
        for move in moves:
            images = list(one)
            for src, dst, way in move:
                for h, i in zip(src, way):
                    images[didx[h]] = didx[dst[i]]
            gens.append(tuple(images))
    return gens


def _capped_order(g, max_order):
    """The order of Aut(g), read off its stabilizer chain; a size limit
    error when it is over `max_order`."""
    order = chain_order(stabilizer_chain(g))
    if max_order is not None and order > max_order:
        raise size_limit("automorphism_group", f"{order} automorphisms",
                         max_order, g)
    return order


def _aut_images(g, max_order):
    """The elements of Aut(g) as a set of image tuples: its stabilizer
    chain multiplied out (see `iso.stabilizer_chain`).

    The order is the chain's `chain_order`, so a group over `max_order`
    is refused before any element is built (see `_capped_order`).
    """
    order = _capped_order(g, max_order)
    transversals, kernel = stabilizer_chain(g)
    distinct = set(chain_products(transversals, kernel_images(g, kernel)))
    if len(distinct) != order:
        raise InternalError(f"automorphism_group: {len(distinct)} distinct "
                            f"products, expected {order}")
    return distinct


def automorphism_group(g, max_order=MAX_GROUP_ORDER):
    """The full color/type/direction-preserving automorphism group,
    multiplied out of its stabilizer chain (see `_aut_images`)."""
    return Group(g, _aut_images(g, max_order), verify=False)


def is_semiregular(grp):
    """No non-identity element stabilizes a vertex or dart; an edge may be
    fixed setwise only when halvable and dart-swapped."""
    return all(grp.semiregular_flags)


def semiregular_violations(grp):
    return [(x, semiregularity_violation(grp.graph, x))
            for x, ok in zip(grp.elements, grp.semiregular_flags) if not ok]


def _close_indices(table, s, gens):
    """<S, gens> in index space, where S is a subgroup generated by part of
    `gens`; None if a product leaves the table's elements.

    The result is a union of right cosets S*r, and right-multiplying by a
    generator g maps S*r onto S*(r*g), so only one representative per
    coset is multiplied by the generators (Dimino's method).
    """
    s = tuple(s)
    members = set(s)
    reps = [s[0]]
    for r in reps:
        row = table[r]
        for g in gens:
            y = row[g]
            if y is None:
                return None
            if y not in members:
                coset = [table[t][y] for t in s]
                if None in coset:
                    return None
                members.update(coset)
                reps.append(y)
    return frozenset(members)


def _cyclic_generators(table, e):
    """Per element x, the generators x^k of <x>, k prime to the order of
    x, in order of k; None where a power of x leaves a partial table."""
    out = []
    for x in range(len(table)):
        powers = [x]
        while powers[-1] not in (e, None):
            powers.append(table[powers[-1]][x])
        n = len(powers)
        out.append(None if powers[-1] is None else
                   tuple(p for k, p in enumerate(powers, 1)
                         if math.gcd(k, n) == 1))
    return out


def _extension_candidates(table, s, generators):
    """One element x from each class of elements outside S that extend S
    to the same subgroup, skipping classes that leave a partial table.

    <S, x> = <S, a*x^k*b> for all a, b in S and k prime to the order of x,
    so x stands for the union of the double cosets S*y*S over the
    generators y of <x> (see `_cyclic_generators`).  That union is marked
    as left cosets z*S; `seen` stays a union of left cosets, so z in seen
    means all of z*S is.  A class with a power or a product outside the
    table is not returned: every <S, x> it gives leaves the table too.
    """
    s = tuple(s)
    seen = set(s)
    out = []
    for x in range(len(table)):
        if x in seen:
            continue
        ys = generators[x]
        live = ys is not None
        for y in ys or (x,):
            for a in s:
                z = table[a][y]
                if z is None:
                    live = False
                elif z not in seen:
                    coset = [table[z][b] for b in s]
                    if None in coset:
                        live = False
                    seen.update(coset)
        if live:
            out.append(x)
    return out


def _subgroup_index_sets(table, e, order, maps, divides=None):
    """(subgroups, classes): every subgroup of the table's elements exactly
    once, by cyclic extension, sorted by order and then by sorted indices,
    and their classes, as sets, under the group of `order` elements that
    the conjugation `maps` generate (see `_conjugations`).

    Only the first subgroup found in a class is extended: a new <S, x> has
    its whole class closed and registered, and is queued as the class's
    representative (see the module docstring for why this reaches every
    class).  A class whose size does not divide `order` is an
    InternalError.  S is extended to <S, x> once per class of elements
    that give the same extension (see `_extension_candidates`).  With
    `divides`, subgroups whose order does not divide it are neither kept
    nor extended; every subgroup whose order does divide it is still
    reached through a chain of its own subgroups, one element at a time.
    A subgroup of order `divides` is kept but not extended, as no larger
    subgroup has an order that divides it.
    """
    generators = _cyclic_generators(table, e)
    setwise = [_Setwise(m) for m in maps]
    trivial = frozenset({e})
    classes = [{trivial}]
    known = {trivial}
    queue = [(trivial, ())]
    while queue:
        s, gens = queue.pop()
        for x in _extension_candidates(table, s, generators):
            tgens = gens + (x,)
            t = _close_indices(table, s, tgens)
            if (t is None or t in known
                    or (divides is not None and divides % len(t))):
                continue
            cls = orbit_closure((t,), setwise)
            if order % len(cls):
                raise InternalError(f"conjugacy class of {len(cls)} "
                                    f"subgroups in a group of order {order}")
            classes.append(cls)
            known |= cls
            if len(t) != divides:
                queue.append((t, tgens))
    return sorted(known, key=lambda s: (len(s), tuple(sorted(s)))), classes


def _conjugations(elements, base, gens):
    """Conjugation by each image tuple t in `gens`, as a map on positions
    in `elements`: the position of t * x * t^-1 for each element x.  A
    conjugate is named by its images on `base`, which tell the elements
    apart, and one outside `elements` is an InternalError."""
    position = {tuple([x[b] for b in base]): i
                for i, x in enumerate(elements)}
    maps = []
    for t in gens:
        inverse = [0] * len(t)
        for i, j in enumerate(t):
            inverse[j] = i
        # (t * x * t^-1)(b) = t(x(t^-1(b)))
        at = [inverse[b] for b in base]
        try:
            maps.append([position[tuple([t[x[p]] for p in at])]
                         for x in elements])
        except KeyError:
            raise InternalError("a conjugate of a listed element is "
                                "outside every listed one") from None
    return maps


class _Setwise:
    """A map on positions applied to each member of a set of positions,
    as a map on such sets (see `orbit_closure`)."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = images

    def __getitem__(self, s):
        return frozenset(map(self.images.__getitem__, s))


def _generating_set(grp):
    """Element indices that generate grp: each element in index order that
    the earlier ones do not generate."""
    table = grp.table
    gens = ()
    span = frozenset({grp.identity_index})
    for x in range(grp.order):
        if x not in span:
            gens += (x,)
            span = _close_indices(table, span, gens)
    if len(span) != grp.order:
        raise InternalError(f"generating set {gens} closes to {len(span)} "
                            f"elements, expected {grp.order}")
    return gens


def all_subgroups(grp, max_order=MAX_GROUP_ORDER):
    """Every subgroup exactly once, sorted by order and then by sorted
    element indices: the union of the conjugacy classes that the search
    one class at a time finds (see `_subgroup_index_sets`)."""
    if grp.order > max_order:
        raise size_limit("all_subgroups", f"group order {grp.order}",
                         max_order, grp.graph)
    return [grp.subgroup(s) for s in grp._subgroup_lattice[0]]


def conjugacy_classes_of_subgroups(grp, max_order=MAX_GROUP_ORDER):
    """The subgroups of `all_subgroups` grouped into conjugacy classes.

    The classes are those the lattice search registers as it finds them
    (see `_subgroup_index_sets`): orbits under conjugation by a generating
    set of grp.  Members of a class keep `all_subgroups` order, which
    within one order is by sorted element indices, and the classes are in
    the order of their first members.
    """
    subs = all_subgroups(grp, max_order=max_order)
    return [[subs[i] for i in cls] for cls in grp._subgroup_lattice[1]]


def subgroup_order_histogram(classes):
    """Order -> number of conjugacy classes of subgroups of that order."""
    hist = {}
    for cls in classes:
        hist[cls[0].order] = hist.get(cls[0].order, 0) + 1
    return hist


def _cycle_length(images):
    """The length of point 0's cycle under a permutation's images."""
    n, x = 1, images[0]
    while x:
        n, x = n + 1, images[x]
    return n


def _generates_semiregular(x, n, nv, mates):
    """Whether <x> is semiregular, for an x that passes `_violating_point`
    and whose cycle through point 0 has length n: x^2 ... x^(n-1) pass it
    too, and x^n is the identity."""
    y = x
    for _ in range(n - 2):
        y = tuple([x[i] for i in y])
        if _violating_point(y, nv, mates) is not None:
            return False
    return tuple([x[i] for i in y]) == tuple(range(len(x)))


def semiregular_subgroups(g, order=None, max_order=MAX_GROUP_ORDER):
    """All semiregular subgroups of Aut(g), optionally of one given order.

    Only the elements that generate a semiregular group can appear in
    these subgroups, so the lattice search runs on the partial
    multiplication table of that subset, read off the image tuples of the
    chain's products with no listed Aut(g).  In a semiregular group every
    point's cycle under an element has the element's order, so with
    `order` the cheap first filter keeps only the elements whose cycle
    through point 0 divides it.  The subset is closed under conjugation,
    so the search extends one subgroup per conjugacy class.  The elements
    are sorted as in Aut(g) and named on Aut(g)'s base, so the subgroups,
    and their order, are those the listed group gives; only the subgroups
    returned are built as groups.  The search is kept on g per order (see
    `graph.cached`), and `max_order` is checked on every call.
    """
    _capped_order(g, max_order)
    members, base, found, _ = _semiregular_lattice(g, order)
    subs = []
    for s in found:
        sub = Group(g, [members[i] for i in sorted(s)], verify=False)
        sub._base = base
        subs.append(sub)
    return subs


def _semiregular_lattice(g, order):
    """(members, base, subgroups, classes) of the semiregular search of
    `order`: the listed elements, Aut(g)'s base, the index sets of the
    subgroups returned, and their conjugacy classes as sorted lists of
    positions among them, in the order of their first members."""
    lattices = cached(g, "_semiregular_lattices", lambda g: {})
    if order in lattices:
        return lattices[order]
    images = _aut_images(g, None)
    nv, mates = len(g.vertex_list), _mate_points(g)
    members = sorted(images)
    if members[0]:  # a graph with no points has the identity alone
        lengths = map(_cycle_length, members)
        members = [x for x, n in zip(members, lengths)
                   if (order is None or order % n == 0)
                   and _violating_point(x, nv, mates) is None
                   and _generates_semiregular(x, n, nv, mates)]
    base = _greedy_base(list(images))
    table = _product_table(members, base)
    maps = _conjugations(members, base, chain_generators(g))
    # the identity sorts first among image tuples
    subs, classes = _subgroup_index_sets(table, 0, len(images), maps,
                                         divides=order)
    found = [s for s in subs if order is None or len(s) == order]
    position = {s: i for i, s in enumerate(found)}
    classes = sorted(sorted(map(position.get, cls)) for cls in classes
                     if order is None or len(next(iter(cls))) == order)
    return lattices.setdefault(order, (members, base, found, classes))


def semiregular_class_representatives(g, order=None,
                                      max_order=MAX_GROUP_ORDER):
    """The first subgroup of each conjugacy class of
    `semiregular_subgroups(g, order)`, in that list's order.

    Conjugate subgroups give isomorphic quotients: if S' = t*S*t^-1, then t
    maps g/S onto g/S'.  The classes are those the semiregular search
    registers, orbits under conjugation by `chain_generators(g)`.
    """
    subs = semiregular_subgroups(g, order=order, max_order=max_order)
    return [subs[cls[0]] for cls in _semiregular_lattice(g, order)[3]]


def element_class_firsts(elements, generators):
    """The first of each class of `elements`, image tuples over one
    graph's points, under conjugation by the group that the image tuples
    `generators` generate, in the list's order.

    A class is an orbit of positions under `_conjugations`, with each
    element named by its whole image tuple, so a conjugate outside
    `elements` is an InternalError.
    """
    maps = _conjugations(elements, range(len(elements[0])), generators)
    seen = set()
    firsts = []
    for i, x in enumerate(elements):
        if i not in seen:
            firsts.append(x)
            seen |= orbit_closure((i,), maps)
    return firsts


def orbits(g, generators, domain="vertices"):
    """Orbit partition of g's vertices or darts under the group generated
    by `generators`, image tuples over g's points (see `point_index`),
    sorted by smallest member."""
    if domain == "vertices":
        items, first = g.vertex_list, 0
    elif domain == "darts":
        items, first = g.dart_list, len(g.vertex_list)
    else:
        raise GraphError(f"unknown orbit domain {domain!r}")
    seen = set()
    out = []
    for x in range(first, first + len(items)):
        if x in seen:
            continue
        orbit = orbit_closure((x,), generators)
        seen.update(orbit)
        out.append(tuple(sorted(items[i - first] for i in orbit)))
    return tuple(sorted(out))
