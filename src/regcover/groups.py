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

`semiregular_subgroups` lists no Aut(g): it builds full image tuples only
from the chain's vertex parts whose cycles share one length, keeps each x
for which <x> is semiregular, checked once per cyclic subgroup, and
builds a `Group` only for each subgroup it returns, and
`semiregular_class_representatives` only for the first of each class.

Groups are stored extensionally.  Each group picks a base once: a short
list of points whose images tell all of its elements apart, so a product
a*b can be looked up by a's images of b's base images.  The
multiplication table looks up only the rows of a greedy generating set:
row a of the table is the permutation b -> a*b of positions (the
left-regular representation), so row(s*a) is row(s) composed with
row(a), one list read per entry (`_product_table`).  The group keeps the
generating set, which conjugates its subgroup classes.  A subgroup found
by a search is built from its sorted positions, checked for the identity
alone.  Subgroup enumeration works in index space over that table:
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
(`_conjugations`); the full lattice conjugates by the generating set its
table found, the semiregular one by the automorphisms its chain lifted
and the kernel's moves (`_search_generators`).

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
from .iso import (chain_lifts, chain_order, chain_products,
                  count_automorphisms, kernel_images, orbit_closure,
                  stabilizer_chain, verify_isomorphism)

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
    """(table, generators): the multiplication table over the image
    tuples, sorted, so the identity first, by their positions, with None
    where a product is not among them; and the positions whose rows were
    looked up, each the first that the rows built before it do not reach.

    Row a lists a * b for every b, the left-regular permutation of a, so
    row(s * a) = row(s) o row(a): (s * a) * b = s * (a * b).  Rows are
    looked up only for the generators; every other row is read off a
    generator's row and a row reached before it, and each pair of a row
    and a generator is walked once.  An entry a * b outside the tuples
    leaves a hole in row a, so where row(s * a) would be read through one,
    that entry is looked up.  A lookup names a product by its base images,
    a's images of b's base images, as `base` tells apart the elements of a
    group that holds the tuples, products included.
    """
    if not base:
        return [(0,)], ()
    key = itemgetter(*base)
    position = {key(img): k for k, img in enumerate(images)}.get
    times = [itemgetter(*[img[p] for p in base]) for img in images]
    n = len(images)
    rows = [None] * n
    rows[0] = tuple(range(n))
    whole = [True] * n  # rows known to have no hole
    reached = [0]
    generators = []

    def compose(s, a, y):
        """Row y = s * a, read off rows s and a."""
        row = rows[s]
        if whole[a]:
            # n > 1 here, so the getter returns a tuple
            rows[y] = itemgetter(*rows[a])(row)
            whole[y] = whole[s]
        else:
            img = images[y]
            rows[y] = tuple([position(times[b](img)) if z is None else row[z]
                             for b, z in enumerate(rows[a])])
            whole[y] = False

    for x in range(1, n):
        if rows[x] is not None:
            continue
        img = images[x]
        rows[x] = row = tuple([position(t(img)) for t in times])
        whole[x] = None not in row
        generators.append(x)
        # x times every row reached so far, then each new row times every
        # generator
        new = [x]
        for a in reached:
            y = row[a]
            if y is not None and rows[y] is None:
                compose(x, a, y)
                new.append(y)
        for a in new:
            for s in generators:
                y = rows[s][a]
                if y is not None and rows[y] is None:
                    compose(s, a, y)
                    new.append(y)
        reached += new
    return rows, tuple(generators)


class Group:
    """A closed set of automorphisms of one graph, identity included.

    `elements` are the automorphisms' image tuples over the graph's points
    (see `graph.point_index`), sorted.  With `verify`, each element is
    checked to be an automorphism of the graph and the set to be closed;
    a caller that builds elements from a stabilizer chain passes False.
    """

    def __init__(self, graph, elements, verify=True):
        self.graph = graph
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
        (a * b)[p] = a[b[p]]: the rows of `_generators` looked up, the
        others composed of them (see `_product_table`).  A product outside
        the elements is an InternalError."""
        table, self._generators = _product_table(self.elements, self._base)
        if any(None in table[s] for s in self._generators):
            raise InternalError(f"a product of two of the group's "
                                f"{self.order} elements is not among them")
        return table

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
        """The group of elements[i] for i in `indices`, the positions of a
        subgroup.  It keeps this group's `_base`, which tells its elements
        apart too."""
        return Group._of_positions(self.graph, self.elements, indices,
                                   self._base)

    @classmethod
    def _of_positions(cls, graph, listed, indices, base):
        """The group of listed[i] for i in `indices`, where `listed` are
        sorted image tuples over graph's points and `indices` the positions
        of a group among them, found by a subgroup search; `base` tells its
        elements apart.  The elements come out sorted, and only the first
        is checked: the identity, which sorts first."""
        grp = cls.__new__(cls)
        grp.graph, grp._base = graph, base
        grp.elements = tuple([listed[i] for i in sorted(indices)])
        if grp.elements[0] != tuple(range(len(listed[0]))):
            raise GraphError("group must contain the identity")
        return grp


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


def _search_generators(g):
    """Image tuples that generate Aut(g): the automorphisms its chain
    lifted (`iso.chain_lifts`), no more than the coset representatives,
    and the kernel's moves, which follow those in `chain_generators`."""
    (transversals, _), _, lifts = chain_lifts(g)
    return list(lifts) + chain_generators(g)[sum(map(len, transversals)):]


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
    return _distinct(chain_products(transversals, kernel_images(g, kernel)),
                     order)


def _distinct(products, expected):
    """The set of a chain's `products`, which are distinct, one per element
    or per vertex part; an InternalError unless it has `expected` members."""
    distinct = set(products)
    if len(distinct) != expected:
        raise InternalError(f"automorphism_group: {len(distinct)} distinct "
                            f"products, expected {expected}")
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
    the earlier ones do not generate, as `Group.table` found them."""
    grp.table
    return grp._generators


def all_subgroups(grp, max_order=MAX_GROUP_ORDER):
    """Every subgroup exactly once, sorted by order and then by sorted
    element indices: the union of the conjugacy classes that the search
    one class at a time finds (see `_subgroup_index_sets`).  A `max_order`
    of None sets no cap."""
    if max_order is not None and grp.order > max_order:
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


def semiregular_subgroups(g, order=None, max_order=MAX_GROUP_ORDER):
    """All semiregular subgroups of Aut(g), optionally of one given order,
    as the listed group gives them: the lattice search on the partial
    table of `_semiregular_lattice`, kept on g per order (see
    `graph.cached`).  `max_order` bounds the chain's order on every call,
    though Aut(g) is never listed.  An `order` that is neither None nor a
    positive integer is a GraphError."""
    _capped_order(g, max_order)
    members, base, found, _ = _semiregular_lattice(g, order)
    return [Group._of_positions(g, members, s, base) for s in found]


def _semiregular_lattice(g, order):
    """(members, base, subgroups, classes) of the semiregular search of
    `order`: the elements x, sorted, for which <x> is semiregular, of an
    order dividing `order` if given, a class-closed set; the chain's base,
    the first path and a dart of each item the kernel moves but one it
    then fixes, which tells all of Aut(g) apart; the index sets of the
    subgroups returned; and their classes, as sorted lists of positions.

    A vertex part whose cycles differ in length builds no tuple t*k, k in
    the kernel; the identity's gives the identity alone, as other kernel
    elements fix every vertex.  A cyclic subgroup's darts are walked once:
    its generators, named on the base, share the verdict.
    """
    if order is not None and not (isinstance(order, int) and order > 0):
        raise GraphError(f"semiregular subgroup order must be a positive "
                         f"integer or None, got {order!r}")
    lattices = cached(g, "_semiregular_lattices", lambda g: {})
    if order in lattices:
        return lattices[order]
    transversals, jobs = stabilizer_chain(g)
    didx, nv = point_index(g)[1], len(g.vertex_list)
    moved = tuple(didx[item[0]] for _, items, _, ways in jobs
                  for item in (items if len(ways) > 1 else items[:-1]))
    base = chain_lifts(g)[1] + moved
    one = tuple(range(nv + len(g.dart_list)))
    kernel = kernel_images(g, jobs) if moved else [one]  # identity first
    parts = chain_products(transversals, [one[:nv]])
    _distinct(parts, len(parts))
    mates = (-1,) * nv + _mate_points(g)
    verdicts = {}  # base images: whether that element is kept
    members = []
    for i, part in enumerate(parts):
        n = _shared_cycle_length(part, range(nv), order)
        if n == 1:
            members.append(one)
        if n is None or n == 1:
            continue
        for x in _chain_elements(transversals, i, kernel):
            name = tuple([x[b] for b in base])
            if name not in verdicts:
                ok = _shared_cycle_length(x, range(nv, len(one)), order,
                                          mates, n)
                verdicts.update(dict.fromkeys(_generator_names(x, base),
                                              ok is not None))
            if verdicts[name]:
                members.append(x)
    members.sort()
    table = _product_table(members, base)[0]
    maps = _conjugations(members, base, _search_generators(g))
    # the identity sorts first among image tuples
    subs, classes = _subgroup_index_sets(
        table, 0, chain_order((transversals, jobs)), maps, divides=order)
    found = [s for s in subs if order is None or len(s) == order]
    position = {s: i for i, s in enumerate(found)}
    classes = sorted(sorted(map(position.get, cls)) for cls in classes
                     if order is None or len(next(iter(cls))) == order)
    return lattices.setdefault(order, (members, base, found, classes))


def _shared_cycle_length(x, points, order=None, mates=(), n=0):
    """n, or with n = 0 the first cycle's length, when every cycle of x
    through `points` has that length, dividing `order` if given, and none
    holds a point p and mates[p] (see `_mate_points`); else None, and 0
    with no points.  Then <x> is semiregular on them: x^j fixes no point,
    as no cycle is shorter than the order of x, and reverses no edge.  An
    automorphism maps the mates of a cycle onto a cycle, so one dart tells.
    """
    seen = set()
    for p in points:
        if p in seen:
            continue
        cycle, q = [p], x[p]
        while q != p:
            cycle.append(q)
            q = x[q]
        if n and len(cycle) != n or mates and mates[p] in cycle:
            return None
        n = len(cycle)
        seen.update(cycle)
    return None if order and n and order % n else n


def _chain_elements(transversals, i, kernel):
    """t*k for k in `kernel` (identity first), where t is the i-th product
    of `iso.chain_products`: the digits of i, in the radix of the
    transversal sizes plus one, pick a factor of each, 0 the identity."""
    t = kernel[0]
    for reps in reversed(transversals):
        i, d = divmod(i, len(reps) + 1)
        if d:
            t = tuple(map(reps[d - 1].__getitem__, t))
    return [t] + [tuple(map(t.__getitem__, k)) for k in kernel[1:]]


def _generator_names(x, base):
    """The images on `base` of x^e for e prime to the order of x, the least
    common multiple of the base points' cycle lengths, as the base tells
    all automorphisms apart: x^e moves each e steps along its cycle."""
    cycles = []
    for b in base:
        cycle = [b]
        while x[cycle[-1]] != b:
            cycle.append(x[cycle[-1]])
        cycles.append(cycle)
    n = math.lcm(*map(len, cycles))
    return [tuple([c[e % len(c)] for c in cycles])
            for e in range(1, n + 1) if math.gcd(e, n) == 1]


def semiregular_class_representatives(g, order=None,
                                      max_order=MAX_GROUP_ORDER):
    """The first subgroup of each conjugacy class of
    `semiregular_subgroups(g, order)`, in that list's order, as the search
    registers the classes: if S' = t*S*t^-1, then t maps g/S onto g/S'.
    A `Group` is built for these firsts only."""
    _capped_order(g, max_order)
    members, base, found, classes = _semiregular_lattice(g, order)
    return [Group._of_positions(g, members, found[cls[0]], base)
            for cls in classes]


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
