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
builds a permutation either.  `iso.chain_generators` are the maps the
chain lifted and the kernel's moves, and `orbits` closes points under any
image tuples, so the order and the orbits of Aut(g) need no listing.

Semiregularity is one rule, read off one point per orbit (`orbit_rows`):
each such point has |group| images, the orbits partition the points, and
no orbit holds a dart with its non-halvable mate (`_mate_points`), as
stabilizers and edge reversals are conjugate along an orbit.
`semiregular_subgroups` lists no Aut(g): it builds full image tuples only
from the chain's vertex parts whose cycles share one length, keeps each x
for which <x> is semiregular, read off x's cycles once per cyclic
subgroup (`_shared_cycle_length`), and builds a `Group` only for each
subgroup it returns, and `semiregular_class_representatives` only for the
first of each class.

Groups are stored extensionally.  Every group of g names its elements by
their images on the chain's base (`iso.chain_base`), which tell all of
Aut(g) apart, so a product a*b, looked up by a's images of b's base
images, is never taken for another element.  The
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
table found, the semiregular one by the chain's (`iso.chain_generators`).

Conjugate semiregular subgroups give isomorphic quotients, so the quotient
layer takes the first subgroup of each registered class
(`semiregular_class_representatives`).
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import itemgetter

from .errors import GraphError, InternalError, size_limit
from .graph import HALVABLE, cached, point_index, point_maps
from .iso import (chain_base, chain_generators, chain_order, chain_products,
                  count_automorphisms, kernel_images, orbit_closure,
                  stabilizer_chain, verify_isomorphism)

MAX_GROUP_ORDER = 200


def _mate_points(g):
    """Per point of g, the point of its dart's mate when the two darts form
    a non-halvable edge, else -1, as at every vertex: a permutation
    reverses such an edge when a dart's image is this point.  Kept on g as
    `_mate_points` (see `graph.cached`)."""
    return cached(g, "_mate_points", _index_mates)


def _index_mates(g):
    didx = point_index(g)[1]
    return (-1,) * len(g.vertex_list) + tuple(
        didx[g.pairing[h]]
        if g.pairing[h] != h and g.edge_type.get(h) != HALVABLE else -1
        for h in g.dart_list)


def semiregularity_violation(g, images):
    """None, or a string explaining the non-trivial stabilizer of the
    automorphism of g with image tuple `images`: the first point that it
    fixes or maps onto its mate, unless it is the identity."""
    mates = _mate_points(g)
    p = next((p for p, q in enumerate(images) if q in (p, mates[p])), None)
    if p is None or images == tuple(range(len(images))):
        return None
    name = (g.vertex_list + g.dart_list)[p]
    if images[p] != p:
        return (f"swaps the darts of non-halvable edge "
                f"{name!r}/{g.pairing[name]!r}")
    return f"fixes {'vertex' if p < len(g.vertex_list) else 'dart'} {name!r}"


def orbit_rows(grp):
    """(rows, culprit): rows maps each point p of grp's graph that no
    earlier row holds, in point order, to [x[p] for x in grp.elements].
    grp, closed as `Group` promises, is semiregular by the rule of the
    module docstring: then culprit is None and the rows are the orbits,
    keyed by their least points.  Else the rows stop at the first that
    fails, at p, and culprit is the position of the first element but the
    identity fixing p or, with none, of the first mapping p onto its mate;
    an InternalError if neither is there, as grp is then not closed."""
    elements, mates = grp.elements, _mate_points(grp.graph)
    rows, seen = {}, set()
    for p in range(len(mates)):
        if p in seen:
            continue
        rows[p] = row = [x[p] for x in elements]
        seen.update(row)
        if len(seen) == len(rows) * len(row) and mates[p] not in row:
            continue
        # the identity sorts first among image tuples, and fixes p
        culprits = ([i for i, q in enumerate(row) if q == p][1:]
                    + [i for i, q in enumerate(row) if q == mates[p]])
        if not culprits:
            raise InternalError(f"the group's {len(row)} elements are not "
                                f"closed under products")
        return rows, culprits[0]
    return rows, None


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
    group that holds the tuples, products included; two tuples with equal
    base images are an InternalError.
    """
    key = itemgetter(*base) if base else lambda img: ()
    position = {key(img): k for k, img in enumerate(images)}
    if len(position) < len(images):
        raise InternalError(f"{len(images)} listed elements have "
                            f"{len(position)} distinct images on the base")
    if not base:
        return [(0,)], ()
    position = position.get
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
    (see `graph.point_index`), sorted.  With `verify`, the set is checked
    to be a group of automorphisms of the graph (`check_closure`); a
    caller that builds elements from a stabilizer chain passes False.
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
        """GraphError unless the elements are automorphisms of the graph
        closed under products, checked by generators: each element that
        the earlier ones do not generate is checked against the raw graph,
        and the group they generate, closed as image tuples, must stay
        inside the elements, which it then holds."""
        g = self.graph
        pool, gens = set(self.elements), []
        closed = {tuple(range(len(self.elements[0])))}
        for x in self.elements:
            if x in closed:
                continue
            if not verify_isomorphism(g, g, *point_maps(g, x)):
                raise GraphError("group element is not an automorphism of "
                                 "the graph")
            gens.append(x)
            # what was closed times x, then each new element times every
            # generator: the result is closed under right products
            todo = [(y, (x,)) for y in closed]
            while todo:
                y, by = todo.pop()
                for z in {tuple(map(y.__getitem__, s)) for s in by} - closed:
                    if z not in pool:
                        raise GraphError("group not closed under composition")
                    closed.add(z)
                    todo.append((z, gens))

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
    def table(self):
        """table[i][j] = index of elements[i] * elements[j], where
        (a * b)[p] = a[b[p]]: the rows of `_generators` looked up, the
        others composed of them (see `_product_table`).  A product outside
        the elements is an InternalError."""
        table, self._generators = _product_table(self.elements,
                                                 chain_base(self.graph))
        if any(None in table[s] for s in self._generators):
            raise InternalError(f"a product of two of the group's "
                                f"{self.order} elements is not among them")
        return table

    @cached_property
    def _subgroup_lattice(self):
        """(subgroups, classes): `_subgroup_index_sets` of the table under
        conjugation by `_generating_set`, with each class a sorted list of
        positions in the subgroup list, in the order of their first
        members.  `all_subgroups` and `conjugacy_classes_of_subgroups`
        both read this one search."""
        gens = [self.elements[i] for i in _generating_set(self)]
        maps = _conjugations(self.elements, chain_base(self.graph), gens)
        subs, classes = _subgroup_index_sets(
            self.table, self.identity_index, self.order, maps)
        position = {s: i for i, s in enumerate(subs)}
        return subs, sorted(sorted(map(position.get, cls)) for cls in classes)

    @classmethod
    def _of_positions(cls, graph, listed, indices):
        """The group of listed[i] for i in `indices`, the positions of a
        group among `listed`, sorted image tuples over graph's points, that
        a subgroup search found; only the first element, the identity as
        they sort, is checked."""
        grp = cls.__new__(cls)
        grp.graph = graph
        grp.elements = tuple([listed[i] for i in sorted(indices)])
        if grp.elements[0] != tuple(range(len(listed[0]))):
            raise GraphError("group must contain the identity")
        return grp


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
    fixed setwise only when halvable and dart-swapped (see `orbit_rows`)."""
    return orbit_rows(grp)[1] is None


def _close_indices(table, s, gens, whole=None):
    """<S, gens> in index space, where S is a subgroup generated by part of
    `gens`; None if a product leaves the table's elements.

    The result is a union of right cosets S*r, and right-multiplying by a
    generator g maps S*r onto S*(r*g), so only one representative per
    coset is multiplied by the generators (Dimino's method).  `whole`, when
    the table holds the whole group, is its set of indices: a subgroup's
    order divides the group's (Lagrange), so once more than half of it is
    listed the closure is the whole group and stops.
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
                if whole is not None and 2 * len(members) > len(whole):
                    return whole
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
    subgroup has an order that divides it.  When the table holds all
    `order` elements, a closure stops once it holds more than half of
    them (see `_close_indices`).
    """
    generators = _cyclic_generators(table, e)
    whole = frozenset(range(order)) if len(table) == order else None
    setwise = [_Setwise(m) for m in maps]
    trivial = frozenset({e})
    classes = [{trivial}]
    known = {trivial}
    queue = [(trivial, ())]
    while queue:
        s, gens = queue.pop()
        for x in _extension_candidates(table, s, generators):
            tgens = gens + (x,)
            t = _close_indices(table, s, tgens, whole)
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
        inverse = sorted(range(len(t)), key=t.__getitem__)
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
    return [Group._of_positions(grp.graph, grp.elements, s)
            for s in grp._subgroup_lattice[0]]


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
    members, found, _ = _semiregular_lattice(g, order)
    return [Group._of_positions(g, members, s) for s in found]


def _semiregular_lattice(g, order):
    """(members, subgroups, classes) of the semiregular search of
    `order`: the elements x, sorted, for which <x> is semiregular, of an
    order dividing `order` if given, a class-closed set; the index sets of
    the subgroups returned; and their classes, as sorted lists of
    positions.

    A vertex part whose cycles differ in length builds no tuple t*k, k in
    the kernel; the identity's gives the identity alone, as other kernel
    elements fix every vertex.  A cyclic subgroup's darts are walked once:
    its generators, named on the chain's base (`iso.chain_base`), which
    tells all of Aut(g) apart, share the verdict.
    """
    if order is not None and not (isinstance(order, int) and order > 0
                                  and not isinstance(order, bool)):
        raise GraphError(f"semiregular subgroup order must be a positive "
                         f"integer or None, got {order!r}")
    lattices = cached(g, "_semiregular_lattices", lambda g: {})
    if order in lattices:
        return lattices[order]
    transversals, jobs = stabilizer_chain(g)
    base, nv = chain_base(g), len(g.vertex_list)
    one = tuple(range(nv + len(g.dart_list)))
    # identity first; a base of the first path alone means a trivial kernel
    kernel = kernel_images(g, jobs) if base[len(transversals):] else [one]
    parts = chain_products(transversals, [one[:nv]])
    _distinct(parts, len(parts))
    mates = _mate_points(g)
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
    maps = _conjugations(members, base, chain_generators(g))
    # the identity sorts first among image tuples
    subs, classes = _subgroup_index_sets(
        table, 0, chain_order((transversals, jobs)), maps, divides=order)
    found = [s for s in subs if order is None or len(s) == order]
    position = {s: i for i, s in enumerate(found)}
    classes = sorted(sorted(map(position.get, cls)) for cls in classes
                     if order is None or len(next(iter(cls))) == order)
    return lattices.setdefault(order, (members, found, classes))


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
    members, found, classes = _semiregular_lattice(g, order)
    return [Group._of_positions(g, members, found[cls[0]])
            for cls in classes]


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
