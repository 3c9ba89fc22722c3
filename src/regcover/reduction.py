"""Reduction series: repeatedly replace all atoms by colored typed edges.

Isomorphic atoms (boundary mapped setwise) share a fresh color.  The edge
type records the symmetry type: halvable atoms become halvable edges,
symmetric ones undirected edges, asymmetric ones directed edges with a
class-consistent orientation.  Block atoms become colored pendant edges.

The induced map on automorphisms (identity outside atom interiors,
replacement edges following the atom action) is a surjective group
homomorphism whose kernel is the direct product of the pointwise boundary
stabilizers of the replaced atoms.  `kernel_order` counts it from one
boundary-pinned stabilizer chain per atom class, without listing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import iso
from .atoms import (ASYMMETRIC_SYM, DIPOLE, HALVABLE_SYM, NONSTAR_BLOCK,
                    PROPER, STAR_BLOCK, SYMMETRIC_SYM, Atom, PrimitiveClass,
                    classify_primitive, find_atoms)
from .errors import GraphError, InternalError
from .graph import (DIRECTED, HALVABLE, UNDIRECTED, Graph, GraphBuilder,
                    normalize, point_images, point_maps,
                    require_standard_input)
from .groups import count_automorphisms
from .textfmt import parse

COLOR_BASE = 1 << 16   # reduction colors start here
COLOR_STRIDE = 256     # fresh colors are allocated in blocks of this size
_EDGE_TYPE = {HALVABLE_SYM: HALVABLE, SYMMETRIC_SYM: UNDIRECTED,
              ASYMMETRIC_SYM: DIRECTED}


def allocate_colors(g, count):
    """Fresh deterministic colors: the next COLOR_STRIDE boundary above both
    COLOR_BASE and every color already used in the graph."""
    top = max(g.color.values(), default=-1)
    start = max(COLOR_BASE, ((top // COLOR_STRIDE) + 1) * COLOR_STRIDE)
    return list(range(start, start + count))


@dataclass
class AtomClass:
    """Isomorphic atoms of one step; kind, symmetry type, boundary and
    quotients are read from the representative."""
    color: int
    rep: Atom
    members: tuple


@dataclass
class Replacement:
    atom: Atom
    cls: AtomClass
    darts: tuple                 # new darts, one per boundary slot (+ free end)
    dart_vertices: tuple         # endpoint of each new dart (None = free)


@dataclass
class ReductionStep:
    source: Graph
    target: Graph
    classes: tuple
    replacements: tuple
    _by_darts: dict = field(default_factory=dict, repr=False)

    def replacement_for(self, dartset):
        return self._by_darts.get(frozenset(dartset))


def reduce_step(g):
    """Replace every atom of g by a colored edge, one color per class.

    Only a class representative runs the two ordered-marked searches of
    `Atom.ordered_boundary`; each member's ends are read from them (see
    `_member_ends`).
    """
    require_standard_input(g, "reduce_step")
    if normalize(g) is not g:
        raise GraphError("reduce_step requires a normalized graph")
    atoms = find_atoms(g)
    if not atoms:
        raise GraphError("graph is primitive; nothing to reduce")

    by_form = {}
    for a in atoms:
        by_form.setdefault(a.form(), []).append(a)
    forms = sorted(by_form)
    colors = allocate_colors(g, len(forms))

    classes = []
    for color, form in zip(colors, forms):
        members = by_form[form]
        members.sort(key=lambda a: (min(a.vertices), min(a.darts)))
        classes.append(AtomClass(color, members[0], tuple(members)))

    removed_darts = set()
    removed_vertices = set()
    for a in atoms:
        removed_darts |= a.darts
        removed_vertices |= a.interior_vertices

    kept = g.restrict(g.darts - removed_darts, g.vertices - removed_vertices)
    b = GraphBuilder(kept)
    replacements = []
    for cls in classes:
        for i, a in enumerate(cls.members):
            name = b.fresh(f"r{cls.color}i{i}")
            if a.is_block:
                (u,) = a.boundary
                b.pendant(name, u, color=cls.color)
                ends = (u, None)
            else:
                ends = _member_ends(cls.rep, a)
                et = _EDGE_TYPE[cls.rep.symmetry]
                b.edge(name, *ends, type=et, color=cls.color,
                       tail=ends[0] if et == DIRECTED else None)
            replacements.append(
                Replacement(a, cls, (f"{name}.1", f"{name}.2"), ends))
    target = b.build()
    if target.n_darts >= g.n_darts:
        raise GraphError("reduction step failed to shrink the graph")
    step = ReductionStep(g, target, tuple(classes), tuple(replacements))
    step._by_darts = {r.atom.darts: r for r in replacements}
    return step


def _member_ends(rep, a):
    """`a.ordered_boundary()` for a member a of rep's class, without its
    ordered-marked searches.

    Unless the class is asymmetric, both ordered forms are equal and the
    ends are the sorted boundary.  Otherwise the map between the best-leaf
    orders of rep's and a's boundary-set-marked forms, which `find_atoms`
    computed to sort the atoms, is a marked isomorphism, and ordered forms
    are invariant under it, so it carries rep's ordered boundary onto a's.
    The map is checked as `iso.are_isomorphic` checks its witness.
    """
    if rep.symmetry != ASYMMETRIC_SYM:
        return a.boundary
    ends = rep.ordered_boundary()
    if a is rep:
        return ends
    witness = iso.leaf_isomorphism(rep.as_graph(), a.as_graph(),
                                   rep.boundary, a.boundary)
    if witness is None:
        raise InternalError("reduce_step: the representative's marked form "
                            "does not map onto a class member")
    return tuple(witness[0][x] for x in ends)


@dataclass
class ReductionTreeNode:
    label: str
    level: int
    atom: Atom | None
    color: int | None
    children: list


@dataclass
class ReductionSeries:
    graphs: tuple            # G_0 .. G_r
    steps: tuple             # steps[i]: G_i -> G_{i+1}
    primitive: PrimitiveClass
    tree: ReductionTreeNode

    @property
    def depth(self):
        return len(self.steps)


def reduction_series(g):
    require_standard_input(g, "reduction_series")
    if normalize(g) is not g:
        raise GraphError("reduction_series requires a normalized graph")
    graphs, steps = [g], []
    while find_atoms(graphs[-1]):
        steps.append(reduce_step(graphs[-1]))
        graphs.append(steps[-1].target)
    primitive = classify_primitive(graphs[-1])
    tree = _build_tree(graphs, steps)
    return ReductionSeries(tuple(graphs), tuple(steps), primitive, tree)


def _build_tree(graphs, steps):
    r = len(steps)
    root = ReductionTreeNode("primitive", r, None, None, [])
    nodes = {}  # (level, atom dartset) -> node
    for i in reversed(range(r)):
        for rep in steps[i].replacements:
            node = ReductionTreeNode(
                f"atom@{i}", i, rep.atom, rep.cls.color, [])
            nodes[(i, rep.atom.darts)] = node
            # find where the replacement edge ends up
            dartset = frozenset(rep.darts)
            parent = root
            for j in range(i + 1, r):
                hit = None
                for rep2 in steps[j].replacements:
                    if dartset <= rep2.atom.darts:
                        hit = rep2
                        break
                if hit is not None:
                    parent = nodes[(j, hit.atom.darts)]
                    break
            else:
                parent = root
            parent.children.append(node)
    return root


def reduction_epimorphism(step, pi):
    """Image of an automorphism of the source on the target graph, both
    image tuples over their graph's points (see `graph.point_index`).

    GraphError unless `pi` is an automorphism of the source; the image is
    checked to be an automorphism of the target (InternalError if not).
    """
    g, t = step.source, step.target
    pvert, pdart = point_maps(g, pi)
    if not iso.verify_isomorphism(g, g, pvert, pdart):
        raise GraphError("not an automorphism of the step's source")
    dmap = {}
    for h in t.dart_list:
        if h in g.darts:
            img = pdart[h]
            if img not in t.darts:
                raise GraphError("automorphism does not respect the atoms")
            dmap[h] = img
    for rep in step.replacements:
        image_darts = frozenset(pdart[h] for h in rep.atom.darts)
        rep2 = step.replacement_for(image_darts)
        if rep2 is None:
            raise GraphError("automorphism does not permute the atoms")
        for d, v in zip(rep.darts, rep.dart_vertices):
            if v is None:
                free2 = next(dd for dd, vv in
                             zip(rep2.darts, rep2.dart_vertices) if vv is None)
                dmap[d] = free2
            else:
                target_v = pvert[v]
                dmap[d] = next(dd for dd, vv in
                               zip(rep2.darts, rep2.dart_vertices)
                               if vv == target_v)
    vmap = {v: pvert[v] for v in t.vertex_list}
    if not iso.verify_isomorphism(t, t, vmap, dmap):
        raise InternalError(
            "reduction_epimorphism: image is not an automorphism")
    return point_images(t, vmap, dmap)


@dataclass
class SidecarStep:
    """Expansion-ready view of one reduction level loaded from a sidecar."""
    classes: tuple


_SIDECAR_FIELDS = ("graph", "boundary", "kind", "symmetry", "color")


def _sidecar_list(obj, name, where):
    value = obj.get(name) if isinstance(obj, dict) else None
    if not isinstance(value, list):
        raise GraphError(f"{where} needs a list {name!r}")
    return value


def _sidecar_class(entry):
    """The AtomClass of one sidecar class entry; GraphError names the first
    field holding a wrong value or a symmetry type or ordered boundary that
    its graph does not give."""
    boundary, kind, color = entry["boundary"], entry["kind"], entry["color"]
    g = parse(entry["graph"]) if isinstance(entry["graph"], str) else None
    vertices = g.vertices if g is not None else ()
    size = 1 if kind in (STAR_BLOCK, NONSTAR_BLOCK) else 2
    checks = (
        ("graph", g is not None, "a string"),
        ("kind", kind in (STAR_BLOCK, NONSTAR_BLOCK, PROPER, DIPOLE),
         "an atom kind"),
        ("boundary", isinstance(boundary, list) and len(boundary) == size
         and all(isinstance(v, str) and v in vertices for v in boundary)
         and len(set(boundary)) == size,
         ("one vertex" if size == 1 else "two distinct vertices")
         + " of its graph"),
        ("symmetry",
         entry["symmetry"] in (HALVABLE_SYM, SYMMETRIC_SYM, ASYMMETRIC_SYM),
         "a symmetry type"),
        ("color", isinstance(color, int) and not isinstance(color, bool)
         and color >= COLOR_BASE,
         f"a reduction color (at least {COLOR_BASE})"),
    )
    for name, ok, what in checks:
        if not ok:
            raise GraphError(f"sidecar class entry: {name!r} must be {what}, "
                             f"not {entry[name]!r}")
    rep = Atom(g, g.darts, g.vertices, kind, boundary)
    for name, want in (("symmetry", rep.symmetry),
                       ("boundary", list(rep.ordered_boundary()))):
        if entry[name] != want:
            raise GraphError(f"sidecar class entry: {name!r} must be {want!r} "
                             f"for its graph, not {entry[name]!r}")
    return AtomClass(color, rep, ())


def load_sidecar_steps(payload):
    """Rebuild per-level atom classes from a `reduce` JSON sidecar."""
    if not isinstance(payload, dict):
        raise GraphError("sidecar must be a JSON object")
    if payload.get("version") != 1:
        raise GraphError("unsupported sidecar version")
    steps = []
    for i, level in enumerate(_sidecar_list(payload, "levels", "sidecar")):
        classes = []
        for entry in _sidecar_list(level, "classes", "sidecar level"):
            missing = [f for f in _SIDECAR_FIELDS
                       if not isinstance(entry, dict) or f not in entry]
            if missing:
                raise GraphError(
                    f"sidecar class entry lacks {', '.join(missing)}")
            cls = _sidecar_class(entry)
            # expansion finds a class by its color, so one color is one class
            if any(c.color == cls.color for c in classes):
                raise GraphError(f"sidecar level {i}: two classes share "
                                 f"color {cls.color}")
            classes.append(cls)
        steps.append(SidecarStep(tuple(classes)))
    return steps


def kernel_order(step):
    """Product of the boundary stabilizer orders over all replaced atoms;
    members of a class have conjugate stabilizers, so one count serves all,
    taken from a stabilizer chain (`iso.count_automorphisms`)."""
    return math.prod(count_automorphisms(c.rep.as_graph(),
                                         pinned={b: b for b in c.rep.boundary})
                     ** len(c.members) for c in step.classes)
