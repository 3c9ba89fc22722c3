"""Block-trees: maximal 2-connected blocks, articulations, and the center.

Bridge edges, pendant edges, loops and attached half-edges all count as
(leaf) blocks, so the same machinery runs on quotients and expansion
intermediates.  The tree center is the central block or central
articulation; a lone vertex has a central articulation by convention.

Every 1-cut and 2-cut comes from one walk, `lowpoints`: an iterative
depth-first search with Tarjan's low points over the graph's standard
adjacency, optionally with some vertices removed.  Its search trees are the
components, and the children that their parent cuts off give the blocks
here and, with one vertex removed, the 2-cuts of `atoms`.

The block tree kept on a graph is plain data, the dart and vertex sets of
its blocks with the tree's nodes, and the block graphs once built
(`_BlockData`); `block_tree` makes a `BlockTree` view of it, holding the
graph, on each call (see `graph.cached`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import GraphError, InternalError
from .graph import (LOOP, PENDANT, STANDARD, SubgraphRef, cached,
                    require_standard_input)


class BlockTree:
    """The block tree of `graph`: its blocks as SubgraphRefs of the graph,
    its articulations, and its center, ("block", index) or
    ("articulation", vertex).

    `block_tree` makes a new one on each call, a view of the plain data
    kept on the graph (`_BlockData`), so nothing kept there names the
    graph; its refs are made when `blocks` is first read.
    """

    def __init__(self, graph, data):
        self.graph = graph
        self.articulations = data.articulations
        self.center = data.center
        self._adj = data.adj
        self._data = data

    @cached_property
    def blocks(self):
        return tuple(SubgraphRef(self.graph, darts, vertices)
                     for darts, vertices in self._data.blocks)

    @property
    def nodes(self):
        out = [("block", i) for i in range(len(self._data.blocks))]
        out.extend(("articulation", v) for v in sorted(self.articulations))
        return out

    def neighbors(self, node):
        return self._adj[node]

    def rooted_parents(self):
        """Parent map with edges oriented toward the center."""
        parents = {self.center: None}
        frontier = [self.center]
        while frontier:
            nxt = []
            for node in frontier:
                for other in self._adj[node]:
                    if other not in parents:
                        parents[other] = node
                        nxt.append(other)
            frontier = nxt
        return parents

    def subtree_nodes(self, node, parents=None):
        """The node and everything hanging below it, away from the center."""
        parents = parents or self.rooted_parents()
        out = [node]
        frontier = [node]
        while frontier:
            nxt = []
            for n in frontier:
                for other in self._adj[n]:
                    if parents.get(other) == n:
                        out.append(other)
                        nxt.append(other)
            frontier = nxt
        return out

    def part_ref(self, node, parents=None):
        """Union of the blocks in the subtree at `node`, as a SubgraphRef."""
        darts, vertices = set(), set()
        for n in self.subtree_nodes(node, parents):
            if n[0] == "block":
                block_darts, block_vertices = self._data.blocks[n[1]]
                darts |= block_darts
                vertices |= block_vertices
        return SubgraphRef(self.graph, frozenset(darts), frozenset(vertices))

    def block_graph(self, i):
        """The graph of blocks[i], built on first use and kept with the
        block data on the graph, so what is cached on it is kept too."""
        graphs = self._data.graphs
        try:
            return graphs[i]
        except KeyError:
            darts, vertices = self._data.blocks[i]
            return graphs.setdefault(i, self.graph.restrict(darts, vertices))

    def central_block_ref(self):
        if self.center[0] != "block":
            return None
        return self.blocks[self.center[1]]

    def articulations_on_central_block(self):
        if self.center[0] != "block":
            return ()
        vertices = self._data.blocks[self.center[1]][1]
        return tuple(sorted(vertices & self.articulations))


@dataclass(frozen=True)
class _BlockData:
    """What `block_tree` keeps on a graph: plain data that names no graph,
    and the block graphs built from it (see `graph.cached`)."""

    blocks: tuple          # (darts, vertices) per block
    articulations: frozenset
    center: tuple
    adj: dict              # tree node: its neighbouring tree nodes
    graphs: dict = field(default_factory=dict)  # block index: its graph


def _pendant_like_blocks(g):
    """Each loop, pendant edge, and attached half-edge as its own leaf
    block, a (darts, vertices) pair."""
    out = []
    for h, k in g.edges:
        kind = g.edge_kind(h)
        if kind == LOOP:
            out.append((frozenset((h, k)), frozenset((g.vertex_of(h),))))
        elif kind == PENDANT:
            v = g.vertex_of(h)
            if v is None:
                v = g.vertex_of(k)
            out.append((frozenset((h, k)), frozenset((v,))))
    for h in g.halfedges:
        v = g.vertex_of(h)
        if v is not None:
            out.append((frozenset((h,)), frozenset((v,))))
    return out


def is_pendant_like(g, ref):
    """True when the ref is a single pendant edge, loop, or half-edge."""
    if len(ref.vertices) != 1:
        return False
    if len(ref.darts) == 1:
        return True
    if len(ref.darts) == 2:
        h = min(ref.darts)
        return g.edge_kind(h) in (PENDANT, LOOP)
    return False


def block_tree(g):
    """The block tree of g, a view of the data built on first use and kept
    on g as `_block_tree`."""
    return BlockTree(g, cached(g, "_block_tree", _block_tree))


def _standard_adjacency(g):
    """{vertex: its neighbour across each standard edge at it}, kept on g
    as `_standard_adjacency` (see `graph.cached`).  A parallel edge repeats
    a neighbour, which changes no low point's test against its parent."""
    return cached(g, "_standard_adjacency", _index_adjacency)


def _index_adjacency(g):
    adj = {v: [] for v in g.vertex_list}
    for h, k in g.edges:
        if g.edge_kind(h) == STANDARD:
            u, w = g.vertex_of(h), g.vertex_of(k)
            adj[u].append(w)
            adj[w].append(u)
    return adj


def lowpoints(g, removed=()):
    """One depth-first search of g minus the vertices `removed`, through
    standard edges, with Tarjan's low points; roots are taken in
    `vertex_list` order.  Returns (disc, parent, cut), the first two keyed
    in discovery order, so each search tree is a contiguous run that
    starts at its root: each vertex's discovery number; its tree parent,
    None at a root; and the set of children that their parent cuts off,
    those whose subtree has no edge to a vertex discovered before the
    parent (low[v] >= disc[parent]).  The walk keeps an explicit stack of
    frames, so deep graphs need no recursion.
    """
    adj = _standard_adjacency(g)
    disc, low, parent, cut = {}, {}, {}, set()
    for root in g.vertex_list:
        if root in disc or root in removed:
            continue
        disc[root] = low[root] = len(disc)
        parent[root] = None
        frames = [(root, iter(adj[root]))]
        while frames:
            v, unread = frames[-1]
            for w in unread:
                if w in disc:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                elif w not in removed:
                    disc[w] = low[w] = len(disc)
                    parent[w] = v
                    frames.append((w, iter(adj[w])))
                    break
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        cut.add(v)
    return disc, parent, cut


def _block_tree(g):
    require_standard_input(g, "block_tree")

    # a child that its parent cuts off starts a block, every other vertex
    # stays in its parent's block, and a standard edge goes to the block of
    # its later-discovered end, so parallel edges go together
    disc, parent, cut = lowpoints(g)
    head = {}
    for v, p in parent.items():
        if p is not None:
            head[v] = v if v in cut else head[p]
    darts, vertices = {}, {}
    for h, k in g.edges:
        if g.edge_kind(h) == STANDARD:
            u, w = g.vertex_of(h), g.vertex_of(k)
            later = w if disc[w] > disc[u] else u
            if parent[later] is None:
                raise InternalError(
                    f"block_tree: edge {h!r} ends at the DFS root {later!r}")
            darts.setdefault(head[later], set()).update((h, k))
            vertices.setdefault(head[later], set()).update((u, w))

    blocks = [(frozenset(darts[t]), frozenset(vertices[t])) for t in darts]
    blocks.extend(_pendant_like_blocks(g))
    blocks.sort(key=lambda b: (min(b[1]), min(b[0])))
    blocks = tuple(blocks)

    membership = {v: [] for v in g.vertex_list}
    for i, (_, block_vertices) in enumerate(blocks):
        for v in block_vertices:
            membership[v].append(i)
    articulations = frozenset(v for v, bs in membership.items() if len(bs) >= 2)

    tree_adj = {("block", i): [] for i in range(len(blocks))}
    for v in sorted(articulations):
        node = ("articulation", v)
        tree_adj[node] = []
        for i in membership[v]:
            tree_adj[node].append(("block", i))
            tree_adj[("block", i)].append(node)

    if not blocks:
        # a lone vertex: central articulation by convention
        v = g.vertex_list[0]
        return _BlockData((), frozenset(), ("articulation", v),
                          {("articulation", v): []})

    center = _tree_center(tree_adj)
    return _BlockData(blocks, articulations, center, tree_adj)


def _tree_center(adj):
    degree = {n: len(ns) for n, ns in adj.items()}
    alive = set(adj)
    leaves = [n for n, d in degree.items() if d <= 1]
    while len(alive) > 1:
        nxt = []
        for leaf in leaves:
            alive.discard(leaf)
        if len(alive) == 0:
            # two mutually adjacent nodes stripped together: block-trees
            # always have a unique center, so this cannot happen
            raise GraphError("block-tree has no unique center")
        for leaf in leaves:
            for other in adj[leaf]:
                if other in alive:
                    degree[other] -= 1
                    if degree[other] <= 1:
                        nxt.append(other)
        leaves = [n for n in nxt if n in alive]
        if len(alive) > 1 and not leaves:
            raise GraphError("block structure is not a tree")
    return next(iter(alive))


def central_element(g):
    """("block", SubgraphRef) or ("articulation", vertex)."""
    bt = block_tree(g)
    if bt.center[0] == "block":
        return ("block", bt.blocks[bt.center[1]])
    return bt.center


def attached_subgraph(bt, u):
    """G_u: the union of blocks hanging at articulation u of the central block."""
    if bt.center[0] != "block":
        raise GraphError("graph has no central block")
    if u not in bt.articulations_on_central_block():
        raise GraphError(f"{u!r} is not an articulation of the central block")
    parents = bt.rooted_parents()
    node = ("articulation", u)
    return bt.part_ref(node, parents)
