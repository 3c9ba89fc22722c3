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

The block tree is one record kept on the graph, `BlockTree`: its blocks
and every part cut off by a tree node are (darts, vertices) pairs, and
the block graphs are built on first use and kept with it.  It names no
graph (see `graph.cached`), so `block_graph` takes the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphError, InternalError
from .graph import LOOP, PENDANT, STANDARD, cached, require_standard_input


@dataclass(frozen=True)
class BlockTree:
    """The block tree of a graph: its blocks as (darts, vertices) pairs,
    its articulations, its center, ("block", index) or ("articulation",
    vertex), each tree node's neighbouring nodes (`adj`) and its
    neighbour toward the center (`parents`, None at the center), and the
    block graphs built so far, by block index."""

    blocks: tuple
    articulations: frozenset
    center: tuple
    adj: dict
    parents: dict
    graphs: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def nodes(self):
        out = [("block", i) for i in range(len(self.blocks))]
        out.extend(("articulation", v) for v in sorted(self.articulations))
        return out

    def part(self, node):
        """The union of the blocks at `node` and below it, away from the
        center, as a (darts, vertices) pair."""
        darts, vertices = set(), set()
        stack = [node]
        while stack:
            n = stack.pop()
            if n[0] == "block":
                darts |= self.blocks[n[1]][0]
                vertices |= self.blocks[n[1]][1]
            stack.extend(o for o in self.adj[n] if self.parents[o] == n)
        return frozenset(darts), frozenset(vertices)

    def block_graph(self, g, i):
        """The graph of blocks[i] in g, the graph this tree is kept on,
        built on first use and kept with the tree, so what is cached on it
        is kept too."""
        try:
            return self.graphs[i]
        except KeyError:
            return self.graphs.setdefault(i, g.restrict(*self.blocks[i]))

    def central_block(self):
        """The central block's pair, or None at a central articulation."""
        if self.center[0] != "block":
            return None
        return self.blocks[self.center[1]]

    def articulations_on_central_block(self):
        central = self.central_block()
        if central is None:
            return ()
        return tuple(sorted(central[1] & self.articulations))


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


def is_pendant_like(g, part):
    """True when the (darts, vertices) pair is a single pendant edge, loop,
    or half-edge."""
    darts, vertices = part
    if len(vertices) != 1:
        return False
    if len(darts) == 1:
        return True
    if len(darts) == 2:
        return g.edge_kind(min(darts)) in (PENDANT, LOOP)
    return False


def block_tree(g):
    """The block tree of g, built on first use and kept on g as
    `_block_tree`."""
    return cached(g, "_block_tree", _block_tree)


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
        center = ("articulation", g.vertex_list[0])
        return BlockTree((), frozenset(), center, {center: []},
                         {center: None})

    center = _tree_center(tree_adj)
    parents, frontier = {center: None}, [center]
    while frontier:
        node = frontier.pop()
        for other in tree_adj[node]:
            if other not in parents:
                parents[other] = node
                frontier.append(other)
    return BlockTree(blocks, articulations, center, tree_adj, parents)


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
            raise InternalError("block-tree has no unique center")
        for leaf in leaves:
            for other in adj[leaf]:
                if other in alive:
                    degree[other] -= 1
                    if degree[other] <= 1:
                        nxt.append(other)
        leaves = [n for n in nxt if n in alive]
        if len(alive) > 1 and not leaves:
            raise InternalError("block structure is not a tree")
    return next(iter(alive))


def central_element(g):
    """("block", its (darts, vertices) pair) or ("articulation", vertex)."""
    bt = block_tree(g)
    if bt.center[0] == "block":
        return ("block", bt.central_block())
    return bt.center


def attached_subgraph(bt, u):
    """G_u: the union of blocks hanging at articulation u of the central
    block, as a (darts, vertices) pair."""
    if bt.center[0] != "block":
        raise GraphError("graph has no central block")
    if u not in bt.articulations_on_central_block():
        raise GraphError(f"{u!r} is not an articulation of the central block")
    return bt.part(("articulation", u))
