"""DOT export for graphs, block-trees, and reduction trees."""

from __future__ import annotations

from .graph import DIRECTED, FREE, HALVABLE, LOOP, PENDANT, STANDARD

_STYLE = {HALVABLE: "bold", "undirected": "solid", DIRECTED: "solid"}


def _quote(s):
    return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g):
    return _graph_dot(g, [f"  {_quote(v)};" for v in g.vertex_list])


def _graph_dot(g, vertex_lines):
    """The DOT text of g with the given line per vertex of `vertex_list`."""
    lines = ["digraph G {", "  edge [dir=none];", "  node [shape=circle];",
             *vertex_lines]
    anon = [0]

    def stub():
        anon[0] += 1
        name = f"__end{anon[0]}"
        lines.append(f"  {_quote(name)} [shape=point, label=\"\"];")
        return name

    for h, k in g.edges:
        kind = g.edge_kind(h)
        typ = g.edge_type[h]
        attrs = [f"label={_quote(g.color[h])}", f"style={_STYLE[typ]}"]
        if kind == STANDARD:
            u, w = g.vertex_of(h), g.vertex_of(k)
            if typ == DIRECTED:
                if h not in g.tails:
                    u, w = w, u
                attrs.append("dir=forward")
            lines.append(f"  {_quote(u)} -> {_quote(w)} [{', '.join(attrs)}];")
        elif kind == LOOP:
            v = g.vertex_of(h)
            if typ == DIRECTED:
                attrs.append("dir=forward")
            lines.append(f"  {_quote(v)} -> {_quote(v)} [{', '.join(attrs)}];")
        elif kind == PENDANT:
            v = g.vertex_of(h) or g.vertex_of(k)
            lines.append(f"  {_quote(v)} -> {_quote(stub())} [{', '.join(attrs)}];")
        elif kind == FREE:
            lines.append(f"  {_quote(stub())} -> {_quote(stub())} [{', '.join(attrs)}];")
    for h in g.halfedges:
        v = g.vertex_of(h)
        src = _quote(v) if v is not None else _quote(stub())
        lines.append(f"  {src} -> {_quote(stub())} "
                     f"[label={_quote(g.color[h])}, style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def atoms_to_dot(g, atoms):
    """Graph DOT with atom interiors shaded and boundaries doubled."""
    interior = {}
    boundary = set()
    for i, a in enumerate(atoms):
        for v in a.interior_vertices:
            interior[v] = i
        boundary.update(a.boundary)
    lines = []
    for v in g.vertex_list:
        if v in interior:
            lines.append(f"  {_quote(v)} [style=filled, fillcolor=gray80, "
                         f"xlabel=\"atom {interior[v]}\"];")
        elif v in boundary:
            lines.append(f"  {_quote(v)} [shape=doublecircle];")
        else:
            lines.append(f"  {_quote(v)};")
    return _graph_dot(g, lines)


def block_tree_to_dot(bt):
    lines = ["graph blocktree {", "  node [shape=box];"]
    for i, ref in enumerate(bt.blocks):
        label = f"block {i} ({len(ref.vertices)}v/{len(ref.darts) // 2}e)"
        if bt.center == ("block", i):
            label += " *center*"
        lines.append(f"  b{i} [label={_quote(label)}];")
    for v in sorted(bt.articulations):
        label = str(v)
        if bt.center == ("articulation", v):
            label += " *center*"
        lines.append(f"  {_quote('a' + str(v))} [shape=circle, label={_quote(label)}];")
    seen = set()
    for node, others in bt._adj.items():
        for other in others:
            key = tuple(sorted((str(node), str(other))))
            if key in seen:
                continue
            seen.add(key)

            def nm(n):
                return f"b{n[1]}" if n[0] == "block" else _quote("a" + str(n[1]))

            lines.append(f"  {nm(node)} -- {nm(other)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reduction_tree_to_dot(series):
    """Nodes are numbered in preorder, and the edge to a child follows the
    child's subtree, from a walk that keeps an explicit stack."""
    lines = ["graph reduction {", "  node [shape=box];"]
    count, stack, node = 0, [], series.tree
    while True:
        if node is not None:
            count += 1
            lines.append(f"  n{count} [label={_quote(_tree_label(node))}];")
            stack.append((f"n{count}", iter(node.children)))
        name, children = stack[-1]
        node = next(children, None)
        if node is None:
            stack.pop()
            if not stack:
                break
            lines.append(f"  {stack[-1][0]} -- {name};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tree_label(node):
    if node.atom is None:
        return f"primitive G_{node.level}"
    return (f"{node.atom.kind} atom @ level {node.level} "
            f"(color {node.color})")
