"""Text graph format: one item per line, `#` comments, UTF-8, LF.

    vertex <name>
    edge <name> <u> <v> type=<halvable|undirected|directed> color=<int> [tail=<u|v>]
    loop <name> <v> type=... color=...
    pendant <name> <v> color=<int>
    halfedge <name> <v> color=<int>     (`-` as vertex = free half-edge)
    free <name> color=<int> [type=...]

`type` defaults to undirected, `color` to 0.  The serializer keeps vertex
and item names when they are safe tokens and regenerates them otherwise,
and for a vertex named `-`, which a `halfedge` line reads as no vertex.
So parse(serialize(g)) is g up to the regenerated names, and every file
written reads back.
"""

from __future__ import annotations

import contextlib
import errno
import os
import re

from .errors import GraphError, ParseError
from .graph import DIRECTED, FREE, LOOP, PENDANT, STANDARD, GraphBuilder

_TOKEN = re.compile(r"^[^\s#]+$")


def _split_opts(parts, line, allowed):
    opts = {}
    for p in parts:
        if "=" not in p:
            raise ParseError(f"expected key=value, got {p!r}", line)
        key, val = p.split("=", 1)
        if key not in allowed:
            raise ParseError(f"unknown option {key!r}", line)
        if key in opts:
            raise ParseError(f"duplicate option {key!r}", line)
        opts[key] = val
    return opts


def parse(text):
    b = GraphBuilder()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw, args = parts[0], parts[1:]
        try:
            if kw == "vertex":
                if len(args) != 1:
                    raise ParseError("vertex takes one name", lineno)
                b.vertex(args[0])
            elif kw == "edge":
                if len(args) < 3:
                    raise ParseError("edge needs name and two endpoints", lineno)
                name, u, v = args[:3]
                b.edge(name, u, v, **_split_opts(args[3:], lineno,
                                                 {"type", "color", "tail"}))
            elif kw == "loop":
                if len(args) < 2:
                    raise ParseError("loop needs name and vertex", lineno)
                name, v = args[:2]
                b.loop(name, v, **_split_opts(args[2:], lineno,
                                              {"type", "color"}))
            elif kw == "pendant":
                if len(args) < 2:
                    raise ParseError("pendant needs name and vertex", lineno)
                name, v = args[:2]
                b.pendant(name, v, **_split_opts(args[2:], lineno, {"color"}))
            elif kw == "halfedge":
                if len(args) < 2:
                    raise ParseError("halfedge needs name and vertex (or -)", lineno)
                name, v = args[:2]
                b.halfedge(name, None if v == "-" else v,
                           **_split_opts(args[2:], lineno, {"color"}))
            elif kw == "free":
                if len(args) < 1:
                    raise ParseError("free needs a name", lineno)
                b.free(args[0], **_split_opts(args[1:], lineno,
                                              {"color", "type"}))
            else:
                raise ParseError(f"unknown item kind {kw!r}", lineno)
        except ParseError:
            raise
        except Exception as exc:  # builder errors carry no position
            raise ParseError(str(exc), lineno) from None
    return b.build()


def read_text(path):
    """The UTF-8 text of the file at path; ParseError when it is missing,
    unreadable, a directory or not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text (byte {exc.start})")


def parse_file(path):
    return parse(read_text(path))


def _safe(name):
    return bool(_TOKEN.match(name))


def _item_name(g, h, used):
    """Recover `<name>` from darts `<name>.1` / `<name>.2` when possible."""
    k = g.pairing[h]
    cands = []
    if h.endswith(".1"):
        base = h[:-2]
        if k == h or k == base + ".2":
            cands.append(base)
    for c in cands:
        if _safe(c) and c not in used:
            return c
    return None


def serialize(g):
    lines = []
    vnames = {}
    for i, v in enumerate(g.vertex_list):
        vnames[v] = v if _safe(v) and v != "-" else f"v{i}"
    if len(set(vnames.values())) != len(vnames):
        vnames = {v: f"v{i}" for i, v in enumerate(g.vertex_list)}
    for v in g.vertex_list:
        lines.append(f"vertex {vnames[v]}")

    used = set()
    counter = [0]

    def name_for(h):
        n = _item_name(g, h, used)
        if n is None:
            n = f"e{counter[0]}"
            counter[0] += 1
            while n in used:
                n = f"e{counter[0]}"
                counter[0] += 1
        used.add(n)
        return n

    items = []
    for h, k in g.edges:
        kind = g.edge_kind(h)
        name = name_for(h)
        col = g.color[h]
        typ = g.edge_type[h]
        if kind == STANDARD:
            u, w = g.vertex_of(h), g.vertex_of(k)
            parts = f"edge {name} {vnames[u]} {vnames[w]} type={typ} color={col}"
            if typ == DIRECTED:
                tail = u if h in g.tails else w
                parts += f" tail={vnames[tail]}"
            items.append(parts)
        elif kind == LOOP:
            items.append(f"loop {name} {vnames[g.vertex_of(h)]} type={typ} color={col}")
        elif kind == PENDANT:
            v = g.vertex_of(h) if g.vertex_of(h) is not None else g.vertex_of(k)
            items.append(f"pendant {name} {vnames[v]} color={col}")
        elif kind == FREE:
            items.append(f"free {name} color={col} type={typ}")
    for h in g.halfedges:
        name = name_for(h)
        v = g.vertex_of(h)
        items.append(f"halfedge {name} {vnames[v] if v is not None else '-'} color={g.color[h]}")
    lines.extend(sorted(items))
    return "\n".join(lines) + "\n"


def write_texts(pairs):
    """Write each (path, text) pair as UTF-8, all or none.

    Every path is checked first, and each text goes to a temporary file
    next to its path; the temporaries are renamed onto the paths only once
    all are written.  A failure raises GraphError naming the path and
    removes the temporaries, so a blocked path leaves no new file behind.
    """
    pairs = list(pairs)
    for path, _ in pairs:
        if os.path.isdir(path):
            raise GraphError(f"cannot write {path}: "
                             f"{os.strerror(errno.EISDIR)}")
    temps = []
    try:
        for path, text in pairs:
            tmp = f"{path}.{os.getpid()}.tmp"
            try:
                with open(tmp, "x", encoding="utf-8") as fh:
                    temps.append(tmp)
                    fh.write(text)
            except OSError as exc:
                raise GraphError(f"cannot write {path}: {exc.strerror}")
        for tmp, (path, _) in zip(temps, pairs):
            try:
                os.replace(tmp, path)
            except OSError as exc:
                raise GraphError(f"cannot write {path}: {exc.strerror}")
    except GraphError:
        for tmp in temps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def write_file(g, path):
    write_texts([(path, serialize(g))])
