import ast
import hashlib
import json
import os
import subprocess
import sys

import pytest

import regcover
from regcover import cli, groups, iso
from regcover import dot as dotmod
from regcover.atoms import find_atoms
from regcover.cli import main
from regcover.errors import InternalError
from regcover.fixtures import (complete, cube, cycle, expansion_corpus,
                               k33, prism, theta, with_pendants)
from regcover.groups import automorphism_group, chain_generators, orbits
from regcover.iso import are_isomorphic, canonical_form
from regcover.graph import HALVABLE, GraphBuilder, normalize
from regcover.quotient import all_quotients
from regcover.textfmt import parse_file, write_file

from test_iso import _beyond_cap_graphs, relabel


def _two_pendants(n):
    """An n-cycle with two pendant edges at each vertex."""
    return with_pendants(cycle(n), [f"v{i}" for i in range(n) for _ in (0, 1)])


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, g in [("cube", cube()), ("k4", complete(4)), ("c6", cycle(6)),
                    ("c4", cycle(4)), ("c3", cycle(3)),
                    ("cube2", relabel(cube(), 4)),
                    ("theta", theta(2, 2, 2, edge_type=HALVABLE)),
                    ("theta7", theta(*[1] * 7)),
                    ("c8pend", _two_pendants(8)),
                    ("c4pend", _two_pendants(4))]:
        p = tmp_path / f"{name}.g"
        write_file(g, str(p))
        paths[name] = str(p)
    return paths


def test_validate_ok(files, capsys):
    assert main(["validate", files["cube"]]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_malformed_file(tmp_path, capsys):
    p = tmp_path / "bad.g"
    p.write_text("vertex a\nvertex a\n")
    assert main(["validate", str(p)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys):
    assert main(["validate", "/nonexistent/file.g"]) == 2


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    p = tmp_path / "latin1.g"
    p.write_bytes("vertex café\n".encode("latin-1"))
    assert main(["validate", str(p)]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_directory_path_is_input_error(files, tmp_path, capsys):
    side = tmp_path / "c3.reduction.json"
    side.write_text(json.dumps({"version": 1, "levels": []}))
    for argv in (["validate", str(tmp_path)],
                 ["expand", str(tmp_path), files["c3"]],
                 ["expand", str(side), str(tmp_path)]):
        assert main(argv) == 2
        assert f"cannot read {tmp_path}" in capsys.readouterr().err


def test_fixtures_write_into_a_file_is_input_error(files, capsys):
    assert main(["fixtures", "write", "--dir", files["c3"]]) == 2
    assert f"cannot write to {files['c3']}" in capsys.readouterr().err


@pytest.mark.parametrize("command, name, blocked", [
    ("quotients", "c3", ".q0.g"),
    ("quotients", "c3", ".quotients.json"),
    ("reduce", "theta", ".g1.g"),
    ("reduce", "theta", ".reduction.json"),
    ("expand", "c3", ".x0.g"),
])
def test_directory_in_an_output_path_is_input_error(files, capsys, command,
                                                    name, blocked):
    base = files[name][:-2]
    argv = [command, files[name]]
    if command == "expand":
        assert main(["reduce", files[name]]) == 0
        argv = [command, base + ".reduction.json", files[name]]
    os.mkdir(base + blocked)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"cannot write {base + blocked}" in capsys.readouterr().err


@pytest.mark.parametrize("command, name, blocked", [
    ("quotients", "c6", ".q2.g"),
    ("quotients", "c6", ".quotients.json"),
    ("reduce", "theta", ".reduction.json"),
    ("expand", "theta", ".x1.g"),
])
def test_blocked_output_leaves_no_file_behind(files, capsys, command, name,
                                              blocked):
    # every output is written or none: the files before the blocked one,
    # and the temporaries, are gone when the command exits
    base = files[name][:-2]
    argv = [command, files[name]]
    if command == "expand":
        # the first quotient of the primitive graph expands in two ways
        assert main(["reduce", files[name]]) == 0
        assert main(["quotients", base + ".g2.g"]) == 0
        argv = [command, base + ".reduction.json", base + ".g2.q0.g"]
        base += ".g2.q0"
    os.mkdir(base + blocked)
    folder = os.listdir(os.path.dirname(base))
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert f"cannot write {base + blocked}" in err
    assert "wrote" not in out
    assert sorted(os.listdir(os.path.dirname(base))) == sorted(folder)


def test_iso_exit_codes(files, capsys):
    assert main(["iso", files["cube"], files["cube"], "--witness"]) == 0
    out = capsys.readouterr().out
    assert "isomorphic" in out and "->" in out
    assert main(["iso", files["cube"], files["k4"]]) == 1


def test_failed_witness_check_is_internal_error(files, monkeypatch, capsys):
    monkeypatch.setattr(iso, "verify_isomorphism", lambda *a, **k: False)
    assert main(["iso", files["cube"], files["cube2"]]) == 4
    assert "internal error: are_isomorphic" in capsys.readouterr().err


def test_witness_check_runs_under_python_O(files):
    # the check must not be an assert: run the same failure with -O
    argv = ["iso", files["cube"], files["cube2"]]
    script = ("import sys\n"
              "from regcover import iso\n"
              "from regcover.cli import main\n"
              "iso.verify_isomorphism = lambda *a, **k: False\n"
              f"sys.exit(main({argv!r}))\n")
    src = os.path.dirname(os.path.dirname(regcover.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 4, run.stderr
    assert "internal error" in run.stderr


def test_no_bare_assert_in_library():
    # checks must still run under python -O
    src = os.path.dirname(regcover.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not found


def test_vertex_cap_only_at_public_entry_points():
    # the library's own comparisons pass max_vertices=None; only iso's
    # defaults and the CLI's --max-vertices read MAX_VERTICES
    src = os.path.dirname(regcover.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name in ("iso.py", "cli.py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                fname = f.attr if isinstance(f, ast.Attribute) else getattr(
                    f, "id", None)
                if fname in ("canonical_form", "are_isomorphic") and not any(
                        kw.arg == "max_vertices"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is None for kw in node.keywords):
                    found.append(f"{name}:{node.lineno} {fname}")
            elif (isinstance(node, ast.Name) and node.id == "MAX_VERTICES"
                  or isinstance(node, ast.Attribute)
                  and node.attr == "MAX_VERTICES"
                  or isinstance(node, ast.alias)
                  and node.name == "MAX_VERTICES"):
                found.append(f"{name}:{node.lineno} MAX_VERTICES")
    assert not found


def test_graphs_are_edited_by_restrict_and_the_builder():
    # outside graph.py, a Graph is built by hand only from orbits
    # (quotient), by merging two vertices (_merge_boundary) and by gluing
    # in renamed pieces (_substitute); every other edit restricts a graph
    # or adds items on a GraphBuilder seeded with it
    src = os.path.dirname(regcover.__file__)
    found = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "graph.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if (f.attr if isinstance(f, ast.Attribute)
                        else getattr(f, "id", None)) == "Graph":
                    found.add(f"{name}:{owner.get(node, '<module>')}")
    assert sorted(found) == ["quotient.py:_merge_boundary",
                             "quotient.py:_substitute", "quotient.py:quotient"]


def test_low_points_are_kept_by_one_walk():
    # 1-cuts and 2-cuts come from one walk, `blocks.lowpoints`: no other
    # code assigns into a `low` or `disc` mapping
    src = os.path.dirname(regcover.__file__)
    found = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            if any(isinstance(t, ast.Subscript)
                   and getattr(t.value, "id", None) in ("low", "disc")
                   for target in targets for t in ast.walk(target)):
                found.add(f"{name}:{owner.get(node, '<module>')}")
    assert sorted(found) == ["blocks.py:lowpoints"]


def test_help_names_the_commands_each_cap_reaches():
    text = " ".join(cli.build_parser().format_help().split())
    assert "vertex cap of the iso command's inputs (default 24)" in text
    assert ("cap on the group listed by aut --semiregular, quotients and "
            "cover (default 200)") in text


def test_runtime_imports_only_the_standard_library():
    # import every submodule in a fresh interpreter; each top-level module
    # it loads must be regcover or part of the standard library
    script = ("import json, pkgutil, sys\n"
              "before = set(sys.modules)\n"
              "import regcover\n"
              "for m in pkgutil.iter_modules(regcover.__path__):\n"
              "    __import__('regcover.' + m.name)\n"
              "loaded = {n.split('.')[0] for n in set(sys.modules) - before}\n"
              "print(json.dumps(sorted(loaded)))\n")
    src = os.path.dirname(os.path.dirname(regcover.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout)
    assert "regcover" in loaded
    outside = [n for n in loaded
               if n != "regcover" and n not in sys.stdlib_module_names]
    assert not outside


_GOOD_ENTRY = {"graph": "vertex u\nvertex v\nedge e u v\n",
               "boundary": ["u", "v"], "kind": "proper",
               "symmetry": "symmetric", "color": 65536}


@pytest.mark.parametrize("payload, why", [
    ({"version": 1}, "'levels'"),
    ([], "JSON object"),
    ({"version": 1, "levels": [{"classes": [
        {"boundary": ["u"], "kind": "block", "symmetry": "symmetric",
         "color": 65536}]}]}, "lacks graph"),
    # expansion finds a class by its color, so two with one color are
    # refused rather than the last one silently used
    ({"version": 1, "levels": [{"classes": [_GOOD_ENTRY, _GOOD_ENTRY]}]},
     "level 0: two classes share color 65536"),
])
def test_malformed_sidecar_is_input_error(files, tmp_path, capsys, payload,
                                          why):
    side = tmp_path / "bad.reduction.json"
    side.write_text(json.dumps(payload))
    assert main(["expand", str(side), files["c3"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sidecar") and why in err


@pytest.mark.parametrize("field, value", [
    ("graph", 5),
    ("boundary", 5),
    ("boundary", []),
    ("boundary", ["u", "v", "w"]),
    ("kind", 5),
    ("symmetry", []),
    ("color", "x"),
    ("color", True),
    ("color", -1),
    ("boundary", ["u", "u"]),
    ("boundary", ["u", "zz"]),
    ("boundary", ["u"]),
    # values of the right type that the entry's graph does not give
    ("symmetry", "asymmetric"),
    ("symmetry", "halvable"),
    ("boundary", ["v", "u"]),
])
def test_sidecar_field_of_wrong_type_is_input_error(files, tmp_path, capsys,
                                                    field, value):
    entry = dict(_GOOD_ENTRY, **{field: value})
    side = tmp_path / "bad.reduction.json"
    side.write_text(json.dumps({"version": 1,
                                "levels": [{"classes": [entry]}]}))
    assert main(["expand", str(side), files["c3"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sidecar class entry: {field!r} must be")
    assert "Traceback" not in err


def test_aut_output(files, capsys):
    assert main(["aut", files["k4"]]) == 0
    out = capsys.readouterr().out
    assert "order: 24" in out
    # plain aut has no group cap
    assert main(["aut", files["theta7"]]) == 0
    assert capsys.readouterr().out.startswith(
        "automorphism group order: 10080\n")


def _aut_stdout(order, vertex_orbits):
    return "".join([f"automorphism group order: {order}\nvertex orbits:\n"]
                   + [f"  {' '.join(orb)}\n" for orb in vertex_orbits])


def test_aut_matches_the_listed_group(tmp_path, capsys):
    # over the corpus, as written and normalized: the order and the vertex
    # orbits of the multiplied-out group
    for name, g in expansion_corpus():
        for variant, h in (("raw", g), ("normalized", normalize(g))):
            path = str(tmp_path / f"{name}.{variant}.g")
            write_file(h, path)
            h = parse_file(path)
            aut = automorphism_group(h, max_order=None)
            want = _aut_stdout(aut.order,
                               orbits(h, aut.elements))
            assert main(["aut", path]) == 0
            assert capsys.readouterr().out == want, (name, variant)


def test_aut_beyond_the_group_cap(tmp_path, capsys):
    # the orders are perfbench/refs.json's |Aut|; the vertex orbits are
    # sympy's orbits of the group the chain's generators generate
    combinatorics = pytest.importorskip("sympy.combinatorics")
    orders = []
    for i, g in enumerate(_beyond_cap_graphs()):
        path = str(tmp_path / f"g{i}.g")
        write_file(g, path)
        assert main(["aut", path]) == 0
        head, _, *rows = capsys.readouterr().out.splitlines()
        orders.append(int(head.rsplit(" ", 1)[1]))
        g = parse_file(path)
        vl = g.vertex_list
        group = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(t[:len(vl)]))
             for t in chain_generators(g)])
        assert [tuple(row.split()) for row in rows] == sorted(
            tuple(sorted(vl[x] for x in orb)) for orb in group.orbits())
    assert orders == [10080, 1440, 1440, 240, 240, 240, 1440, 768, 1440,
                      768, 4096]


def test_aut_on_a_101_cycle(tmp_path, capsys):
    # the stabilizer chain is read off the canonical search, which takes
    # a few refinements on a long cycle: order 2n and one vertex orbit
    path = str(tmp_path / "c101.g")
    write_file(cycle(101), path)
    assert main(["aut", path]) == 0
    head, title, *rows = capsys.readouterr().out.splitlines()
    assert head == "automorphism group order: 202"
    assert title == "vertex orbits:"
    assert len(rows) == 1 and len(rows[0].split()) == 101


def test_aut_walks_one_chain_and_lists_no_group(files, monkeypatch):
    # the order and the orbit generators both read the one chain kept on
    # the graph
    builds = []
    walk = iso._read_chain

    def counting(g, fixed):
        builds.append(g)
        return walk(g, fixed)

    def refuse(*args, **kwargs):
        raise InternalError("aut listed the group")

    monkeypatch.setattr(iso, "_read_chain", counting)
    monkeypatch.setattr(groups, "automorphism_group", refuse)
    for name in ("k4", "theta", "theta7"):
        builds.clear()
        assert main(["aut", files[name]]) == 0
        assert len(builds) == 1


# |Aut| of the graphs whose group is refused: theta(1x7), and the 8-cycle
# with two pendants per vertex, which passes the count and profile checks
# as a double cover of the 4-cycle with two pendants per vertex
_CAPPED = {"{theta7}": 10080, "{c8pend}": 4096}


@pytest.mark.parametrize("argv", [
    ["aut", "--semiregular", "2", "{theta7}"],
    ["quotients", "{theta7}"],
    ["cover", "{c8pend}", "{c4pend}"],
])
def test_group_cap_exits_3(files, capsys, argv):
    order = _CAPPED[next(a for a in argv if a in _CAPPED)]
    assert main([a.format(**files) for a in argv]) == 3
    assert capsys.readouterr().err.startswith(
        f"size limit: automorphism_group: {order} automorphisms, "
        "over max_order=200")


def test_quotients_of_a_1200_cycle_stop_at_the_group_cap(tmp_path, capsys):
    # past 1,000 vertices the reduction route still ends in a limit error
    # that names the phase, the order and the cap, not in a traceback
    path = str(tmp_path / "c1200.g")
    write_file(cycle(1200), path)
    assert main(["quotients", "--via", "reduction", path]) == cli.EXIT_LIMIT
    err = capsys.readouterr().err
    assert err.startswith("size limit: automorphism_group: 2400 "
                          "automorphisms, over max_order=200")
    assert "Traceback" not in err


def test_cover_of_an_isomorphic_graph_builds_no_group(files, tmp_path,
                                                      monkeypatch, capsys):
    # for |V(G)| = |V(H)| the trivial group is the answer once G is
    # isomorphic to H, so theta(1x7), whose group is over the cap, covers
    # itself; K3,3 and the 3-prism pass every count but are not isomorphic
    def refuse(*args, **kwargs):
        raise InternalError("cover built Aut(G)")

    monkeypatch.setattr(groups, "automorphism_group", refuse)
    assert main(["cover", files["theta7"], files["theta7"]]) == 0
    assert capsys.readouterr().out.startswith("yes (group order 1)")
    assert main(["cover", files["cube"], files["cube2"]]) == 0
    paths = []
    for name, g in (("k33", k33()), ("prism3", prism(3))):
        paths.append(str(tmp_path / f"{name}.g"))
        write_file(g, paths[-1])
    assert main(["cover", *paths]) == 1


def test_aut_semiregular_listing(files, capsys):
    assert main(["aut", "--semiregular", "2", files["c6"]]) == 0
    out = capsys.readouterr().out
    assert "order 2: 1" in out


def test_element_lines_are_pinned(tmp_path, capsys):
    # sha256 over the corpus of `aut --semiregular K` stdout for K = 2, 3, 4
    # and `cover G H` stdout for every pair with |V(H)| <= |V(G)| <=
    # 4 |V(H)|, with exit codes, as recorded while group elements were
    # printed through a permutation class's vertex map
    corpus = expansion_corpus()
    assert len(corpus) == 49
    paths = {}
    for name, g in corpus:
        paths[name] = str(tmp_path / f"{name}.g")
        write_file(g, paths[name])
    digest = hashlib.sha256()

    def run(label, argv):
        code = main(argv)
        digest.update(f"{label} {code}\n{capsys.readouterr().out}".encode())

    for name, _ in corpus:
        for k in (2, 3, 4):
            run(f"aut {k} {name}", ["aut", "--semiregular", str(k),
                                    paths[name]])
    for gn, g in corpus:
        for hn, h in corpus:
            if h.n_vertices <= g.n_vertices <= 4 * h.n_vertices:
                run(f"cover {gn} {hn}", ["cover", paths[gn], paths[hn]])
    assert digest.hexdigest() == (
        "0c6ce3f0950f8213afae1efb22ae4fe80b09fa1371a47c4bbae7566d3a701ef9")


def test_semiregular_order_one_is_the_trivial_subgroup(files, capsys):
    assert main(["aut", "--semiregular", "1", files["c6"]]) == 0
    assert "order 1: 1" in capsys.readouterr().out


@pytest.mark.parametrize("argv, option", [
    (["aut", "--semiregular", "0", "{c6}"], "--semiregular"),
    (["aut", "--semiregular", "-2", "{c6}"], "--semiregular"),
    (["aut", "--semiregular", "two", "{c6}"], "--semiregular"),
    (["--max-group-order", "0", "aut", "{cube}"], "--max-group-order"),
    (["--max-vertices", "-3", "iso", "{c3}", "{c3}"], "--max-vertices"),
])
def test_non_positive_numbers_are_input_errors(files, capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main([a.format(**files) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}:" in err and "Traceback" not in err


def test_cover_yes_no(files, capsys):
    assert main(["cover", files["cube"], files["k4"]]) == 0
    assert "yes" in capsys.readouterr().out
    assert main(["cover", files["c6"], files["c4"]]) == 1
    assert main(["cover", files["k4"], files["cube"]]) == 1


def test_cover_compares_graphs_past_the_vertex_cap(tmp_path, capsys):
    # every graph `cover` compares has at most |V(G)| vertices
    p = tmp_path / "c26.g"
    write_file(cycle(26), str(p))
    assert main(["--max-vertices", "30", "cover", str(p), str(p)]) == 0
    assert capsys.readouterr().out.startswith("yes (group order 1)")


def test_blocks_and_atoms(files, capsys):
    assert main(["blocks", files["c6"]]) == 0
    assert "center: block" in capsys.readouterr().out
    assert main(["atoms", files["theta"]]) == 0
    out = capsys.readouterr().out
    assert out.count("proper") == 3


def test_reduce_writes_series_and_sidecar(files, tmp_path, capsys):
    assert main(["reduce", files["theta"]]) == 0
    base = files["theta"][:-2]
    g1 = parse_file(base + ".g1.g")
    assert g1.n_vertices == 2 and g1.n_edges == 3
    with open(base + ".reduction.json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    assert sidecar["version"] == 1
    assert sidecar["primitive"] == "k2"
    assert len(sidecar["levels"]) == 2
    cls = sidecar["levels"][0]["classes"][0]
    assert cls["kind"] == "proper" and cls["symmetry"] == "halvable"
    assert "vertex" in cls["graph"]


def test_quotients_and_expand_roundtrip(files, capsys):
    assert main(["quotients", files["theta"], "--via", "reduction"]) == 0
    base = files["theta"][:-2]
    names = sorted(n for n in os.listdir(os.path.dirname(base))
                   if ".q" in n and n.endswith(".g"))
    assert len(names) == 3
    with open(base + ".quotients.json", encoding="utf-8") as fh:
        index = json.load(fh)
    assert index["via"] == "reduction"
    assert len(index["quotients"]) == 3
    assert main(["reduce", files["theta"]]) == 0
    assert main(["quotients", base + ".g2.g"]) == 0
    prim_quots = sorted(n for n in os.listdir(os.path.dirname(base))
                        if ".g2.q" in n and n.endswith(".g"))
    assert len(prim_quots) == 2
    # replay the stored sidecar against each primitive quotient; together
    # they reproduce the full quotient set of the original graph
    expanded = []
    for name in prim_quots:
        target = os.path.join(os.path.dirname(base), name)
        assert main(["expand", base + ".reduction.json", target]) == 0
        for out in sorted(os.listdir(os.path.dirname(base))):
            if ".x" in out and out.endswith(".g") and name[:-2] in out:
                expanded.append(parse_file(
                    os.path.join(os.path.dirname(base), out)))
    quots = [parse_file(os.path.join(os.path.dirname(base), n))
             for n in names]
    matched = 0
    for e in expanded:
        if any(are_isomorphic(e, q) is not None for q in quots):
            matched += 1
    assert matched == len(expanded) == 3


def test_expand_against_primitive_sidecar(files, capsys):
    # the cube is primitive: its sidecar has no levels, so the default
    # level is 0 and the quotient is written unchanged
    base = files["cube"][:-2]
    assert main(["reduce", files["cube"]]) == 0
    with open(base + ".reduction.json", encoding="utf-8") as fh:
        assert json.load(fh)["levels"] == []
    assert main(["expand", base + ".reduction.json", files["k4"]]) == 0
    out = files["k4"][:-2] + ".x0.g"
    with open(out, encoding="utf-8") as fh, \
            open(files["k4"], encoding="utf-8") as ref:
        assert fh.read() == ref.read()
    assert "1 expansions" in capsys.readouterr().out
    for level in ("1", "-1"):
        assert main(["expand", base + ".reduction.json", files["k4"],
                     "--level", level]) == 2
        assert "level must be in 0..0" in capsys.readouterr().err


def test_dot_outputs(files, capsys, tmp_path):
    assert main(["dot", files["cube"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    k2 = tmp_path / "k2.g"
    k2.write_text("vertex a\nvertex b\nedge e a b\n")
    assert main(["dot", str(k2)]) == 0
    out = capsys.readouterr().out
    assert '"a" -> "b"' in out
    hf = tmp_path / "hf.g"
    hf.write_text("vertex a\nhalfedge h a\n")
    assert main(["dot", str(hf)]) == 0
    out = capsys.readouterr().out
    assert "shape=point" in out and "style=dashed" in out
    assert main(["blocks", files["c6"], "--dot"]) == 0
    assert capsys.readouterr().out.startswith("graph blocktree")
    assert main(["reduce", files["theta"], "--dot"]) == 0
    assert capsys.readouterr().out.startswith("graph reduction")


def test_atoms_dot_shades_interior_vertices_of_any_name():
    # theta(1, 1, 1) with the arm vertices renamed: each arm is an atom
    # whose interior is its middle vertex
    b = GraphBuilder().vertex("u").vertex("v")
    for i, x in enumerate(('x"1', "y", "z")):
        b.vertex(x).edge(f"a{i}", "u", x).edge(f"b{i}", x, "v")
    g = b.build()
    lines = dotmod.atoms_to_dot(g, find_atoms(g)).splitlines()
    shaded = [line for line in lines if "style=filled" in line]
    assert len(shaded) == 3
    assert shaded[0].startswith('  "x\\"1" [style=filled')
    assert lines.count('  "u" [shape=doublecircle];') == 1


def test_dot_quotes_backslashes():
    g = GraphBuilder().vertex("a\\").vertex('b"').edge("e", "a\\", 'b"').build()
    lines = dotmod.graph_to_dot(g).splitlines()
    assert lines[3:6] == ['  "a\\\\";', '  "b\\"";',
                          '  "a\\\\" -> "b\\"" [label="0", style=solid];']


def test_written_quotients_read_back(tmp_path, capsys):
    # a vertex named `-` is renamed, since a halfedge line reads `-` as
    # no vertex; every file written parses to the quotient it was from
    dash, thetah = str(tmp_path / "dash.g"), str(tmp_path / "thetah.g")
    with open(dash, "w", encoding="utf-8") as fh:
        fh.write("vertex -\nvertex a\nedge e - a type=halvable\n")
    write_file(theta(2, 2, 2, edge_type=HALVABLE), thetah)
    for path in (dash, thetah):
        qs = all_quotients(normalize(parse_file(path)))
        assert main(["quotients", path]) == 0
        base = os.path.splitext(path)[0]
        for i, q in enumerate(qs):
            back = parse_file(f"{base}.q{i}.g")
            assert canonical_form(back) == canonical_form(q)
            assert main(["cover", path, f"{base}.q{i}.g"]) == 0
    capsys.readouterr()


def test_halvable_input_flag(tmp_path, capsys):
    p = tmp_path / "theta.g"
    write_file(theta(2, 2, 2), str(p))
    assert main(["quotients", str(p)]) == 0
    assert "1 quotients" in capsys.readouterr().out
    assert main(["--halvable-input", "quotients", str(p)]) == 0
    assert "3 quotients" in capsys.readouterr().out


def test_halvable_input_flag_applies_to_iso(tmp_path, capsys):
    h, u = tmp_path / "h.g", tmp_path / "u.g"
    h.write_text("vertex a\nvertex b\nedge e a b type=halvable\n")
    u.write_text("vertex a\nvertex b\nedge e a b\n")
    assert main(["iso", str(h), str(u)]) == 1
    assert capsys.readouterr().out == "not isomorphic\n"
    assert main(["--halvable-input", "iso", str(h), str(u)]) == 0
    assert capsys.readouterr().out == "isomorphic\n"
    assert main(["--halvable-input", "cover", str(h), str(u)]) == 0


def test_halvable_input_flag_applies_to_every_reader(tmp_path, monkeypatch,
                                                    capsys):
    u = tmp_path / "u.g"
    u.write_text("vertex a\nvertex b\nedge e a b\n")
    assert main(["dot", str(u)]) == 0
    assert "style=solid" in capsys.readouterr().out
    assert main(["--halvable-input", "dot", str(u)]) == 0
    assert "style=bold" in capsys.readouterr().out

    types = []
    for name in ("validate", "block_tree"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda g, _real=real: (
            types.append(set(g.edge_type.values())) or _real(g)))
    assert main(["--halvable-input", "validate", str(u)]) == 0
    assert main(["--halvable-input", "blocks", str(u)]) == 0
    assert types == [{HALVABLE}, {HALVABLE}]

    # the uncolored edge f of the quotient file keeps its type through
    # the expansion
    side = tmp_path / "s.reduction.json"
    side.write_text(json.dumps({"version": 1,
                                "levels": [{"classes": [_GOOD_ENTRY]}]}))
    q = tmp_path / "q.g"
    q.write_text("vertex a\nvertex b\nvertex c\n"
                 "edge e a b color=65536\nedge f b c\n")
    assert main(["--halvable-input", "expand", str(side), str(q)]) == 0
    x0 = (tmp_path / "q.x0.g").read_text()
    assert "edge f b c type=halvable" in x0


def test_fixtures_run(capsys):
    assert main(["--seed", "3", "fixtures", "run"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out
    assert "random-instances" in out


def test_fixtures_write_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REGCOVER_FIXTURE_DIR", str(tmp_path / "fx"))
    assert main(["fixtures", "write"]) == 0
    files = os.listdir(str(tmp_path / "fx"))
    assert "cube.g" in files and len(files) >= 30


def test_deterministic_outputs(files, tmp_path):
    g = parse_file(files["theta"])
    out1 = tmp_path / "a.g"
    out2 = tmp_path / "b.g"
    write_file(g, str(out1))
    write_file(parse_file(str(out1)), str(out2))
    assert out1.read_text() == out2.read_text()


REPO = os.path.dirname(os.path.dirname(os.path.dirname(regcover.__file__)))
SCRIPTS = os.path.join(REPO, "scripts")


@pytest.mark.parametrize("script", sorted(
    name for name in os.listdir(SCRIPTS) if name.endswith(".py")))
def test_script_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    run = subprocess.run([sys.executable, os.path.join(SCRIPTS, script)],
                         env=env, cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout


def test_reduce_forms_atoms_past_the_vertex_cap(tmp_path, monkeypatch):
    # theta(26, 26, 26) has 80 vertices and 28-vertex arms; the arms' forms
    # are bounded by their own size, not by the default cap of 24
    monkeypatch.chdir(tmp_path)
    write_file(theta(26, 26, 26), "t26.g")
    assert main(["--max-vertices", "100", "reduce", "t26.g"]) == 0
