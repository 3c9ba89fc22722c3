"""Ownership: every graph regcover builds is freed by reference counting.

A value cached on an object never refers back to it, and no recursion
keeps a frame alive (see `graph.cached`), so a call leaves nothing that
only the cyclic collector could free.  Views that name a graph are made
when they are read and hold it themselves, so they work after the caller
has dropped the graph.
"""

import contextlib
import gc
import importlib
import io
import json
import pathlib

from regcover import cli
from regcover.atoms import find_atoms
from regcover.blocks import block_tree
from regcover.dot import reduction_tree_to_dot
from regcover.fixtures import bowtie, expansion_corpus, theta, with_pendants
from regcover.graph import HALVABLE, connected_components, normalize
from regcover.groups import (automorphism_group,
                             conjugacy_classes_of_subgroups)
from regcover.iso import are_isomorphic, canonical_form, count_automorphisms
from regcover.reduction import reduction_series
from regcover.textfmt import parse, serialize, write_file

from test_iso import _beyond_cap_graphs

quotient = importlib.import_module("regcover.quotient")

REFS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"


def _cyclic_garbage(fn):
    """The types of the objects that only the cyclic collector frees after
    fn runs with the collector off."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return sorted({type(x).__qualname__ for x in gc.garbage})
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.enable()


def _texts():
    return ([serialize(g) for _, g in expansion_corpus()]
            + [serialize(g) for g in _beyond_cap_graphs()])


def _cover_pairs():
    """(G text, H text, answer): the first yes and no candidate of a few
    covering graphs of the benchmark's cover decisions."""
    cover = json.loads(REFS.read_text())["cover"]
    corpus = dict(expansion_corpus())
    pairs = []
    for name in ("C6h", "cube", "D22", "K33", "petersen"):
        for answer in ("yes", "no"):
            h = cover["candidates"][name][answer][0]
            pairs.append((serialize(corpus[name]), cover["pool"][h],
                          answer == "yes"))
    return pairs


def _read(text):
    return normalize(parse(text))


def _forms(text):
    """The canonical form of a graph read twice, and the isomorphism
    between the two readings."""
    g, h = _read(text), _read(text)
    return canonical_form(g, max_vertices=None), are_isomorphic(
        g, h, max_vertices=None)


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_library_calls_leave_no_cyclic_garbage():
    texts, corpus = _texts(), [serialize(g) for _, g in expansion_corpus()]
    calls = {
        "parse, canonical_form, are_isomorphic": lambda: [
            _forms(t) for t in texts],
        "automorphism_group, conjugacy classes": lambda: [
            conjugacy_classes_of_subgroups(automorphism_group(g))
            for g in map(_read, corpus) if count_automorphisms(g) <= 72],
        "all_quotients by both routes": lambda: [
            quotient.all_quotients(_read(t), via=via) for t in corpus
            for via in ("bruteforce", "reduction")],
        "beyond-cap quotients": lambda: [
            quotient.all_quotients(_read(t), via="reduction")
            for t in texts[len(corpus):]],
        "reduction_series, expansion_chain, dot": lambda: [
            (reduction_tree_to_dot(s),
             quotient.expansion_chain(quotient.all_quotients(
                 s.graphs[-1])[0], s))
            for s in (reduction_series(_read(t)) for t in texts)],
    }
    for what, call in calls.items():
        assert _cyclic_garbage(call) == [], what

    answers = []
    found = _cyclic_garbage(lambda: answers.extend(
        (quotient.regular_cover_test(_read(g), _read(h)) is not None) == yes
        for g, h, yes in _cover_pairs()))
    assert found == []
    assert len(answers) == 10 and all(answers)


def test_cli_commands_leave_no_cyclic_garbage(tmp_path):
    graphs = dict(expansion_corpus())
    for name in ("cube", "theta222h", "C4loopsh", "K4", "petersen"):
        write_file(graphs[name], str(tmp_path / f"{name}.g"))
    path = {name: str(tmp_path / f"{name}.g") for name in graphs}
    commands = []
    for name in ("cube", "theta222h", "C4loopsh"):
        g = path[name]
        commands += [["validate", g], ["iso", "--witness", g, g], ["aut", g],
                     ["aut", "--semiregular", "2", g], ["blocks", g],
                     ["blocks", "--dot", g], ["atoms", g],
                     ["atoms", "--dot", g], ["reduce", g],
                     ["reduce", "--dot", g], ["dot", g]]
        for via in ("bruteforce", "reduction"):
            commands.append(["quotients", "--via", via, g])
    commands += [["cover", path["cube"], path["K4"]],
                 ["cover", path["petersen"], path["K4"]],
                 ["expand", str(tmp_path / "theta222h.reduction.json"),
                  str(tmp_path / "theta222h.g1.g")]]
    # the one parser of the process is built first: argparse leaves its
    # help formatters to the collector, once
    cli._parser()
    codes = []
    for argv in commands:
        assert _cyclic_garbage(lambda: codes.append(_run_cli(argv))) == [], \
            argv
    assert codes[-3:] == [cli.EXIT_OK, cli.EXIT_NO, cli.EXIT_OK]
    assert set(codes[:-3]) == {cli.EXIT_OK}


def test_views_work_after_the_caller_drops_the_graph():
    # each graph here is built, used through its view and dropped at once:
    # the view must hold what it reads, not a dangling back-reference
    def host():
        return normalize(with_pendants(bowtie(), ["c"]))

    def halvable():
        return theta(2, 2, 2, edge_type=HALVABLE)

    held, held_theta = host(), halvable()
    comp = connected_components(host())[0]
    bt = block_tree(host())
    atom = find_atoms(halvable())[0]
    gc.collect()

    assert comp.to_graph() == connected_components(held)[0].to_graph()
    held_bt = block_tree(held)
    assert [bt.block_graph(i) for i in range(len(bt.blocks))] == [
        held_bt.block_graph(i) for i in range(len(held_bt.blocks))]
    for node in bt.nodes:
        assert bt.part_ref(node).to_graph() == held_bt.part_ref(
            node).to_graph()

    held_atom = find_atoms(held_theta)[0]
    assert atom.as_graph() == held_atom.as_graph()
    aut = automorphism_group(held_theta)
    assert quotient.atom_projection_type(atom, aut) == "half"
    assert (quotient.atom_projection_type(atom, aut)
            == quotient.atom_projection_type(held_atom, aut))
    pieces, held_pieces = (quotient.atom_quotients(a)
                           for a in (atom, held_atom))
    assert pieces == held_pieces
    assert pieces.half_quotients
