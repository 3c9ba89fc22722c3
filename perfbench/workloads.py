"""Inputs, operations and output checks of the benchmark workloads.

Every operation starts from serialized text and parses it, as the CLI
does.  ``Graph`` memoizes canonical-form data on the object and
``AtomClass`` memoizes its quotients, so an operation that reused a graph
from an earlier pass would time a warm cache instead of the work.

Program modules are reached through ``Api`` attributes at call time, so the
tracer's wrappers, once installed, are the functions that run.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import sys
from dataclasses import dataclass
from typing import Callable

WHY = {
    "corpus-quotients": "the paper's headline enumeration, all_quotients by "
                        "both routes on the 49-graph corpus; the only "
                        "workload that runs every layer",
    "beyond-cap": "reduction route on graphs with |Aut| above the cap of 200, "
                  "so the bruteforce route never runs; dominated by "
                  "canonical_form",
    "cover-decisions": "regular_cover_test on drawn yes/no pairs that pass "
                       "the count checks; semiregular subgroup search and "
                       "are_isomorphic, each G recurring",
    "subgroup-lattice": "conjugacy classes of all subgroups of Aut(G), |Aut| "
                        "<= 72 plus Petersen (S5); the only run of the "
                        "unrestricted subgroup closure",
}

# Corpus graphs whose subgroup lattice is enumerated, besides Petersen.
LATTICE_MAX_AUT = 72
# Pairs drawn per covering graph G and per answer in cover-decisions.
PAIRS_PER_ANSWER = 2


class Api:
    """The regcover modules under benchmark, imported on construction."""

    def __init__(self):
        for name in ("fixtures", "textfmt", "graph", "iso", "groups",
                     "quotient", "errors"):
            # import_module returns the module even where a package
            # attribute of that name is a function (regcover.quotient).
            setattr(self, name, importlib.import_module("regcover." + name))

    def read(self, text):
        """Parse and normalize, as every CLI command that computes does."""
        return self.graph.normalize(self.textfmt.parse(text))


def beyond_cap_graphs(fx):
    """Graphs whose |Aut| exceeds 200, with reduction-route times of
    roughly 15 ms to 1.4 s each."""
    halvable = sys.modules["regcover.graph"].HALVABLE

    def two_pendants(n):
        return fx.with_pendants(
            fx.cycle(n), [f"v{i}" for i in range(n) for _ in range(2)])

    return [
        ("theta1x7", fx.theta(*[1] * 7)),
        ("theta2x6", fx.theta(*[2] * 6)),
        ("C6tri", fx.cycle_with_triangles(6)),
        ("book6", fx.book(6)),
        ("theta1x6", fx.theta(*[1] * 6)),
        ("theta3x5", fx.theta(*[3] * 5)),
        ("theta2x5h", fx.theta(*[2] * 5, edge_type=halvable)),
        ("book5", fx.book(5)),
        ("D6", fx.dipole([0] * 6)),
        ("C6twopend", two_pendants(6)),
        ("C8twopend", two_pendants(8)),
    ]


def forms_digest(forms):
    return hashlib.sha256(b"\n".join(forms)).hexdigest()


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass
class Workload:
    name: str
    ops: list
    inputs: list          # (name, |V|, darts, |Aut|)
    probes: list          # Ops whose G is beyond the group-order cap


def _quotients_op(api, name, text, via, ref):
    def run():
        g = api.read(text)
        return [api.textfmt.serialize(q)
                for q in api.quotient.all_quotients(g, via=via)]

    def check(texts):
        forms = [api.iso.canonical_form(api.textfmt.parse(t)) for t in texts]
        if len(forms) != ref["quotients"] or forms_digest(forms) != ref["digest"]:
            return (f"{len(forms)} quotients, expected {ref['quotients']}, "
                    "or canonical forms differ from the reference")
        return None
    return Op(name, via, run, check)


def _check_cover(api, g, h, witness, expected):
    """None when the decision is right and its witness holds, else why."""
    if not expected:
        return None if witness is None else "cover found, expected none"
    if witness is None:
        return "no cover found, expected one"
    k = g.n_vertices // h.n_vertices
    if not api.groups.is_semiregular(witness):
        return "witness is not semiregular"
    if witness.order != k:
        return f"witness has order {witness.order}, expected {k}"
    q = api.quotient.quotient(g, witness).result
    if api.iso.canonical_form(q) != api.iso.canonical_form(h):
        return "G/witness is not isomorphic to H"
    return None


def _cover_op(api, name, g_text, h_text, expected):
    def run():
        g, h = api.read(g_text), api.read(h_text)
        return g, h, api.quotient.regular_cover_test(g, h)

    def check(result):
        return _check_cover(api, *result, expected)
    return Op(name, "yes" if expected else "no", run, check)


def _lattice_op(api, name, text, ref):
    def run():
        g = api.read(text)
        aut = api.groups.automorphism_group(g)
        return api.groups.conjugacy_classes_of_subgroups(aut)

    def check(classes):
        n_classes = len(classes)
        n_subgroups = sum(len(c) for c in classes)
        hist = {str(k): v for k, v in sorted(
            api.groups.subgroup_order_histogram(classes).items())}
        if (n_classes, n_subgroups) != (ref["classes"], ref["subgroups"]):
            return (f"{n_classes} classes / {n_subgroups} subgroups, expected "
                    f"{ref['classes']} / {ref['subgroups']}")
        if hist != ref["histogram"]:
            return f"class order histogram {hist} differs from the reference"
        return None
    return Op(name, "lattice", run, check)


def _describe(api, name, text, aut):
    g = api.read(text)
    return (name, g.n_vertices, g.n_darts, aut)


def build(name, api, refs, seed):
    """The workload's operations in seeded order, and its input listing."""
    rng = random.Random(seed)
    fx, ser = api.fixtures, api.textfmt.serialize
    corpus = [(n, ser(g)) for n, g in fx.expansion_corpus()]
    ops, inputs, probes = [], [], []
    if name == "corpus-quotients":
        rng.shuffle(corpus)
        for n, text in corpus:
            ref = refs["corpus"][n]
            inputs.append(_describe(api, n, text, ref["aut"]))
            for via in ("bruteforce", "reduction"):
                ops.append(_quotients_op(api, n, text, via, ref))
    elif name == "beyond-cap":
        graphs = [(n, ser(g)) for n, g in beyond_cap_graphs(fx)]
        rng.shuffle(graphs)
        texts = dict(graphs)
        for n, text in graphs:
            ref = refs["beyond_cap"][n]
            inputs.append(_describe(api, n, text, ref["aut"]))
            ops.append(_quotients_op(api, n, text, "reduction", ref))
        for p in refs["probes"]:
            probes.append(_cover_op(api, f"{p['g']}->{p['h']}", texts[p["g"]],
                                    p["h_text"], p["expected"]))
    elif name == "cover-decisions":
        cover = refs["cover"]
        texts = dict(corpus)
        for g_name in sorted(cover["candidates"]):
            cands = cover["candidates"][g_name]
            inputs.append(_describe(api, g_name, texts[g_name],
                                    refs["corpus"][g_name]["aut"]))
            for expected, key in ((True, "yes"), (False, "no")):
                pick = rng.sample(cands[key],
                                  min(PAIRS_PER_ANSWER, len(cands[key])))
                for h_name in pick:
                    ops.append(_cover_op(api, f"{g_name}->{h_name}",
                                         texts[g_name], cover["pool"][h_name],
                                         expected))
        rng.shuffle(ops)
    elif name == "subgroup-lattice":
        rng.shuffle(corpus)
        for n, text in corpus:
            if n not in refs["lattice"]:
                continue
            inputs.append(_describe(api, n, text, refs["corpus"][n]["aut"]))
            ops.append(_lattice_op(api, n, text, refs["lattice"][n]))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, ops, inputs, probes)
