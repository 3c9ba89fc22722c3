"""Regenerate ``refs.json``, the expected outputs the benchmark checks.

    python3 perfbench/make_refs.py

Takes about a minute.  Every entry names where its values come from:

- corpus quotient lists: both routes, which must agree;
- beyond-cap quotient lists: the bruteforce route run with ``max_order``
  raised to |Aut| where it finishes in seconds, checked against the
  reduction route; elsewhere the reduction route alone, labelled so;
- cover answers: membership of H's canonical form in G's reduction-route
  quotient list, never the bruteforce decision under test;
- subgroup lattices: published subgroup and class counts where the group
  is known, checked against the program, else the program's output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import regcover  # noqa: E402
from regcover import fixtures, graph, textfmt  # noqa: E402
from regcover.groups import (automorphism_group,  # noqa: E402
                             conjugacy_classes_of_subgroups,
                             count_automorphisms, subgroup_order_histogram)
from regcover.iso import canonical_form  # noqa: E402

import workloads  # noqa: E402

# Bruteforce runs with a raised group-order cap that finish in seconds.
RAISED_CAP = ("book5", "theta3x5", "theta2x5h", "C6twopend")

# Order, conjugacy classes of subgroups, and subgroups of S4, S4 x C2 and
# S5; the dihedral group D_n of order 2n has tau(n) + sigma(n) subgroups.
PUBLISHED = {"S4": (24, 11, 30), "S4xC2": (48, 33, 98), "S5": (120, 19, 156)}
# Aut(G) of corpus graphs: a published group, or n for the dihedral D_n.
GROUP_OF = {
    "K4": "S4", "K4pend": "S4",
    "cube": "S4xC2", "cubeh": "S4xC2", "theta1111h": "S4xC2",
    "petersen": "S5",
    **{f"C{n}": n for n in range(2, 9)},
    "C4h": 4, "C6h": 6, "C8h": 8,
    "theta111": 6, "D3u": 6, "book3": 6, "prism3": 6, "prism5": 10,
}


def _tau_sigma(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return len(divisors) + sum(divisors)


def read(g):
    return graph.normalize(textfmt.parse(textfmt.serialize(g)))


def route_forms(g, via, max_order=regcover.groups.MAX_GROUP_ORDER):
    qs = regcover.all_quotients(read(g), via=via, max_order=max_order)
    forms = [canonical_form(q) for q in qs]
    reparsed = [canonical_form(textfmt.parse(textfmt.serialize(q)))
                for q in qs]
    if forms != reparsed:
        raise SystemExit(f"serialization does not round-trip on {via}")
    return qs, forms


def entry(g, forms, provenance, aut):
    return {"vertices": g.n_vertices, "darts": g.n_darts, "aut": aut,
            "quotients": len(forms), "digest": workloads.forms_digest(forms),
            "provenance": provenance}


def count_check(g, h):
    if g.n_vertices % h.n_vertices:
        return False
    k = g.n_vertices // h.n_vertices
    return k >= 2 and g.n_darts == k * h.n_darts


def main():
    refs = {"corpus": {}, "beyond_cap": {}, "probes": [], "lattice": {},
            "cover": {"pool": {}, "candidates": {},
                      "provenance": "H is a cover iff its canonical form is "
                                    "in G's reduction-route quotient list"}}
    pool = {}          # canonical form -> (pool name, normalized graph)
    quotient_forms = {}
    corpus = [(n, read(g)) for n, g in fixtures.expansion_corpus()]
    for n, g in corpus:
        pool.setdefault(canonical_form(g), (n, g))
    for n, g in corpus:
        _, brute = route_forms(g, "bruteforce")
        qs, forms = route_forms(g, "reduction")
        if brute != forms:
            raise SystemExit(f"routes disagree on {n}")
        refs["corpus"][n] = entry(g, forms, "bruteforce and reduction routes "
                                  "agree", count_automorphisms(g))
        quotient_forms[n] = set(forms)
        for i, q in enumerate(qs):
            q = graph.normalize(q)
            pool.setdefault(canonical_form(q), (f"{n}/q{i}", q))
        print(n, refs["corpus"][n]["quotients"], flush=True)

    for n, g in corpus:
        cands = {"yes": [], "no": []}
        for _, (h_name, h) in sorted(pool.items(), key=lambda kv: kv[1][0]):
            if count_check(g, h):
                yes = canonical_form(h) in quotient_forms[n]
                cands["yes" if yes else "no"].append(h_name)
                refs["cover"]["pool"][h_name] = textfmt.serialize(h)
        if cands["yes"] or cands["no"]:
            refs["cover"]["candidates"][n] = cands

    beyond = []
    for n, g in workloads.beyond_cap_graphs(fixtures):
        g = read(g)
        aut = count_automorphisms(g)
        qs, forms = route_forms(g, "reduction")
        provenance = ("baseline reduction route; bruteforce exceeds the "
                      "group-order cap")
        if n in RAISED_CAP:
            _, brute = route_forms(g, "bruteforce", max_order=aut)
            if brute != forms:
                raise SystemExit(f"routes disagree on {n}")
            provenance = (f"bruteforce route with max_order={aut} agrees "
                          "with the reduction route")
        refs["beyond_cap"][n] = entry(g, forms, provenance, aut)
        beyond.append((n, g, set(forms)))
        for i, q in enumerate(qs):
            q = graph.normalize(q)
            pool.setdefault(canonical_form(q), (f"{n}/q{i}", q))
        print(n, aut, len(forms), flush=True)

    # One yes and one no probe per beyond-cap graph, where such an H exists.
    for n, g, forms in beyond:
        found = {}
        for _, (h_name, h) in sorted(pool.items(), key=lambda kv: kv[1][0]):
            if count_check(g, h):
                found.setdefault(canonical_form(h) in forms, (h_name, h))
        for expected in (True, False):
            if expected in found:
                h_name, h = found[expected]
                refs["probes"].append({
                    "g": n, "h": h_name, "h_text": textfmt.serialize(h),
                    "expected": expected,
                    "provenance": refs["beyond_cap"][n]["provenance"]})

    for n, g in corpus:
        aut = refs["corpus"][n]["aut"]
        if aut > workloads.LATTICE_MAX_AUT and n != "petersen":
            continue
        classes = conjugacy_classes_of_subgroups(automorphism_group(g))
        got = (len(classes), sum(len(c) for c in classes))
        hist = {str(k): v for k, v in sorted(
            subgroup_order_histogram(classes).items())}
        group = GROUP_OF.get(n)
        if group is None:
            provenance = "baseline program output"
        elif isinstance(group, int):
            m = group
            if aut != 2 * m or got[1] != _tau_sigma(m):
                raise SystemExit(f"{n}: D_{m} expects {_tau_sigma(m)} "
                                 f"subgroups, got {got[1]}")
            provenance = (f"published: D_{m} has tau({m})+sigma({m}) = "
                          f"{got[1]} subgroups; classes and histogram are "
                          "baseline program output")
        else:
            if (aut, *got) != PUBLISHED[group]:
                raise SystemExit(f"{n}: {group} expects {PUBLISHED[group]}, "
                                 f"got {got}")
            provenance = (f"published: {group} has {got[0]} conjugacy "
                          f"classes and {got[1]} subgroups; histogram is "
                          "baseline program output")
        refs["lattice"][n] = {"classes": got[0], "subgroups": got[1],
                              "histogram": hist, "provenance": provenance}
        print(n, got, flush=True)

    with open(HERE / "refs.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
