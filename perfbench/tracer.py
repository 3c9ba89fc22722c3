"""Outside-in tracer: wraps regcover's public functions from the benchmark.

Nothing inside ``src/`` knows about it.  ``Tracer.install`` replaces each
listed function in every ``regcover.*`` module namespace that bound it (a
``from .iso import canonical_form`` in ``quotient.py`` is its own binding),
so calls between modules, and the recursion in ``all_quotients``, pass
through the wrapper.  Generators are timed per ``next()`` call, so a span
covers only the work done to produce one item, and the consumer's own work
between items is charged to the consumer.

Each span records its name, start, end, parent span and the operation it
belongs to.  Spans stay in memory and are written by ``write_spans`` at the
end of a run.  A span's self time is its duration minus the time covered
by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_RCT = "quotient.regular_cover_test"
_ALL = "quotient.all_quotients"


def _inside(tracer, name):
    return any(frame[0] == name for frame in tracer._stack)


def _count_calls(name):
    def hook(tracer, args, kwargs, result):
        tracer.counts[name + ".calls"] += 1
    return hook


def _count_len(name, what):
    def hook(tracer, args, kwargs, result):
        tracer.counts[f"{name}.{what}"] += len(result)
    return hook


def _automorphism_group(tracer, args, kwargs, result):
    tracer.counts["groups.automorphism_group.elements"] += result.order


def _reduction_series(tracer, args, kwargs, result):
    tracer.counts["reduction.reduction_series.depth"] += result.depth


def _quotient(tracer, args, kwargs, result):
    tracer.counts["quotient.quotient.calls"] += 1
    if _inside(tracer, _RCT):
        tracer.counts["quotient.regular_cover_test.tries"] += 1


def _all_quotients(tracer, args, kwargs, result):
    if not _inside(tracer, _ALL):
        tracer.counts["quotient.all_quotients.kept"] += len(result)


def _dedup_sorted(tracer, args, kwargs, result):
    # Dedup directly under a reduction-route all_quotients follows one level
    # of expansion; under the bruteforce route it dedups raw quotients.
    parent = tracer._stack[-1] if tracer._stack else None
    if parent is not None and parent[0] == _ALL and parent[4] == "reduction":
        tracer.counts["quotient.expand_step.kept"] += len(result)


def _via(fn):
    """Tag for all_quotients spans: the route it takes."""
    signature = inspect.signature(fn)

    def tag(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["via"]
    return tag


# (module, function, count hook, tag factory).  The factory, given the
# original function, returns a function of the call's arguments whose value
# is stored on the span frame, for the hooks of child spans to read.
TARGETS = [
    ("textfmt", "parse", None, None),
    ("textfmt", "serialize", None, None),
    ("graph", "normalize", None, None),
    ("iso", "canonical_form", _count_calls("iso.canonical_form"), None),
    ("iso", "are_isomorphic", _count_calls("iso.are_isomorphic"), None),
    ("iso", "automorphisms_iter", None, None),
    ("groups", "automorphism_group", _automorphism_group, None),
    ("groups", "semiregular_subgroups",
     _count_len("groups.semiregular_subgroups", "subgroups"), None),
    ("groups", "all_subgroups", _count_len("groups.all_subgroups", "subgroups"),
     None),
    ("groups", "conjugacy_classes_of_subgroups",
     _count_len("groups.conjugacy_classes_of_subgroups", "classes"), None),
    ("blocks", "block_tree", _count_calls("blocks.block_tree"), None),
    ("atoms", "find_atoms", _count_len("atoms.find_atoms", "atoms"), None),
    ("atoms", "classify_primitive", _count_calls("atoms.classify_primitive"),
     None),
    ("reduction", "reduction_series", _reduction_series, None),
    ("reduction", "reduce_step", _count_calls("reduction.reduce_step"), None),
    ("quotient", "quotient", _quotient, None),
    ("quotient", "atom_quotients", _count_calls("quotient.atom_quotients"),
     None),
    ("quotient", "expand_step", _count_len("quotient.expand_step", "made"),
     None),
    ("quotient", "_dedup_sorted", _dedup_sorted, None),
    ("quotient", "all_quotients", _all_quotients, _via),
    ("quotient", "regular_cover_test", _count_calls(_RCT), None),
]
GENERATORS = {("iso", "automorphisms_iter")}
# Cached properties are wrapped on their class: the first access per object
# computes the value, later ones read it from the instance.
PROPERTIES = [("groups", "Group", "table")]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans = []                  # [name, start, end, parent, op]
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []                 # [name, start, child, span, tag]
        self._undo = []

    # -- spans -----------------------------------------------------------

    def _enter(self, name, tag=None):
        parent = self._stack[-1][3] if self._stack else None
        index = len(self.spans)
        start = time.perf_counter()
        self.spans.append([name, start, None, parent, self.op])
        self._stack.append([name, start, 0.0, index, tag])

    def _exit(self):
        end = time.perf_counter()
        name, start, child, index, _ = self._stack.pop()
        self.spans[index][2] = end
        duration = end - start
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def paused(self):
        """Run program code (such as output checks) without recording it."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def take(self):
        """Self times and counts since the last call; spans are kept."""
        out = dict(self.self_time), dict(self.counts)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        return out

    # -- wrappers --------------------------------------------------------

    def _wrap_function(self, name, fn, hook, tag):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._enter(name, tag(args, kwargs) if tag else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def _wrap_generator(self, name, fn):
        yielded = name + ".yielded"

        def traced(it):
            try:
                while True:
                    self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    self.counts[yielded] += 1
                    yield item
            finally:
                it.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            return traced(it) if self.enabled else it
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self):
        """Patch every target into each regcover module that bound it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "regcover" or key.startswith("regcover.")]
        for module, func, hook, tag in TARGETS:
            # regcover.quotient is the function of that name, so modules are
            # looked up in sys.modules, never as package attributes.
            original = getattr(sys.modules["regcover." + module], func)
            name = f"{module}.{func}"
            if (module, func) in GENERATORS:
                wrapped = self._wrap_generator(name, original)
            else:
                wrapped = self._wrap_function(
                    name, original, hook, tag(original) if tag else None)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, original))
        for module, cls_name, attr in PROPERTIES:
            cls = getattr(sys.modules["regcover." + module], cls_name)
            prop = cls.__dict__[attr]
            name = f"{module}.{cls_name}.{attr}"
            wrapped = functools.cached_property(self._wrap_function(
                name, prop.func, _count_calls(name), None))
            wrapped.__set_name__(cls, attr)
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, prop))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent, operation."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
