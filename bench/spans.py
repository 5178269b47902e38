"""Spans around the calls into each dawcox module's public functions.

The wrappers are installed from here at run time, so the program's own
files are untouched.  A span is (name, start, end, parent); spans are
kept in memory in flat arrays and written out once, when the traced
round ends.  A layer's self time is its span's duration minus the
durations of its child spans.  The wrappers return exactly what the
wrapped call returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager


def _letters(word) -> int:
    return sum(abs(e) for _, e in word)


# (span name, module, attribute, extra count name, count of one call)
SPANS = (
    ("dagroup.mul", "dawcox.dagroup", "DaweylElement.__mul__", None, None),
    ("dagroup.pow", "dawcox.dagroup", "DaweylElement.__pow__", None, None),
    ("dagroup.inv", "dawcox.dagroup", "DaweylElement.inv", None, None),
    ("dagroup.act", "dawcox.dagroup", "DaweylElement.act", None, None),
    ("dagroup.context", "dawcox.dagroup", "context", None, None),
    ("dagroup.walk", "dawcox.dagroup", "lam_word", None, None),
    ("dagroup.walk", "dawcox.dagroup", "tau_word", None, None),
    ("dagroup.bernstein", "dawcox.dagroup", "verify_bernstein_relations", None, None),
    ("weyl.mat_mul", "dawcox.weyl", "mat_mul", None, None),
    ("weyl.mat_inv", "dawcox.weyl", "mat_inv", None, None),
    ("weyl.reduced_word", "dawcox.weyl", "WeylGroup.reduced_word",
     "weyl.reduced_word.letters", lambda args, out: len(out)),
    ("weyl.enumerate", "dawcox.weyl", "WeylGroup.enumerate",
     "weyl.enumerate.elements", lambda args, out: len(out)),
    ("rootsys.build", "dawcox.rootsys", "build", None, None),
    ("rootsys.lattice_coords", "dawcox.rootsys", "RootSystemData.lattice_coords", None, None),
    ("rootsys.bilinear", "dawcox.rootsys", "RootSystemData.bilinear", None, None),
    ("presentation.build", "dawcox.presentation", "build_presentation", None, None),
    ("presentation.psi_words", "dawcox.presentation", "psi_words", None, None),
    ("presentation.evaluate", "dawcox.presentation", "GeneratorDictionary.evaluate",
     "presentation.evaluate.letters", lambda args, out: _letters(args[1])),
    ("autoaction.apply_word", "dawcox.autoaction", "EndoMap.apply_word", None, None),
    ("autoaction.canon_apply", "dawcox.autoaction", "CanonMap.apply", None, None),
    ("autoaction.canon_compose", "dawcox.autoaction", "CanonMap.compose", None, None),
    ("autoaction.canon", "dawcox.autoaction", "canon", None, None),
    ("autoaction.evaluate_braid", "dawcox.autoaction", "evaluate_braid",
     "autoaction.braid_letters", lambda args, out: _letters(args[0])),
    ("congruence.decompose", "dawcox.congruence", "decompose", None, None),
    ("diagrams.build_diagram", "dawcox.diagrams", "build_diagram", None, None),
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(self._id(name))
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, name: str, fn, count_name=None, count=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if count is not None:
                self.counts[count_name] = self.counts.get(count_name, 0) + count(args, out)
            return out

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name):
            dur = self.end[i] - self.start[i]
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent index], one per
        line, inside {"fields": ..., "spans": [...]}."""
        with open(path, "w") as fh:
            fh.write('{"fields": ["name", "start", "end", "parent"], "spans": [')
            for i, (n, s, e, p) in enumerate(zip(self.name, self.start, self.end, self.parent)):
                fh.write(("," if i else "") + "\n" + json.dumps([self.names[n], s, e, p]))
            fh.write("\n]}\n")


def install(tracer: Tracer):
    """Wrap every function in SPANS, in its defining module and in every
    dawcox module that imported it by name.  Returns a function that
    puts the originals back."""
    restore = []
    for name, module, attr, count_name, count in SPANS:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf]
        wrapper = tracer.wrap(name, original, count_name, count)
        targets = [owner] if path else [
            mod for key, mod in sys.modules.items()
            if key.startswith("dawcox") and mod.__dict__.get(leaf) is original
        ]
        for target in targets:
            restore.append((target, leaf, original))
            setattr(target, leaf, wrapper)

    def uninstall():
        for target, leaf, original in reversed(restore):
            setattr(target, leaf, original)

    return uninstall
