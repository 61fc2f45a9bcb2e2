"""Spans at the package's layer boundaries, recorded from outside.

The benchmark calls each layer through an ``api`` namespace.  Untraced,
its entries are the package's own functions.  Traced, each entry is a
wrapper that records a span (name, start, end, parent) in memory, and the
same wrapper is also bound, for the length of a traced batch, in every
package module that looks the entry point up in another module (for
example ``groups.StabilizerChain``), so calls the package makes between
its own layers are recorded too.  A span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import operator
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

# Entry points, named "<module>.<name>", and the package modules whose
# globals hold a reference the traced run rebinds.  groups looks
# verify_deck_size up in itself, from verify_deck_sizes.
ENTRY_POINTS = {
    "cli.main": (),
    "groups.verify_deck_size": ("groups",),
    "groups.pair_kernel_order": ("groups",),
    "groups.predict_group": ("groups", "cli"),
    "groups.computed_parity_row": ("groups",),
    "bsgs.StabilizerChain": ("groups", "cli"),
    "bsgs.bfs_enumerate": ("groups", "cli"),
    "bsgs.contains": (),
    "shuffles.word_permutation": ("cli",),
    "shuffles.shuffle_permutation": ("groups", "cli"),
    "shuffles.shuffle_order": ("cli",),
    "elmsley.perfect_elmsley_word": ("cli",),
    "elmsley.unshuffle_swap_word": ("cli",),
    "perm.mul": (),
    "perm.inverse": (),
    "perm.order": (),
    "perm.parity": (),
    "perm.cycles": (),
}


def _function(pkg, name):
    module, attr = name.split(".")
    if module == "perm":
        return operator.mul if attr == "mul" else getattr(pkg.perm.Permutation, attr)
    if name == "bsgs.contains":
        return pkg.bsgs.StabilizerChain.contains
    return getattr(getattr(pkg, module), attr)


def api(pkg) -> SimpleNamespace:
    """The untraced entry points, by their short name (``api.contains``)."""
    return SimpleNamespace(**{name.split(".")[1]: _function(pkg, name) for name in ENTRY_POINTS})


class Tracer:
    """Spans and exact work counts, kept in memory."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list = []
        self.counts: Counter = Counter()
        self.chains: list = []
        self._open = -1
        self._wrapped = {name: self._wrap(name, _function(pkg, name)) for name in ENTRY_POINTS}
        self.api = SimpleNamespace(
            **{name.split(".")[1]: fn for name, fn in self._wrapped.items()}
        )

    def _wrap(self, name, fn):
        spans = self.spans
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            parent = self._open
            index = len(spans)
            spans.append(None)
            self._open = index
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open = parent
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(result, *args)
            return result

        return traced

    # exact counts, taken at the boundary after the span has closed

    def _after_bsgs_StabilizerChain(self, chain, *args):
        self.chains.append(chain)

    def _after_bsgs_bfs_enumerate(self, closure, *args):
        self.counts["bsgs.bfs_enumerate.elements"] += closure.order

    def _after_bsgs_contains(self, member, *args):
        self.counts["bsgs.contains.members"] += bool(member)

    def _after_shuffles_word_permutation(self, result, word, deck_size):
        steps = len(self.pkg.shuffles.as_word(word))
        self.counts["shuffles.word_permutation.points"] += steps * deck_size

    @contextmanager
    def bound(self):
        """Rebind the traced entry points inside the package's modules."""
        saved = []
        try:
            for name, lookers in ENTRY_POINTS.items():
                attr = name.split(".")[1]
                for looker in lookers:
                    module = getattr(self.pkg, looker)
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, self._wrapped[name])
            yield self.api
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take(self) -> dict:
        """Per-layer totals and exact counts since the last take, then reset."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: defaultdict = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[index]
        counts = Counter(self.counts)
        for chain in self.chains:
            counts["bsgs.chain.levels"] += len(chain.base)
            counts["bsgs.chain.strong_gens"] += len(chain.strong_generators)
            counts["bsgs.chain.orbit_points"] += sum(len(t) for t in chain.transversals)
        self.spans.clear()
        self.counts.clear()
        self.chains.clear()
        return {"calls": calls, "s": total, "self_s": own, "counts": counts}
