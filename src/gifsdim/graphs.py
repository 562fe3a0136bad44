"""Directed multigraphs, strongly connected classes, and admissible words.

Countable vertex/edge sets are handled through deterministic enumerations:
every operation that needs concrete data materializes a finite prefix (a
"horizon").  The solver reads one graph path: the letters of a truncation,
where b may follow a exactly when a ends where b starts (GifsSystem.incidence
gives both ends), so classes are found on the vertices and words grow one
level at a time, with no letter graph formed.  Nothing here mutates shared
state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class Enumeration:
    """Deterministic enumeration of a finite or countable set.

    Finite sets are built from a sequence; countable ones from a zero-arg
    factory returning a fresh iterator.  Prefixes are cached, so indexing is
    stable for the lifetime of the object.
    """

    def __init__(self, items=None, factory=None):
        if (items is None) == (factory is None):
            raise ValueError("exactly one of items/factory required")
        if items is not None:
            self._cache = list(items)
            self._iter = None
            self._finite = True
        else:
            self._cache = []
            self._iter = factory()
            self._finite = False

    @property
    def is_finite(self):
        return self._finite

    def prefix(self, k):
        """First min(k, size) elements as a list."""
        if k < 0:
            raise ValueError("negative prefix length")
        while not self._finite and len(self._cache) < k:
            try:
                self._cache.append(next(self._iter))
            except StopIteration:
                self._finite = True
                break
        return self._cache[:k]


@dataclass(frozen=True)
class DirectedMultigraph:
    """Directed multigraph with countably many vertices and edges.

    `initial`/`terminal` map an edge id to its endpoints.  `simple` records
    what the constructor knows: True/False, or None when unknown.
    """

    vertices: Enumeration
    edges: Enumeration
    initial: Callable
    terminal: Callable
    simple: Optional[bool] = None

    def edge_prefix(self, k):
        return self.edges.prefix(k)

    def vertex_prefix(self, k):
        return self.vertices.prefix(k)


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected classes in dependency order (upstream first).

    A class is trivial when it is a single node without a self-loop; such
    classes carry no periodic words and are kept but flagged.  horizon is
    the number of nodes searched.
    """

    classes: tuple
    trivial: tuple
    horizon: int

    def nontrivial_classes(self):
        return [c for c, t in zip(self.classes, self.trivial) if not t]


def strongly_connected_components(succ) -> SccDecomposition:
    """Tarjan's algorithm (iterative) on the nodes 0..n-1, where succ[v]
    lists the successors of node v.

    Classes come out in dependency order, each as its nodes ascending: if
    any edge runs from class X to class Y (X != Y) then X appears before Y.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = itertools.count()

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = next(counter)
                stack.append(v)
                on_stack[v] = True
            advanced = False
            row = succ[v]
            while pi < len(row):
                w = row[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])

    # Tarjan emits sinks first; dependency order is the reverse.
    comps.reverse()
    trivial = tuple(len(comp) == 1 and comp[0] not in succ[comp[0]] for comp in comps)
    return SccDecomposition(classes=tuple(map(tuple, comps)), trivial=trivial, horizon=n)


def extend_words(initial, terminal, words):
    """One level of admissible words over letter positions, where b may
    follow a when terminal[a] == initial[b]: each letter a in order followed
    by each word of words whose first letter may follow a, so a level in
    lexicographic order gives one.  The words are grouped once by their
    first letter's initial vertex, and a takes the group of terminal[a].
    Returns (words, tails, blocks): the new words, of words' dtype; the
    index of each one's tail (word[1:]) in words; and the offsets at which
    each first letter's block starts and ends.  Level 1 is the letters
    themselves, np.arange(len(initial))[:, None]."""
    starts_at = initial[words[:, 0]]
    order = np.argsort(starts_at, kind="stable")
    sizes = np.bincount(starts_at, minlength=int(terminal.max(initial=-1)) + 1)
    runs = sizes[terminal]
    blocks = np.concatenate(([0], np.cumsum(runs)))
    group = (np.cumsum(sizes) - sizes)[terminal]
    tails = order[np.repeat(group - blocks[:-1], runs) + np.arange(blocks[-1])]
    first = np.repeat(np.arange(len(initial), dtype=words.dtype), runs)
    return np.column_stack((first, words[tails])), tails, blocks
