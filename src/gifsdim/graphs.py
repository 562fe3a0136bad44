"""Directed multigraphs, strongly connected classes, and admissible words.

Countable vertex/edge sets are handled through deterministic enumerations:
every operation that needs concrete data materializes a finite prefix (a
"horizon").  The solver reads one graph path: the letters of a truncation
as a FiniteTransition, whose adjacency the system's letter-incidence table
gives (see GifsSystem.incidence), their strongly connected classes, and the
words over them, one level at a time.  Nothing here mutates shared state.
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


class FiniteTransition:
    """Materialized n-state view: the states, their index map, the n x n
    boolean adjacency matrix dense (dense[i, j] says state j may follow
    state i), and the ascending successor lists read off it."""

    def __init__(self, states, dense):
        self.states = list(states)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.dense = dense
        self.n = len(self.states)
        rows, cols = np.nonzero(dense)
        ends = np.searchsorted(rows, np.arange(self.n + 1)).tolist()
        cols = cols.tolist()
        self.succ = [cols[a:b] for a, b in zip(ends, ends[1:])]


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected classes in dependency order (upstream first).

    A class is trivial when it is a single state without a self-loop; such
    classes carry no periodic words and are kept but flagged.  horizon is
    the number of states searched.
    """

    classes: tuple
    trivial: tuple
    horizon: int

    def nontrivial_classes(self):
        return [c for c, t in zip(self.classes, self.trivial) if not t]


def strongly_connected_components(fin: FiniteTransition) -> SccDecomposition:
    """Tarjan's algorithm (iterative) on every state of fin.

    Classes come out in dependency order: if any edge runs from class X to
    class Y (X != Y) then X appears before Y.
    """
    n = fin.n
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
            row = fin.succ[v]
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
    classes = tuple(tuple(fin.states[i] for i in comp) for comp in comps)
    trivial = tuple(
        len(comp) == 1 and comp[0] not in fin.succ[comp[0]]
        for comp in comps
    )
    return SccDecomposition(classes=classes, trivial=trivial, horizon=fin.n)


def extend_words(adj, words):
    """One level of admissible words over letter positions, where adj[a, b]
    says b may follow a: the words one letter longer than the rows of words,
    each letter a in order followed by each word whose first letter a may
    precede, so a level in lexicographic order gives one.  Returns (words,
    tails, blocks): the new words as rows of positions, of words' dtype; the
    index of each new word's tail (word[1:]) in words; and the offsets at
    which each first letter's block of new words starts and ends.  Level 1
    is the letters themselves, np.arange(len(adj))[:, None]."""
    n = len(adj)
    groups = [np.flatnonzero(adj[a, words[:, 0]]) for a in range(n)]
    blocks = np.cumsum([0] + [len(t) for t in groups])
    tails = np.concatenate(groups)
    first = np.repeat(np.arange(n, dtype=words.dtype), np.diff(blocks))
    return np.column_stack((first, words[tails])), tails, blocks
