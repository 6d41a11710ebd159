"""Bipartite matching machinery: maximum matching and deficiency certificates.

One in-order augmenting loop serves both jobs: each breadth-first
alternating tree grown from a new left vertex either reaches an unmatched
right vertex (an augmenting path for `maximum_matching`) or closes. The
first tree that closes is the minimal Hall violator; `violator_or_matching`
returns it, or the left-saturating matching when no tree closes. A matching
is a plain dict from each matched left vertex to its right partner.
"""

from __future__ import annotations

import operator
from collections.abc import Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass

from .prefs import integer_ids, is_integer


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph on left vertices 1..n_left and right vertices 1..n_right.

    ``adj[x - 1]`` holds the right-side neighbors of left vertex ``x`` as a
    sorted, duplicate-free tuple of ints, so ``n_left`` is ``len(adj)``.
    ``adj`` may be given as any iterable of rows, each an iterable of
    integer ids (`prefs.is_integer`); the graph stores a tuple of tuples of
    Python ints, and ``n_right`` through ``operator.index``. The constructor
    checks every row.
    """

    n_right: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "n_right", operator.index(self.n_right))
        if self.n_right < 0:
            raise ValueError("right vertex count must be nonnegative")
        object.__setattr__(
            self, "adj", tuple(integer_ids(row, tuple, "right vertices") for row in self.adj)
        )
        for row in self.adj:
            if list(row) != sorted(set(row)):
                raise ValueError("adjacency rows must be sorted and duplicate-free")
            # a sorted row is in range when its two ends are
            if row and (row[0] < 1 or row[-1] > self.n_right):
                raise ValueError(f"right vertex out of range 1..{self.n_right}")

    @property
    def n_left(self) -> int:
        return len(self.adj)


@dataclass(frozen=True)
class HallViolator:
    """Left vertex set with fewer joint neighbors than members.

    Instances are minimal: the vertex count exceeds the neighborhood size by
    exactly one, and no proper subset is itself deficient. Either set may be
    given as any iterable of integer ids (`prefs.is_integer`); each is
    stored as a frozenset of Python ints.
    """

    vertices: frozenset[int]
    neighborhood: frozenset[int]

    def __post_init__(self):
        object.__setattr__(
            self, "vertices", integer_ids(self.vertices, frozenset, "violator vertices")
        )
        object.__setattr__(
            self, "neighborhood", integer_ids(self.neighborhood, frozenset, "violator neighbors")
        )
        if len(self.vertices) != len(self.neighborhood) + 1:
            raise ValueError(
                "violator must have exactly one more vertex than its neighborhood"
            )


def neighborhood(graph: BipartiteGraph, subset: Iterable[int]) -> set[int]:
    """Union of right-side neighbors over the given left vertices, each an integer id."""
    result: set[int] = set()
    for x in subset:
        if not is_integer(x):
            raise ValueError(f"left vertices must be integers, got {x!r}")
        if not 1 <= x <= graph.n_left:
            raise ValueError(f"left vertex {x} out of range 1..{graph.n_left}")
        result.update(graph.adj[x - 1])
    return result


def _alternating_tree(
    adj: Sequence[Sequence[int]], start: int, owner: dict[int, int], dead: Collection[int]
) -> tuple[tuple[int, int] | None, dict[int, tuple[int, int] | None]]:
    """Breadth-first search of the alternating digraph from left vertex ``start``.

    ``adj`` holds the graph's rows, as `BipartiteGraph.adj` does. Steps run
    left to right along every edge and right to left along matched edges
    (``owner`` maps each matched right vertex to its left partner); left
    vertices in ``dead`` are never entered. Returns the first edge
    ``(x, y)`` whose right end is unmatched, or None when the tree closes,
    plus ``parents``: every reached left vertex mapped to the (left, right)
    step that reached it, None for ``start``.
    """
    parents: dict[int, tuple[int, int] | None] = {start: None}
    queue = [start]
    for x in queue:
        for y in adj[x - 1]:
            mate = owner.get(y)
            if mate is None:
                return (x, y), parents
            if mate not in parents and mate not in dead:
                parents[mate] = (x, y)
                queue.append(mate)
    return None, parents


def _closed_trees(
    adj: Sequence[Sequence[int]], owner: dict[int, int]
) -> Iterator[dict[int, tuple[int, int] | None]]:
    """Augment ``owner`` toward a maximum matching, yielding each tree that closes.

    ``adj`` holds the graph's rows, as `BipartiteGraph.adj` does. Left
    vertices are processed in increasing index order and adjacency is
    scanned in sorted order, so every run on a fixed graph grows the same
    matching and closes the same trees. Each yielded tree is the ``parents``
    map of `_alternating_tree`.
    """
    dead: set[int] = set()
    for start in range(1, len(adj) + 1):
        # the tree's first step scans start's own row and stops at its first
        # free right vertex, so claim that vertex without growing the tree
        for y in adj[start - 1]:
            if y not in owner:
                owner[y] = start
                break
        else:
            goal, parents = _alternating_tree(adj, start, owner, dead)
            if goal is None:
                yield parents
                # a failed tree is closed: each right vertex it touches is
                # matched inside it, so no later augmenting path can enter it
                dead.update(parents)
                continue
            step: tuple[int, int] | None = goal
            while step is not None:
                x, y = step
                owner[y] = x
                step = parents[x]


def maximum_matching(graph: BipartiteGraph) -> dict[int, int]:
    """Maximum-cardinality matching via augmenting-path search; deterministic.

    Maps each matched left vertex to its right partner, so the matching's
    size is the dict's length.
    """
    owner: dict[int, int] = {}
    for _ in _closed_trees(graph.adj, owner):
        pass
    return {x: y for y, x in owner.items()}


def violator_or_matching(graph: BipartiteGraph) -> HallViolator | dict[int, int]:
    """Minimal deficient left set, or else a left-saturating maximum matching.

    The violator is the first alternating tree that closes, grown from the
    lowest left vertex that `maximum_matching` leaves unmatched. The left
    vertices it reaches form the violator; each right vertex they touch is
    matched to a reached vertex and is the right end of the step that
    entered it, so those steps give the neighborhood. When no tree closes,
    the same search has grown the matching `maximum_matching` returns, and
    it is returned in the same form: every left vertex keyed to its partner.
    """
    return _violator_or_matching(graph.adj)


def _violator_or_matching(adj: Sequence[Sequence[int]]) -> HallViolator | dict[int, int]:
    """`violator_or_matching` of the graph whose adjacency rows are ``adj``."""
    owner: dict[int, int] = {}
    tree = next(_closed_trees(adj, owner), None)
    if tree is None:
        return {x: y for y, x in owner.items()}
    return HallViolator(
        frozenset(tree), frozenset(step[1] for step in tree.values() if step is not None)
    )


def format_alternating_digraph(graph: BipartiteGraph) -> str:
    """Adjacency-list dump of the alternating digraph that `violator_or_matching` searches.

    Edges run left to right along every graph edge and right to left along
    the edges of the graph's `maximum_matching`. Left vertices print as
    ``L<i>``, right as ``R<j>``; one line per vertex with outgoing edges.
    Intended for debugging via the CLI.
    """
    owner = {y: x for x, y in maximum_matching(graph).items()}
    lines = []
    for x in range(1, graph.n_left + 1):
        targets = " ".join(f"R{y}" for y in graph.adj[x - 1])
        lines.append(f"L{x} -> {targets}".rstrip())
    for y in sorted(owner):
        lines.append(f"R{y} -> L{owner[y]}")
    return "\n".join(lines)
