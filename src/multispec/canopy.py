"""Finite truncations of the degree-(K+1) canopy tree.

The truncation is the complete subtree below a single vertex at distance L
from the leaf boundary: every vertex at depth d >= 1 has exactly K children
at depth d-1, the leaves sit at depth 0, and the root simply has no parent.
Vertices are enumerated breadth-first from the root with children ordered
left-to-right, so all derived objects are reproducible.

In that order the tree is closed-form index arithmetic: the parent of v is
(v-1)//K, and the descendants of w at distance m are K^m * w + q for the
positions q in [tree_size(K, m-1), tree_size(K, m)) of level m.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    IncompleteSubtreeError,
    InvalidArgumentError,
    TilingMismatchError,
    TooLargeError,
)
from .graph_core import DEFAULT_VERTEX_CAP, CSRMatrix, FiniteGraph, integer_array


def tree_size(k: int, depth: int) -> int:
    """Vertex count of the complete k-ary tree of the given depth."""
    return (k ** (depth + 1) - 1) // (k - 1)


@dataclass(frozen=True, eq=False)
class TruncatedCanopy:
    K: int
    L: int
    depth: np.ndarray  # distance to the leaf boundary, read-only
    parent: np.ndarray  # -1 for the root, read-only

    @property
    def vertex_count(self) -> int:
        return self.depth.size

    @functools.cached_property
    def graph(self) -> FiniteGraph:
        """The tree as a FiniteGraph, built on first access."""
        edges = np.column_stack([self.parent[1:], np.arange(1, self.vertex_count)])
        return FiniteGraph(self.vertex_count, edges)


def build_truncated_canopy(
    K: int, L: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> TruncatedCanopy:
    if K < 2:
        raise InvalidArgumentError("branching factor K must be >= 2")
    if L < 0:
        raise InvalidArgumentError("truncation depth L must be >= 0")
    n = tree_size(K, L)
    if n > vertex_cap:
        raise TooLargeError(f"canopy would have {n} vertices (cap {vertex_cap})")
    depth = np.repeat(np.arange(L, -1, -1), K ** np.arange(L + 1))
    parent = (np.arange(n) - 1) // K  # (0 - 1) // K == -1 at the root
    depth.flags.writeable = parent.flags.writeable = False
    return TruncatedCanopy(K, L, depth, parent)


def subtree(t: TruncatedCanopy, w, j: int):
    """All descendants of w within distance j, in BFS order starting at w:
    a tuple for a vertex, and for an array of vertices one such row each,
    reading [] as the empty batch. A float or bool vertex, or a ragged
    nesting, is refused (graph_core.integer_array)."""
    if j < 0:
        raise InvalidArgumentError("subtree depth j must be >= 0")
    vertices = integer_array(w, "subtree vertices")
    if vertices.min(initial=0) < 0 or vertices.max(initial=0) >= t.vertex_count:
        v = vertices[(vertices < 0) | (vertices >= t.vertex_count)][0]
        raise InvalidArgumentError(f"vertex {v} out of range")
    depth = t.depth[vertices]
    if depth.min(initial=j) < j:
        v = vertices[depth < j][0]
        raise IncompleteSubtreeError(
            f"vertex {v} has depth {t.depth[v]} < requested subtree depth {j}"
        )
    # the descendants of w at distance m are K^m * w + q, q in level m's positions
    powers = t.K ** np.arange(j + 1)
    scale = np.repeat(powers, powers)
    rows = vertices.reshape(-1, 1) * scale + np.arange(scale.size)
    return tuple(rows[0].tolist()) if vertices.ndim == 0 else rows


def tree_adjacency(t: TruncatedCanopy) -> CSRMatrix:
    """The tree's adjacency written straight into CSR form, equal entry for
    entry to graph_core.adjacency_sparse(t.graph): row v holds its parent
    (v-1)//K, if any, then its children K*v+1 .. K*v+K, if any, which is
    ascending order."""
    n, K = t.vertex_count, t.K
    inner = np.arange(tree_size(K, t.L - 1))  # the vertices with children
    indptr = np.concatenate([[0], np.cumsum((np.arange(n) > 0) + K * (t.depth > 0))])
    indices = np.empty(indptr[-1], dtype=np.intp)
    indices[indptr[1:-1]] = t.parent[1:]  # the first entry of each non-root row
    children = K * inner[:, None] + np.arange(1, K + 1)
    indices[indptr[inner, None] + (inner[:, None] > 0) + np.arange(K)] = children
    return CSRMatrix(np.ones(indices.size), indices, indptr, (n, n))


@dataclass(frozen=True, eq=False)
class PatchSet:
    """The tiling of the truncation by depth-l subtrees Lambda_l(x) rooted at
    the potential-root vertices (depths l, 2l+1, 3l+2, ...)."""

    l: int
    roots: tuple[int, ...]
    patch_of: np.ndarray  # vertex -> its patch root, read-only


def potential_roots(t: TruncatedCanopy, l: int) -> PatchSet:
    if l < 1:
        raise InvalidArgumentError("patch depth l must be >= 1")
    if t.L % (l + 1) != l:
        raise TilingMismatchError(
            f"L={t.L} is not congruent to l={l} mod l+1; patches would not tile"
        )
    offset = t.depth % (l + 1)
    roots = tuple(np.flatnonzero(offset == l).tolist())
    # the patch root of v, the first vertex at or above v whose depth is
    # congruent to l, is its ancestor g = l - offset levels up:
    # (v - tree_size(K, g-1)) // K^g, inverting the descendant formula
    step = t.K ** (l - offset)
    patch_of = (np.arange(t.vertex_count) - (step - 1) // (t.K - 1)) // step
    patch_of.flags.writeable = False
    return PatchSet(l, roots, patch_of)
