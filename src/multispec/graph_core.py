"""Undirected simple graphs and the two explicit glued constructions.

Vertices are dense integer indices 0..n-1; edges are stored as one
read-only (m, 2) array of pairs u < v, so every derived object (matrices,
automorphism searches) iterates deterministically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

DEFAULT_VERTEX_CAP = 200_000  # the largest canopy or Cayley graph built

# First ten primes, enough for every construction exercised here.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@dataclass(frozen=True, eq=False)
class FiniteGraph:
    """Undirected simple graph on vertices 0..vertex_count-1. edges, given
    as integer pairs or an (m, 2) integer array, is kept as a read-only
    (m, 2) int64 array in the given order; a float or bool endpoint is
    refused."""

    vertex_count: int
    edges: np.ndarray

    def __post_init__(self):
        if self.vertex_count < 0:
            raise InvalidArgumentError("vertex_count must be non-negative")
        try:
            given = np.asarray(self.edges)
        except ValueError:  # ragged: pairs beside shorter or longer items
            raise InvalidArgumentError("edges must be vertex pairs") from None
        # numpy casts a bool beside ints to int64, so a sequence is checked item by item
        items = () if isinstance(self.edges, np.ndarray) else np.asarray(self.edges, object).flat
        if given.size and given.dtype.kind not in "iu" or any(
            isinstance(x, (bool, np.bool_)) for x in items
        ):
            raise InvalidArgumentError("edge endpoints must be integers")
        pairs = np.array(given, dtype=np.int64)
        pairs = pairs.reshape(0, 2) if pairs.size == 0 else pairs
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InvalidArgumentError("edges must be vertex pairs")
        u, v = pairs.T
        loop, bad = u == v, (u < 0) | (u >= v) | (v >= self.vertex_count)
        # the first offending edge, in order: a self-loop, an endpoint out of
        # order or range, or a repeat of an earlier valid edge
        first = int(np.argmax(loop | bad)) if (loop | bad).any() else len(pairs)
        keys = pairs[:first] @ np.array([self.vertex_count, 1])
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
        if repeats.size:
            first = int(repeats.min())
            raise InvalidArgumentError(f"duplicate edge ({u[first]},{v[first]})")
        if first < len(pairs):
            if loop[first]:
                raise InvalidArgumentError(f"self-loop at vertex {u[first]}")
            raise InvalidArgumentError(f"bad edge ({u[first]},{v[first]})")
        pairs.flags.writeable = False
        object.__setattr__(self, "edges", pairs)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def _adjacency(self) -> CSRMatrix:
        n, edges = self.vertex_count, self.edges
        keys = np.sort(np.concatenate([edges @ [n, 1], edges @ [1, n]]))  # row * n + column
        rows, cols = np.divmod(keys, max(n, 1))
        indptr = np.searchsorted(rows, np.arange(n + 1))
        return CSRMatrix(np.ones(keys.size), cols, indptr, (n, n))

    def neighbors(self) -> list[list[int]]:
        adj = adjacency_sparse(self)
        return [adj.indices[a:b].tolist() for a, b in zip(adj.indptr[:-1], adj.indptr[1:])]


def make_graph(vertex_count: int, edges) -> FiniteGraph:
    """Canonicalize an edge iterable (sort endpoints, sort and dedup pairs).
    Refuses, as FiniteGraph does, an item that is not a pair and an endpoint
    that is not an integer."""
    try:
        pairs = [(u, v) for u, v in edges]
    except (TypeError, ValueError):  # an item that does not unpack into two endpoints
        raise InvalidArgumentError("edges must be vertex pairs") from None
    try:
        canon = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    except TypeError:  # endpoints that do not compare, such as None beside an int
        raise InvalidArgumentError("edge endpoints must be integers") from None
    return FiniteGraph(vertex_count, tuple(canon))


def path_graph(k: int) -> FiniteGraph:
    """Simple path on k vertices 0..k-1."""
    if k < 1:
        raise InvalidArgumentError("path_graph needs k >= 1")
    return FiniteGraph(k, tuple((i, i + 1) for i in range(k - 1)))


def adjacency_matrix(g: FiniteGraph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix with zero diagonal."""
    return adjacency_sparse(g).toarray()


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """A read-only sparse matrix in canonical CSR form: row i holds data[j]
    at column indices[j] for j in indptr[i]:indptr[i+1], columns ascending and
    unrepeated. Index arrays are int32 unless a size needs int64, as in scipy."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        index = np.int32 if max(*self.shape, len(self.data)) < 2**31 else np.int64
        for name, dtype in (("data", float), ("indices", index), ("indptr", index)):
            array = np.asarray(getattr(self, name), dtype).view()
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def nnz(self) -> int:
        return self.data.size

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The row of each stored entry (int64), in storage order; read-only."""
        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
        rows.flags.writeable = False
        return rows

    @functools.cached_property
    def padded_rows(self) -> np.ndarray:
        """The storage positions of each row's entries as an (n, max degree)
        table padded with -1, in the index dtype; read-only."""
        degree = np.diff(self.indptr)
        step = np.arange(degree.max(initial=0), dtype=self.indptr.dtype)
        table = np.where(step < degree[:, None], self.indptr[:-1, None] + step, -1)
        table.flags.writeable = False
        return table

    @functools.cached_property
    def _keys(self) -> np.ndarray:
        """row * ncols + col of each stored entry, ascending, then a sentinel
        above them that keeps each search position of find in range."""
        n = self.shape[1]
        return np.append(self.rows * n + self.indices, self.shape[0] * n)

    def find(self, rows, cols) -> np.ndarray:
        """The storage position of each entry (rows, cols), broadcast, or -1
        where none is stored; indices in range."""
        target = np.asarray(rows, dtype=np.int64) * self.shape[1] + np.asarray(cols)
        pos = self._keys.searchsorted(target)
        return np.where(self._keys[pos] == target, pos, -1)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (self.rows, self.indices), self.data)
        return out

    def __matmul__(self, x):
        """The product with a dense (m,) or (m, k) array. Each row sum adds its
        products in storage order from 0.0, bit for bit as scipy's CSR matvec."""
        x = np.asarray(x)
        columns = x if x.ndim == 2 else x[:, None]
        n, k = self.shape[0], columns.shape[1]
        products = self.data[:, None] * columns[self.indices]
        cells = self.rows[:, None] * k + np.arange(k)
        out = np.bincount(cells.ravel(), products.ravel(), n * k).astype(float, copy=False)
        return out.reshape((n,) + x.shape[1:])


def adjacency_sparse(g: FiniteGraph) -> CSRMatrix:
    """The 0/1 adjacency of g in CSR form, built from its sorted edges on
    first use and kept on g; read it, do not edit it."""
    return g._adjacency


@dataclass(frozen=True)
class GluedGraphSpec:
    """Pieces to be joined through m fresh junction vertices.

    attach_points[i][j] is the vertex of piece i wired to junction j;
    repeats within a piece are allowed.
    """

    pieces: tuple[FiniteGraph, ...]
    attach_points: tuple[tuple[int, ...], ...]
    junction_count: int

    def __post_init__(self):
        if self.junction_count < 1:
            raise InvalidArgumentError("junction_count must be >= 1")
        if not self.pieces:
            raise InvalidArgumentError("need at least one piece")
        if len(self.pieces) != len(self.attach_points):
            raise InvalidArgumentError("one attach tuple per piece required")
        for piece, attach in zip(self.pieces, self.attach_points):
            if len(attach) != self.junction_count:
                raise InvalidArgumentError(
                    "each piece needs one attach point per junction"
                )
            for v in attach:
                if not (0 <= v < piece.vertex_count):
                    raise InvalidArgumentError(f"attach point {v} not in piece")


@dataclass(frozen=True)
class GluedGraph:
    """Result of gluing: the graph plus the bookkeeping the eigenvector
    constructions need (junction indices and per-piece vertex ranges)."""

    graph: FiniteGraph
    junctions: tuple[int, ...]
    piece_offsets: tuple[int, ...]  # global index of vertex 0 of each piece
    spec: GluedGraphSpec

    def piece_vertices(self, i: int) -> range:
        start = self.piece_offsets[i]
        return range(start, start + self.spec.pieces[i].vertex_count)


def glue_subgraphs(spec: GluedGraphSpec) -> GluedGraph:
    """Disjoint union of the pieces plus edges {x_j, v_{i,j}} for every
    piece i and junction j. Junctions occupy indices 0..m-1."""
    m, pieces = spec.junction_count, spec.pieces
    sizes = [piece.vertex_count for piece in pieces]
    offsets = m + np.cumsum([0] + sizes[:-1])
    # each piece's edges shifted to its offset, then {x_j, v_ij}; junctions
    # sit below every piece vertex, so every pair is already ordered
    attach = np.column_stack([
        np.tile(np.arange(m), len(pieces)),
        (np.array(spec.attach_points) + offsets[:, None]).ravel(),
    ])
    edges = np.concatenate([p.edges + o for p, o in zip(pieces, offsets)] + [attach])
    n = m + sum(sizes)
    graph = FiniteGraph(n, edges[np.argsort(edges @ [n, 1])])
    return GluedGraph(graph, tuple(range(m)), tuple(offsets.tolist()), spec)


def prime_paths_graph(piece_count: int, scale: int = 2) -> GluedGraph:
    """Glue paths of scale*p_i - 1 vertices (p_i the i-th prime) between two
    junctions, each path attached by its endpoints."""
    if piece_count < 1:
        raise InvalidArgumentError("piece_count must be >= 1")
    if scale not in (2, 3):
        raise InvalidArgumentError("scale must be 2 or 3")
    if piece_count > len(PRIMES):
        raise InvalidArgumentError(f"at most {len(PRIMES)} pieces supported")
    pieces = []
    attach = []
    for i in range(piece_count):
        size = scale * PRIMES[i] - 1
        pieces.append(path_graph(size))
        attach.append((0, size - 1))
    spec = GluedGraphSpec(tuple(pieces), tuple(attach), junction_count=2)
    return glue_subgraphs(spec)


def from_edge_list_text(text: str) -> FiniteGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidArgumentError("empty edge-list input")
    try:
        n, m = map(int, lines[0].split())
        edges = [tuple(map(int, ln.split())) for ln in lines[1:]]
    except ValueError as exc:
        raise InvalidArgumentError(f"malformed edge list: {exc}") from exc
    if len(edges) != m:
        raise InvalidArgumentError(
            f"header declares {m} edges but {len(edges)} edge lines follow"
        )
    bad = next((ln for ln, e in zip(lines[1:], edges) if len(e) != 2), None)
    if bad is not None:
        raise InvalidArgumentError(
            f"edge line {bad.strip()!r} needs two vertex indices"
        )
    return make_graph(n, edges)
