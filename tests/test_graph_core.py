import hashlib
import itertools
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multispec.anderson import SiteOperator
from multispec.canopy import build_truncated_canopy, tree_adjacency
from multispec.errors import InvalidArgumentError
from multispec.graph_core import (
    PRIMES,
    CSRMatrix,
    FiniteGraph,
    GluedGraphSpec,
    adjacency_matrix,
    adjacency_sparse,
    from_edge_list_text,
    glue_subgraphs,
    make_graph,
    path_graph,
    prime_paths_graph,
)


def brute_prime(i):
    # independent primality scan, used as the oracle for the prime table
    primes = []
    n = 2
    while len(primes) <= i:
        if all(n % d for d in range(2, n)):
            primes.append(n)
        n += 1
    return primes[i]


class TestFiniteGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidArgumentError):
            FiniteGraph(2, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            FiniteGraph(2, ((0, 2),))

    def test_rejects_duplicate(self):
        with pytest.raises(InvalidArgumentError):
            FiniteGraph(3, ((0, 1), (0, 1)))

    @staticmethod
    def _first_error(n, edges):
        """The message of the edge-by-edge check the array check replaced."""
        seen = set()
        for u, v in edges:
            if u == v:
                return f"self-loop at vertex {u}"
            if not (0 <= u < v < n):
                return f"bad edge ({u},{v})"
            if (u, v) in seen:
                return f"duplicate edge ({u},{v})"
            seen.add((u, v))
        return None

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 6),
        edges=st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)), max_size=10),
        as_array=st.booleans(),
    )
    @example(n=3, edges=[(0, 1), (1, 2), (0, 1), (2, 2)], as_array=False)
    @example(n=3, edges=[(0, 1), (2, 2), (0, 1)], as_array=True)
    def test_first_offending_edge_reported(self, n, edges, as_array):
        expect = self._first_error(n, edges)
        given_edges = np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else tuple(edges)
        if expect is None:
            g = FiniteGraph(n, given_edges)
            assert g.edges.tolist() == [list(e) for e in edges]
            assert g.edges.dtype == np.int64 and not g.edges.flags.writeable
        else:
            with pytest.raises(InvalidArgumentError, match=f"^{re.escape(expect)}$"):
                FiniteGraph(n, given_edges)

    def test_rejects_edges_that_are_not_pairs(self):
        with pytest.raises(InvalidArgumentError, match="^edges must be vertex pairs$"):
            FiniteGraph(4, ((0, 1, 2),))

    @pytest.mark.parametrize("edges", [[(0, 1), (1,)], [(0, 1), (1, 2, 3)]])
    def test_rejects_ragged_edges(self, edges):
        # a pair beside a shorter or longer item is refused before numpy
        # sees an inhomogeneous shape
        with pytest.raises(InvalidArgumentError, match="^edges must be vertex pairs$"):
            FiniteGraph(4, edges)

    @pytest.mark.parametrize(
        "edges",
        [((0.5, 2),), np.array([[0.0, 2.0]]), ((True, 2),), ((0, np.True_),),
         np.array([[False, True]]), ((0, 2**70),)],
    )
    def test_rejects_non_integer_endpoints(self, edges):
        # none may be truncated or cast to an integer vertex index
        with pytest.raises(InvalidArgumentError, match="^edge endpoints must be integers$"):
            FiniteGraph(3, edges)

    @pytest.mark.parametrize("edges", [(), [], np.empty((0, 2)), np.array([[0, 2]], np.int32)])
    def test_accepts_empty_and_integer_arrays(self, edges):
        g = FiniteGraph(3, edges)
        assert g.edges.dtype == np.int64 and g.edges.tolist() == np.reshape(edges, (-1, 2)).tolist()

    def test_make_graph_canonicalizes(self):
        g = make_graph(3, [(2, 0), (0, 2), (1, 0)])
        assert g.edges.tolist() == [[0, 1], [0, 2]]

    @pytest.mark.parametrize("edges", [[(0, 1, 2)], [(0,)], [[0, 1], [1]]])
    def test_make_graph_rejects_edges_that_are_not_pairs(self, edges):
        # as FiniteGraph does, not with the unpacking ValueError of its loop
        with pytest.raises(InvalidArgumentError, match="^edges must be vertex pairs$"):
            make_graph(3, edges)


class TestPathGraph:
    def test_single_vertex(self):
        g = path_graph(1)
        assert g.vertex_count == 1 and g.edge_count == 0

    def test_three_vertices(self):
        assert path_graph(3).edges.tolist() == [[0, 1], [1, 2]]

    def test_example_piece_size(self):
        # 2p-1 vertices for p = 3
        g = path_graph(2 * 3 - 1)
        assert g.vertex_count == 5 and g.edge_count == 4

    def test_rejects_zero(self):
        with pytest.raises(InvalidArgumentError):
            path_graph(0)


class TestAdjacency:
    def test_one_csr_per_graph(self, monkeypatch):
        # the automorphism search and its check, the junction kernel check
        # and a Cayley template over the same glued graph share one CSR
        from multispec import graph_core
        from multispec.automorphism import automorphisms, is_automorphism
        from multispec.cayley import CayleyTemplate
        from multispec.spectral import junction_kernel_basis

        builds, csr = [], graph_core.CSRMatrix
        monkeypatch.setattr(graph_core, "CSRMatrix", lambda *a: builds.append(a[-1]) or csr(*a))
        glued = prime_paths_graph(3, 2)
        g, n = glued.graph, glued.graph.vertex_count
        assert automorphisms(g, fixed=glued.junctions).order == 1
        assert is_automorphism(g, range(n))
        assert g.neighbors() and adjacency_matrix(g).any()
        junction_kernel_basis(glued, 0.0)
        CayleyTemplate(g, {-1: 0, 1: 1}).interior_modes
        assert builds.count((n, n)) == 1
        assert adjacency_sparse(g) is adjacency_sparse(g)

    def test_edgeless(self):
        assert not adjacency_matrix(FiniteGraph(3, ())).any()

    def test_path_two(self):
        assert adjacency_matrix(path_graph(2)).tolist() == [[0, 1], [1, 0]]

    def test_triangle(self):
        tri = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        expect = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(adjacency_matrix(tri), expect)

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_zero_diagonal(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        m = adjacency_matrix(make_graph(n, chosen))
        assert np.array_equal(m, m.T)
        assert not np.diag(m).any()

    @given(st.integers(0, 12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_neighbors_are_the_sorted_edge_ends(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = make_graph(n, chosen)
        expect = [sorted(v for e in g.edges if u in e for v in e if v != u) for u in range(n)]
        assert g.neighbors() == expect


class TestCSRMatrix:
    """CSRMatrix against scipy's csr_matrix as the oracle: the same arrays
    and dtypes, the same dense matrix, bit-equal products, and the operator
    values that the scipy-based code computed."""

    @staticmethod
    def _instance(kind, n, density, rng):
        """(ours, scipy's) for a random make_graph graph, a canopy tree or a
        weighted dense symmetric matrix."""
        upper = np.triu(rng.random((n, n)) < density, k=1)
        if kind == "dense":
            weights = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-4, 5, (n, n))
            dense = np.where(upper, weights, 0.0)
            theirs = sp.csr_matrix(dense + dense.T)
            return CSRMatrix(theirs.data, theirs.indices, theirs.indptr, theirs.shape), theirs
        if kind == "canopy":
            t = build_truncated_canopy(2 + n % 3, n % 5)
            n, edges = t.vertex_count, list(zip(t.parent[1:].tolist(), range(1, t.vertex_count)))
            ours = tree_adjacency(t)
        else:
            edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(upper))]
            ours = adjacency_sparse(make_graph(n, edges))
        # the scipy construction that adjacency_sparse replaced
        rows = [u for u, _ in edges] + [v for _, v in edges]
        cols = [v for _, v in edges] + [u for u, _ in edges]
        return ours, sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))

    @given(
        kind=st.sampled_from(["graph", "canopy", "dense"]),
        n=st.integers(0, 14),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_scipy(self, kind, n, density, seed):
        rng = np.random.default_rng(seed)
        ours, theirs = self._instance(kind, n, density, rng)
        for part in ("data", "indices", "indptr"):
            mine, oracle = getattr(ours, part), getattr(theirs, part)
            assert mine.dtype == oracle.dtype and np.array_equal(mine, oracle)
        assert ours.shape == theirs.shape and ours.nnz == theirs.nnz
        assert np.array_equal(ours.toarray(), theirs.toarray())
        size = ours.shape[0]
        scale = 10.0 ** rng.integers(-8, 9, size)  # magnitudes that make a sum's order matter
        for x in (rng.standard_normal(size) * scale, rng.standard_normal((size, 3)) * scale[:, None]):
            product = ours @ x
            assert product.shape == x.shape and product.dtype == float
            assert product.tobytes() == (theirs @ x).tobytes()
        potential = rng.standard_normal(size)
        op = SiteOperator(ours, potential, {})
        assert op.adjacency_bound == float((abs(theirs) @ np.ones(size)).max(initial=0.0))
        degree = np.diff(theirs.indptr)
        step = np.arange(degree.max(initial=0))
        padded = np.where(step < degree[:, None], theirs.indptr[:-1, None] + step, -1)
        assert op.adjacency.padded_rows.dtype == theirs.indptr.dtype
        assert np.array_equal(op.adjacency.padded_rows, padded)
        coo = theirs.tocoo()
        digest = hashlib.sha256(coo.row.tobytes() + coo.col.tobytes() + potential.tobytes())
        assert op.structure_hash() == digest.hexdigest()[:16]

    @given(
        kind=st.sampled_from(["graph", "canopy", "dense"]),
        n=st.integers(0, 14),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="graph", n=0, density=0.0, seed=0)  # the empty matrix
    @example(kind="graph", n=3, density=0.0, seed=0)  # nothing stored
    @settings(max_examples=120, deadline=None)
    def test_find_matches_dense_positions(self, kind, n, density, seed):
        # a dense map of storage positions: each stored entry gives its
        # position, every other entry -1
        ours, _ = self._instance(kind, n, density, np.random.default_rng(seed))
        expect = np.full(ours.shape, -1)
        expect[ours.rows, ours.indices] = np.arange(ours.nnz)
        rows, cols = np.indices(ours.shape)
        assert np.array_equal(ours.find(rows, cols), expect)
        size = ours.shape[0]  # broadcast: every row against every column
        assert np.array_equal(ours.find(np.arange(size)[:, None], np.arange(size)), expect)


class TestGlue:
    def test_single_vertex_piece(self):
        spec = GluedGraphSpec((path_graph(1),), ((0,),), 1)
        glued = glue_subgraphs(spec)
        assert glued.graph.vertex_count == 2
        assert glued.graph.edges.tolist() == [[0, 1]]
        assert glued.junctions == (0,)

    def test_example_two_instance_counts(self):
        glued = prime_paths_graph(4, 2)
        assert glued.graph.vertex_count == 32
        assert glued.graph.edge_count == (2 + 4 + 8 + 12) + 4 * 2

    def test_rejects_bad_attach_point(self):
        with pytest.raises(InvalidArgumentError):
            GluedGraphSpec((path_graph(2),), ((5,),), 1)

    def test_counts_match_formula_random_specs(self):
        # oracle: count edges by brute enumeration of the constructed graph
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            n_pieces = int(rng.integers(1, 5))
            pieces, attach = [], []
            for _ in range(n_pieces):
                size = int(rng.integers(1, 8))
                pieces.append(path_graph(size))
                attach.append(tuple(int(rng.integers(size)) for _ in range(m)))
            glued = glue_subgraphs(GluedGraphSpec(tuple(pieces), tuple(attach), m))
            assert glued.graph.vertex_count == m + sum(p.vertex_count for p in pieces)
            assert glued.graph.edge_count == (
                sum(p.edge_count for p in pieces) + m * n_pieces
            )

    def test_repeated_attach_points_allowed(self):
        spec = GluedGraphSpec((path_graph(3),), ((1, 1),), 2)
        glued = glue_subgraphs(spec)
        # both junctions wire to the same piece vertex through distinct edges
        assert glued.graph.edge_count == 2 + 2


class TestPrimePaths:
    def test_piece_sizes_match_prime_table(self):
        for r in range(1, 11):
            glued = prime_paths_graph(r, 2)
            sizes = [p.vertex_count for p in glued.spec.pieces]
            assert sizes == [2 * brute_prime(i) - 1 for i in range(r)]
        assert PRIMES == tuple(brute_prime(i) for i in range(10))

    def test_single_piece_is_path(self):
        glued = prime_paths_graph(1, 2)
        # x_1 - 1 - 2 - 3 - x_2: 5 vertices, 4 edges, a simple path
        assert glued.graph.vertex_count == 5
        assert glued.graph.edge_count == 4
        assert sorted(map(len, glued.graph.neighbors())) == [1, 1, 2, 2, 2]

    def test_scale_three_sizes(self):
        glued = prime_paths_graph(2, 3)
        assert [p.vertex_count for p in glued.spec.pieces] == [5, 8]

    def test_rejects_bad_scale(self):
        with pytest.raises(InvalidArgumentError):
            prime_paths_graph(2, 4)


class TestSerialization:
    def test_edge_list_roundtrip(self):
        g = prime_paths_graph(3, 2).graph
        text = f"{g.vertex_count} {g.edge_count}\n"
        text += "".join(f"{u} {v}\n" for u, v in g.edges)
        assert from_edge_list_text(text).edges.tolist() == g.edges.tolist()

    def test_rejects_malformed(self):
        with pytest.raises(InvalidArgumentError):
            from_edge_list_text("3 nope\n")
