import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multispec.errors import InvalidArgumentError
from multispec.graph_core import (
    PRIMES,
    FiniteGraph,
    GluedGraphSpec,
    adjacency_matrix,
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

    def test_make_graph_canonicalizes(self):
        g = make_graph(3, [(2, 0), (0, 2), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))


class TestPathGraph:
    def test_single_vertex(self):
        g = path_graph(1)
        assert g.vertex_count == 1 and g.edge_count == 0

    def test_three_vertices(self):
        assert path_graph(3).edges == ((0, 1), (1, 2))

    def test_example_piece_size(self):
        # 2p-1 vertices for p = 3
        g = path_graph(2 * 3 - 1)
        assert g.vertex_count == 5 and g.edge_count == 4

    def test_rejects_zero(self):
        with pytest.raises(InvalidArgumentError):
            path_graph(0)


class TestAdjacency:
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


class TestGlue:
    def test_single_vertex_piece(self):
        spec = GluedGraphSpec((path_graph(1),), ((0,),), 1)
        glued = glue_subgraphs(spec)
        assert glued.graph.vertex_count == 2
        assert glued.graph.edges == ((0, 1),)
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
        assert from_edge_list_text(text).edges == g.edges

    def test_rejects_malformed(self):
        with pytest.raises(InvalidArgumentError):
            from_edge_list_text("3 nope\n")
