import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multispec.anderson import DisorderSpec, assemble_canopy_operator, sample_disorder
from multispec.canopy import (
    build_truncated_canopy,
    potential_roots,
    subtree,
    tree_size,
)
from multispec.errors import (
    IncompleteSubtreeError,
    InvalidArgumentError,
    TilingMismatchError,
    TooLargeError,
)
from multispec.graph_core import FiniteGraph, adjacency_sparse
from multispec.spectral import (
    canopy_certificates,
    canopy_families,
    operator_spectrum,
    subtree_eigenpairs,
)
from oracle import subtree as oracle_subtree


class TestBuild:
    def test_depth_zero_is_single_vertex(self):
        t = build_truncated_canopy(2, 0)
        assert t.vertex_count == 1 and t.parent.tolist() == [-1]

    def test_geometric_sum_sizes(self):
        assert build_truncated_canopy(3, 2).vertex_count == 13
        assert build_truncated_canopy(3, 5).vertex_count == 364

    def test_rejects_k_below_two(self):
        with pytest.raises(InvalidArgumentError):
            build_truncated_canopy(1, 3)

    def test_size_guard(self):
        with pytest.raises(TooLargeError):
            build_truncated_canopy(3, 12)

    def test_parent_child_consistency(self):
        t = build_truncated_canopy(3, 4)
        for v in range(1, t.vertex_count):
            assert t.depth[t.parent[v]] == t.depth[v] + 1
            assert t.K * t.parent[v] + 1 <= v <= t.K * t.parent[v] + t.K

    def test_leaves_are_exactly_depth_zero(self):
        t = build_truncated_canopy(2, 3)
        children = np.bincount(t.parent[1:], minlength=t.vertex_count)
        assert ((children == 0) == (t.depth == 0)).all()
        assert (children[t.depth > 0] == t.K).all()


class TestSubtree:
    def test_depth_zero_subtree(self):
        t = build_truncated_canopy(3, 2)
        assert subtree(t, 5, 0) == (5,)

    def test_geometric_sizes(self):
        t = build_truncated_canopy(3, 4)
        for v in range(t.vertex_count):
            for j in range(t.depth[v] + 1):
                assert len(subtree(t, v, j)) == tree_size(3, j)

    def test_whole_branch(self):
        t = build_truncated_canopy(2, 3)
        assert len(subtree(t, 0, 3)) == t.vertex_count

    def test_incomplete_subtree_error(self):
        t = build_truncated_canopy(3, 2)
        leaf = next(v for v in range(t.vertex_count) if t.depth[v] == 0)
        with pytest.raises(IncompleteSubtreeError):
            subtree(t, leaf, 1)

    def test_rows_match_the_level_loop(self):
        # every vertex and depth of K3 L4, one at a time and in one batch
        t = build_truncated_canopy(3, 4)
        for j in range(t.L + 1):
            vertices = np.flatnonzero(t.depth >= j)
            rows = subtree(t, vertices, j)
            assert rows.shape == (vertices.size, tree_size(3, j))
            for v, row in zip(vertices.tolist(), rows.tolist()):
                assert subtree(t, v, j) == tuple(row) == oracle_subtree(t, v, j)

    def test_empty_batch(self):
        t = build_truncated_canopy(2, 3)
        assert subtree(t, np.array([], dtype=np.intp), 2).shape == (0, 7)
        assert subtree(t, [], 2).shape == (0, 7)  # numpy reads [] as float64

    @pytest.mark.parametrize(
        "w",
        # numpy casts [0, True] to int64: a bool among ints is found item by item
        [2.5, True, np.array([1.0]), [True, False], [1, None], [0, True], (0, True),
         [[0], [np.True_]]],
    )
    def test_non_integer_vertices_refused(self, w):
        t = build_truncated_canopy(3, 2)
        with pytest.raises(InvalidArgumentError, match="^subtree vertices must be integers"):
            subtree(t, w, 1)

    @pytest.mark.parametrize("w", [[[0], [1, 2]], [[0, 1], [2, [3]]]])
    def test_ragged_vertices_refused(self, w):
        # numpy finds no array shape for the nesting
        t = build_truncated_canopy(3, 3)
        message = "^subtree vertices must be integers in a rectangular array$"
        with pytest.raises(InvalidArgumentError, match=message):
            subtree(t, w, 1)

    def test_batch_rejected_whole(self):
        t = build_truncated_canopy(3, 2)
        with pytest.raises(IncompleteSubtreeError, match="^vertex 4 has depth 0 <"):
            subtree(t, [0, 4], 1)
        with pytest.raises(InvalidArgumentError, match="^vertex 13 out of range$"):
            subtree(t, [0, 13], 0)


class TestPatchSet:
    def test_root_counts_k3_l5(self):
        t = build_truncated_canopy(3, 5)
        p = potential_roots(t, 2)
        assert len(p.roots) == 28
        by_depth = {}
        for x in p.roots:
            by_depth[t.depth[x]] = by_depth.get(t.depth[x], 0) + 1
        assert by_depth == {2: 27, 5: 1}

    def test_trivial_tiling(self):
        t = build_truncated_canopy(3, 2)
        p = potential_roots(t, 2)
        assert p.roots == (0,)

    def test_partition_by_brute_scan(self):
        t = build_truncated_canopy(3, 5)
        p = potential_roots(t, 2)
        seen = set()
        total = 0
        for x in p.roots:
            patch = subtree(t, x, 2)
            assert len(patch) == 13
            assert not seen & set(patch)
            seen.update(patch)
            total += len(patch)
            for v in patch:
                assert p.patch_of[v] == x
        assert total == t.vertex_count

    def test_patch_of_is_total(self):
        t = build_truncated_canopy(2, 3)
        p = potential_roots(t, 1)
        assert all(x in p.roots for x in p.patch_of)

    def test_tiling_mismatch(self):
        t = build_truncated_canopy(3, 4)
        with pytest.raises(TilingMismatchError):
            potential_roots(t, 2)


# ---------------------------------------------------------------------------
# The array-native tree against an explicit breadth-first construction.


def _oracle_tree(K, L):
    """Depth, parent and children of the complete K-ary depth-L tree,
    enumerated breadth-first one vertex at a time."""
    depth, parent, children = [L], [-1], []
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            if depth[v] == 0:
                children.append(())
                continue
            kids = []
            for _ in range(K):
                u = len(depth)
                depth.append(depth[v] - 1)
                parent.append(v)
                kids.append(u)
                nxt.append(u)
            children.append(tuple(kids))
        frontier = nxt
    return depth, parent, children


def _oracle_tiling(depth, parent, l):
    """Patch roots (depth congruent to l mod l+1) and, for every vertex, the
    root reached by walking up to the first such depth."""
    roots = tuple(v for v, d in enumerate(depth) if d % (l + 1) == l)
    patch_of = []
    for v, d in enumerate(depth):
        target = (d // (l + 1)) * (l + 1) + l
        w = v
        while depth[w] != target:
            w = parent[w]
        patch_of.append(w)
    return roots, patch_of


def _oracle_support(children, x, l):
    """The depth-(l-1) subtrees of x's children, each in BFS order, one
    child after another."""
    support = []
    for y in children[x]:
        level = [y]
        for _ in range(l):
            support += level
            level = [c for v in level for c in children[v]]
    return support


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5)
    .flatmap(lambda K: st.tuples(st.just(K), st.integers(0, 7)))
    .filter(lambda KL: tree_size(*KL) <= 3_000),
    st.integers(0, 2**31 - 1),
)
@example((4, 5), 0)  # the largest instances within the size bound
@example((5, 4), 1)
@example((2, 7), 2)
@example((3, 6), 3)
def test_array_canopy_matches_oracle(KL, seed):
    K, L = KL
    depth, parent, children = _oracle_tree(K, L)
    t = build_truncated_canopy(K, L)
    assert t.depth.tolist() == depth and t.parent.tolist() == parent
    edges = tuple((parent[v], v) for v in range(1, len(depth)))
    expected = adjacency_sparse(FiniteGraph(len(depth), edges))
    for l in (l for l in range(1, L + 1) if L % (l + 1) == l):
        roots, patch_of = _oracle_tiling(depth, parent, l)
        p = potential_roots(t, l)
        assert p.patch_of.tolist() == patch_of
        assert p.roots == roots and all(type(x) is int for x in p.roots)
        r = sample_disorder(DisorderSpec(seed=seed), p.roots)
        op = assemble_canopy_operator(t, p, r)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op.adjacency, part), getattr(expected, part))
        assert op.potential.tolist() == [r.values[x] for x in patch_of]
        if l >= 2:  # the certificate supports, from the BFS index arithmetic
            sub = subtree_eigenpairs(K, l - 1)
            families = canopy_families(
                t, p, r, p.roots, sub.eigenvalues[:1], sub.eigenvectors[:, :1], operator=op
            )
            supports = [_oracle_support(children, x, l) for x in p.roots]
            assert families.supports.tolist() == supports


def test_large_canopy_pipeline_stays_array_native():
    # K=4, L=8: 87,381 vertices; nothing on the pipeline builds the graph
    # view, including the refused spectrum
    t = build_truncated_canopy(4, 8)
    p = potential_roots(t, 2)
    r = sample_disorder(DisorderSpec(seed=0), p.roots)
    op = assemble_canopy_operator(t, p, r)
    x = next(x for x in p.roots if t.depth[x] == 2)
    sub = subtree_eigenpairs(4, 1)
    certs = canopy_certificates(
        t, p, r, x, float(sub.eigenvalues[0]), sub.eigenvectors[:, 0], operator=op
    )
    assert len(certs) == 3
    with pytest.raises(TooLargeError):
        operator_spectrum(op)
    assert "graph" not in vars(t)
