import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multispec.anderson import (
    POINT_MASS,
    DisorderSpec,
    assemble_canopy_operator,
    assemble_cayley_operator,
    sample_disorder,
)
from multispec.canopy import build_truncated_canopy, potential_roots, subtree, tree_size
from multispec.cayley import CayleyTemplate, build_cayley_graph, cyclic_group, product_of_cyclics
from multispec.errors import CertificateError, InvalidArgumentError, TooLargeError
from multispec.graph_core import (
    GluedGraphSpec,
    adjacency_matrix,
    glue_subgraphs,
    make_graph,
    path_graph,
    prime_paths_graph,
)
from multispec.spectral import (
    alpha_basis,
    canopy_certificates,
    canopy_tolerance,
    cayley_certificates,
    cluster_multiplicities,
    eig_sym,
    junction_kernel_basis,
    operator_spectrum,
    subtree_eigenpairs,
    support_residuals,
)


def path_spectrum(k):
    """Closed form for the path on k vertices: 2 cos(pi j / (k+1))."""
    return np.sort([2 * np.cos(np.pi * j / (k + 1)) for j in range(1, k + 1)])


class TestEigSym:
    def test_zero_matrix(self):
        es = eig_sym(np.zeros((4, 4)))
        assert np.array_equal(es.eigenvalues, np.zeros(4))

    def test_path_three(self):
        es = eig_sym(adjacency_matrix(path_graph(3)))
        expect = np.array([-np.sqrt(2), 0.0, np.sqrt(2)])
        assert np.max(np.abs(es.eigenvalues - expect)) < 1e-10

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_odd_path_closed_form(self, p):
        k = 2 * p - 1
        es = eig_sym(adjacency_matrix(path_graph(k)))
        assert np.max(np.abs(es.eigenvalues - path_spectrum(k))) < 1e-10

    def test_rejects_non_symmetric(self):
        with pytest.raises(InvalidArgumentError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_cap(self):
        with pytest.raises(TooLargeError):
            eig_sym(np.zeros((10, 10)), cap=5)


class TestClustering:
    def test_distinct_values(self):
        assert cluster_multiplicities([0.0, 1.0, 2.0], 1e-7) == [
            (0.0, 1),
            (1.0, 1),
            (2.0, 1),
        ]

    def test_star_spectrum(self):
        # brute oracle: the 4-vertex star has spectrum {-sqrt(3), 0, 0, sqrt(3)}
        star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        eigs = np.linalg.eigvalsh(adjacency_matrix(star))
        clusters = cluster_multiplicities(eigs.tolist(), 1e-7)
        assert [c for _, c in clusters] == [1, 2, 1]
        assert abs(clusters[1][0]) < 1e-12

    def test_exact_duplicates_merge(self):
        assert cluster_multiplicities([1.0, 1.0, 1.0], 1e-300) == [(1.0, 3)]

    def test_counts_sum(self):
        vals = sorted(np.random.default_rng(0).normal(size=40).tolist())
        clusters = cluster_multiplicities(vals, 0.1)
        assert sum(c for _, c in clusters) == 40

    def test_rejects_bad_tau(self):
        with pytest.raises(InvalidArgumentError):
            cluster_multiplicities([0.0], 0.0)

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidArgumentError):
            cluster_multiplicities([1.0, 0.0], 1e-7)


class TestAlphaBasis:
    def test_k2_forced_row(self):
        rows = alpha_basis(2).rows
        assert rows.shape == (1, 2)
        assert np.allclose(np.abs(rows[0]), 1 / np.sqrt(2))
        assert abs(rows[0].sum()) < 1e-15

    def test_k3_gram(self):
        rows = alpha_basis(3).rows
        assert np.max(np.abs(rows.sum(axis=1))) < 1e-14
        assert np.max(np.abs(rows @ rows.T - np.eye(2))) < 1e-14

    @pytest.mark.parametrize("K", range(2, 21))
    def test_rank(self, K):
        rows = alpha_basis(K).rows
        assert np.linalg.matrix_rank(rows) == K - 1

    def test_rejects_k1(self):
        with pytest.raises(InvalidArgumentError):
            alpha_basis(1)


class TestSubtreeEigenpairs:
    def test_depth_zero(self):
        es = subtree_eigenpairs(3, 0)
        assert es.eigenvalues.tolist() == [0.0]

    def test_star(self):
        es = subtree_eigenpairs(3, 1)
        expect = np.array([-np.sqrt(3), 0.0, 0.0, np.sqrt(3)])
        assert np.max(np.abs(es.eigenvalues - expect)) < 1e-12

    def test_depth_two_symmetric_spectrum(self):
        # trees are bipartite, so the spectrum is symmetric about 0
        es = subtree_eigenpairs(3, 2)
        assert es.eigenvalues.size == 13
        assert np.max(np.abs(es.eigenvalues + es.eigenvalues[::-1])) < 1e-9


@pytest.fixture(scope="module")
def canopy_instance():
    t = build_truncated_canopy(3, 5)
    p = potential_roots(t, 2)
    r = sample_disorder(DisorderSpec(seed=7), p.roots)
    op = assemble_canopy_operator(t, p, r)
    sub = subtree_eigenpairs(3, 1)
    return t, p, r, op, sub


class TestCanopyCertificates:
    def test_residuals_and_orthonormality(self, canopy_instance):
        t, p, r, op, sub = canopy_instance
        x = next(x for x in p.roots if t.depth[x] == 2)
        for k in range(4):
            E = float(sub.eigenvalues[k])
            certs = canopy_certificates(
                t, p, r, x, E, sub.eigenvectors[:, k], operator=op
            )
            assert len(certs) == 2
            tol = 1e-9 * (1 + abs(E) + 3 + 1 + r.max_abs())
            assert all(c.residual <= tol for c in certs)
            vecs = np.column_stack([c.dense(t.vertex_count) for c in certs])
            assert np.max(np.abs(vecs.T @ vecs - np.eye(2))) < 1e-10

    def test_zero_at_root_and_outside_patch(self, canopy_instance):
        t, p, r, op, sub = canopy_instance
        x = next(x for x in p.roots if t.depth[x] == 2)
        patch = set(v for v, root in enumerate(p.patch_of) if root == x)
        certs = canopy_certificates(
            t, p, r, x, float(sub.eigenvalues[0]), sub.eigenvectors[:, 0], operator=op
        )
        for c in certs:
            dense = c.dense(t.vertex_count)
            assert dense[x] == 0.0
            outside = [v for v in range(t.vertex_count) if v not in patch]
            assert not dense[outside].any()

    def test_zero_disorder_certifies_adjacency(self):
        t = build_truncated_canopy(3, 2)
        p = potential_roots(t, 2)
        r = sample_disorder(DisorderSpec(POINT_MASS, (0.0,), seed=0), p.roots)
        sub = subtree_eigenpairs(3, 1)
        certs = canopy_certificates(
            t, p, r, 0, float(sub.eigenvalues[3]), sub.eigenvectors[:, 3]
        )
        assert all(c.eigenvalue == sub.eigenvalues[3] for c in certs)

    def test_oracle_eigenvalue_match(self, canopy_instance):
        t, p, r, op, sub = canopy_instance
        eigs = eig_sym(op.to_dense()).eigenvalues
        for x in p.roots:
            if t.depth[x] != 2:
                continue
            for k in range(4):
                target = float(sub.eigenvalues[k]) + r.values[x]
                assert np.sum(np.abs(eigs - target) <= 1e-7) >= 2

    def test_disjoint_supports_across_roots(self, canopy_instance):
        t, p, r, op, sub = canopy_instance
        roots = [x for x in p.roots if t.depth[x] == 2][:3]
        supports = []
        for x in roots:
            certs = canopy_certificates(
                t, p, r, x, float(sub.eigenvalues[0]), sub.eigenvectors[:, 0], operator=op
            )
            supports.append(set(certs[0].support))
        assert not (supports[0] & supports[1])
        assert not (supports[0] & supports[2])

    def test_cross_energy_orthogonality(self, canopy_instance):
        t, p, r, op, sub = canopy_instance
        x = next(x for x in p.roots if t.depth[x] == 2)
        a = canopy_certificates(
            t, p, r, x, float(sub.eigenvalues[0]), sub.eigenvectors[:, 0], operator=op
        )
        b = canopy_certificates(
            t, p, r, x, float(sub.eigenvalues[3]), sub.eigenvectors[:, 3], operator=op
        )
        for ca in a:
            for cb in b:
                dot = ca.dense(t.vertex_count) @ cb.dense(t.vertex_count)
                assert abs(dot) <= 1e-10

    def test_deep_root_construction_fails_residual(self, canopy_instance):
        # the explicit construction is only an eigenvector when the support
        # reaches the leaf boundary, i.e. for patch roots at depth exactly l
        t, p, r, op, sub = canopy_instance
        with pytest.raises(CertificateError):
            canopy_certificates(
                t, p, r, t.root, float(sub.eigenvalues[0]), sub.eigenvectors[:, 0],
                operator=op,
            )

    def test_k2_single_certificate(self):
        t = build_truncated_canopy(2, 2)
        p = potential_roots(t, 2)
        r = sample_disorder(DisorderSpec(seed=3), p.roots)
        sub = subtree_eigenpairs(2, 1)
        certs = canopy_certificates(
            t, p, r, 0, float(sub.eigenvalues[0]), sub.eigenvectors[:, 0]
        )
        assert len(certs) == 1

    def test_rejects_non_root(self, canopy_instance):
        t, p, r, op, sub = canopy_instance
        non_root = next(v for v in range(t.vertex_count) if v not in p.roots)
        with pytest.raises(InvalidArgumentError):
            canopy_certificates(
                t, p, r, non_root, 0.0, sub.eigenvectors[:, 1], operator=op
            )

    def test_rejects_bad_psi(self, canopy_instance):
        t, p, r, op, sub = canopy_instance
        x = next(x for x in p.roots if t.depth[x] == 2)
        bad = np.ones(4) / 2.0
        with pytest.raises(InvalidArgumentError):
            canopy_certificates(t, p, r, x, 1.0, bad, operator=op)


class TestJunctionKernel:
    def test_all_attach_values_zero(self):
        # E0 = 0 eigenvector of the 3-path is (1, 0, -1)/sqrt(2): attaching at
        # the middle vertex makes the junction system the zero matrix
        pieces = (path_graph(3), path_graph(3), path_graph(3))
        spec = GluedGraphSpec(pieces, ((1,), (1,), (1,)), 1)
        kernel = junction_kernel_basis(glue_subgraphs(spec), 0.0)
        assert len(kernel) == 3

    def test_prime_paths_dimension(self):
        kernel = junction_kernel_basis(prime_paths_graph(4, 2), 0.0)
        assert len(kernel) >= 2

    def test_junction_cancellation_identity(self):
        glued = prime_paths_graph(4, 2)
        kernel = junction_kernel_basis(glued, 0.0)
        adj = glued.graph.neighbors()
        for vec in kernel:
            for j in glued.junctions:
                assert abs(sum(vec[u] for u in adj[j])) <= 1e-12

    def test_vectors_orthonormal(self):
        glued = prime_paths_graph(4, 2)
        kernel = junction_kernel_basis(glued, 0.0)
        mat = np.column_stack(kernel)
        assert np.max(np.abs(mat.T @ mat - np.eye(len(kernel)))) < 1e-10

    def test_rejects_missing_eigenvalue(self):
        spec = GluedGraphSpec((path_graph(2),), ((0,),), 1)
        with pytest.raises(InvalidArgumentError):
            junction_kernel_basis(glue_subgraphs(spec), 0.0)


@pytest.fixture(scope="module")
def instance():
    glued = prime_paths_graph(4, 2)
    tmpl = CayleyTemplate(
        glued.graph, {-1: glued.junctions[0], 1: glued.junctions[1]}
    )
    cg = build_cayley_graph(tmpl, cyclic_group(6))
    r = sample_disorder(DisorderSpec(seed=5), range(6))
    kernel = junction_kernel_basis(glued, 0.0)
    return cg, r, kernel


class TestCayleyCertificates:
    def test_certificates_per_fiber(self, instance):
        cg, r, kernel = instance
        for g in range(6):
            certs = cayley_certificates(cg, r, g, 0.0, kernel)
            assert len(certs) == len(kernel)
            assert all(c.residual <= 1e-10 for c in certs)
            assert all(c.eigenvalue == r.values[g] for c in certs)

    def test_support_inside_fiber(self, instance):
        cg, r, kernel = instance
        certs = cayley_certificates(cg, r, 2, 0.0, kernel)
        fiber = set(cg.fiber_vertices(2))
        for c in certs:
            assert set(c.support) <= fiber

    def test_trivial_group_reduction(self):
        glued = prime_paths_graph(4, 2)
        tmpl = CayleyTemplate(glued.graph, {-1: 0, 1: 1})
        cg = build_cayley_graph(tmpl, cyclic_group(1))
        r = sample_disorder(DisorderSpec(POINT_MASS, (0.25,), seed=0), range(1))
        kernel = junction_kernel_basis(glued, 0.0)
        certs = cayley_certificates(cg, r, 0, 0.0, kernel)
        assert all(c.eigenvalue == 0.25 for c in certs)

    def test_anchor_vanishing_enforced(self, instance):
        cg, r, _ = instance
        n = cg.n_base
        bad = np.zeros(n)
        bad[cg.template.anchors[1]] = 1.0
        with pytest.raises(InvalidArgumentError):
            cayley_certificates(cg, r, 0, 0.0, [bad])

    def test_boundary_fiber_rejected(self):
        from multispec.cayley import zd_box

        glued = prime_paths_graph(4, 2)
        tmpl = CayleyTemplate(glued.graph, {-1: 0, 1: 1})
        cg = build_cayley_graph(tmpl, zd_box(1, 1))
        r = sample_disorder(DisorderSpec(seed=5), range(3))
        kernel = junction_kernel_basis(glued, 0.0)
        boundary = next(iter(cg.boundary_fibers))
        with pytest.raises(InvalidArgumentError):
            cayley_certificates(cg, r, boundary, 0.0, kernel)

    def test_oracle_cluster_count(self, instance):
        cg, r, kernel = instance
        from multispec.anderson import assemble_cayley_operator

        op = assemble_cayley_operator(cg, r)
        eigs = eig_sym(op.to_dense()).eigenvalues
        for g in range(6):
            target = r.values[g]
            assert np.sum(np.abs(eigs - target) <= 1e-7) >= len(kernel)


def _dense_residuals(op, support, values, eigenvalue):
    """The dense oracle: each vector materialized at full length and
    multiplied by the assembled operator."""
    out = []
    for row in values:
        dense = np.zeros(op.dimension)
        dense[list(support)] = row
        out.append(float(np.max(np.abs(op.matvec(dense) - eigenvalue * dense))))
    return out


class TestSupportLocalResiduals:
    """The support-local residual equals the dense op.matvec residual bit for
    bit, and certificate pass/fail agrees with the dense check."""

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(2, 4),
        l=st.integers(2, 3),
        blocks=st.integers(0, 2),
        seed=st.integers(0, 2**31 - 1),
        pick=st.integers(0, 10**6),
        k=st.integers(0, 10**6),
    )
    def test_canopy(self, K, l, blocks, seed, pick, k):
        L = l + blocks * (l + 1)
        assume(tree_size(K, L) <= 2_000)
        t = build_truncated_canopy(K, L)
        p = potential_roots(t, l)
        r = sample_disorder(DisorderSpec(seed=seed), p.roots)
        op = assemble_canopy_operator(t, p, r)
        sub = subtree_eigenpairs(K, l - 1)
        # every other draw takes a root above depth l, where the construction fails
        deep = [x for x in p.roots if t.depth[x] > l]
        roots = deep if deep and pick % 2 else p.roots
        x = roots[pick % len(roots)]
        k %= sub.eigenvalues.size
        E, psi = float(sub.eigenvalues[k]), sub.eigenvectors[:, k]
        support = tuple(v for y in t.children[x] for v in subtree(t, y, l - 1))
        values = (alpha_basis(K).rows[:, :, None] * psi).reshape(K - 1, -1)
        eigenvalue = E + r.values[x]
        dense = _dense_residuals(op, support, values, eigenvalue)
        local = support_residuals(op, np.array(support), values, eigenvalue)
        assert local.tolist() == dense
        # arbitrary vectors on the same support exercise every row sum
        noise = np.random.default_rng(seed).standard_normal(values.shape)
        assert support_residuals(op, np.array(support), noise, eigenvalue).tolist() == (
            _dense_residuals(op, support, noise, eigenvalue)
        )
        tol = canopy_tolerance(E, K, r.max_abs())
        try:
            certs = canopy_certificates(t, p, r, x, E, psi, operator=op)
        except CertificateError:
            assert max(dense) > tol
        else:
            assert max(dense) <= tol
            assert [c.residual for c in certs] == dense

    @settings(max_examples=25, deadline=None)
    @given(
        group=st.sampled_from(
            [cyclic_group(2), cyclic_group(5), cyclic_group(9), product_of_cyclics((2, 3)),
             product_of_cyclics((3, 3))]
        ),
        pieces=st.integers(3, 4),
        seed=st.integers(0, 2**31 - 1),
        g=st.integers(0, 10**6),
    )
    def test_cayley(self, group, pieces, seed, g):
        glued = prime_paths_graph(pieces, 2)
        anchors = {}
        for i in range(1, len(group.generators) + 1):
            anchors[-i] = glued.junctions[0]
            anchors[i] = glued.junctions[1]
        cg = build_cayley_graph(CayleyTemplate(glued.graph, anchors), group)
        kernel = junction_kernel_basis(glued, 0.0)
        assume(kernel)
        r = sample_disorder(DisorderSpec(seed=seed), range(group.size))
        op = assemble_cayley_operator(cg, r)
        g %= group.size
        support = tuple(cg.fiber_vertices(g))
        eigenvalue = r.values[g]
        noise = np.random.default_rng(seed).standard_normal((2, len(support)))
        for values in (np.stack(kernel), noise):
            assert support_residuals(op, np.array(support), values, eigenvalue).tolist() == (
                _dense_residuals(op, support, values, eigenvalue)
            )
        certs = cayley_certificates(cg, r, g, 0.0, kernel, operator=op)
        assert [c.residual for c in certs] == _dense_residuals(
            op, support, np.stack(kernel), eigenvalue
        )

    def test_perturbation_detected(self, canopy_instance):
        t, p, r, op, sub = canopy_instance
        x = next(x for x in p.roots if t.depth[x] == 2)
        cert = canopy_certificates(
            t, p, r, x, float(sub.eigenvalues[0]), sub.eigenvectors[:, 0], operator=op
        )[0]
        values = np.array([[cert.vector.get(i, 0.0) for i in cert.support]])
        values[0, 0] += 1e-3
        local = support_residuals(op, np.array(cert.support), values, cert.eigenvalue)
        assert local[0] > 1e-4


class TestCaching:
    def test_operator_spectrum_cap_before_densifying(self, canopy_instance, monkeypatch):
        t, p, r, _, _ = canopy_instance
        op = assemble_canopy_operator(t, p, r)
        monkeypatch.setattr(type(op), "to_dense", lambda self: pytest.fail("densified"))
        with pytest.raises(TooLargeError):
            operator_spectrum(op, cap=op.dimension - 1)

    def test_operator_spectrum_read_only_and_cached(self, canopy_instance):
        t, p, r, _, _ = canopy_instance
        op = assemble_canopy_operator(t, p, r)
        w = operator_spectrum(op)
        assert operator_spectrum(op) is w
        assert np.array_equal(w, eig_sym(op.to_dense()).eigenvalues)
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            op.potential[0] = 0.0
        with pytest.raises(AttributeError):
            op.potential = np.zeros(op.dimension)

    def test_subtree_eigenpairs_shared_and_read_only(self):
        es = subtree_eigenpairs(3, 1)
        assert subtree_eigenpairs(3, 1) is es
        with pytest.raises(ValueError):
            es.eigenvectors[0, 0] = 1.0
