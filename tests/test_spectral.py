import itertools
import re
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multispec import spectral
from multispec.anderson import (
    POINT_MASS,
    TWO_POINT,
    UNIFORM,
    DisorderSpec,
    SiteOperator,
    assemble_canopy_operator,
    assemble_cayley_operator,
    sample_disorder,
)
from multispec.canopy import build_truncated_canopy, potential_roots, tree_size
from multispec.cayley import (
    CayleyTemplate,
    build_cayley_graph,
    build_group,
    cyclic_group,
    free_group_ball,
    product_of_cyclics,
    zd_box,
)
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
    canopy_families,
    cayley_certificates,
    cluster_multiplicities,
    eig_sym,
    junction_kernel_basis,
    operator_spectrum,
    residual_tolerance,
    subtree_eigenpairs,
    support_residuals,
)
import oracle
from oracle import canopy_core, dense_operator, from_scipy, scipy_csr, subtree


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

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(st.integers(0, 5), max_size=40),
        start=st.integers(-40, 40),
        tau=st.sampled_from([0.25, 0.5, 1.0]),
        empty=st.booleans(),
    )
    def test_gaps_of_exactly_tau_and_repeats(self, steps, start, tau, empty):
        # values on the grid 0.25 Z, where every difference is exact: repeats
        # (step 0) join, a gap of exactly tau joins, a wider one splits
        values = [] if empty else (0.25 * np.cumsum([start, *steps])).tolist()
        clusters = cluster_multiplicities(values, tau)
        assert clusters == oracle.cluster_multiplicities(values, tau)
        assert cluster_multiplicities(np.array(values), tau) == clusters
        expected = sum(1 for _, c in clusters if c >= 2)
        assert spectral.clusters_ge_2(values, tau) == spectral.clusters_ge_2(np.array(values), tau)
        assert spectral.clusters_ge_2(values, tau) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.floats(-5.0, 5.0), max_size=30),
        repeat=st.integers(0, 3),
        tau=st.floats(1e-9, 2.0),
    )
    def test_clusters_ge_2_counts_the_clusters(self, values, repeat, tau):
        values = sorted(values + values[:repeat])
        clusters = cluster_multiplicities(values, tau)
        assert clusters == oracle.cluster_multiplicities(values, tau)
        assert spectral.clusters_ge_2(values, tau) == sum(1 for _, c in clusters if c >= 2)

    def test_clusters_ge_2_checks_as_the_clusters(self):
        with pytest.raises(InvalidArgumentError, match="positive"):
            spectral.clusters_ge_2([0.0], 0.0)
        with pytest.raises(InvalidArgumentError, match="sorted ascending"):
            spectral.clusters_ge_2([1.0, 0.0], 1e-7)


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

    def test_cached_and_read_only(self):
        basis = alpha_basis(4)
        assert alpha_basis(4) is basis
        with pytest.raises(ValueError):
            basis.rows[0, 0] = 1.0


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
        eigs = eig_sym(dense_operator(op)).eigenvalues
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
                t, p, r, 0, float(sub.eigenvalues[0]), sub.eigenvectors[:, 0],
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

    def test_rejects_nan_psi(self, canopy_instance):
        # a NaN fails every tolerance comparison, so each check must be
        # written to raise on it rather than to pass it
        t, p, r, op, sub = canopy_instance
        x = next(x for x in p.roots if t.depth[x] == 2)
        psi = sub.eigenvectors[:, 0].copy()
        psi[1] = np.nan
        with pytest.raises(InvalidArgumentError):
            canopy_certificates(t, p, r, x, float(sub.eigenvalues[0]), psi, operator=op)


def _fields(certs):
    """Everything a certificate states, for exact comparison."""
    return [(c.vector, c.eigenvalue, c.support, c.residual, c.provenance) for c in certs]


def _same_outcome(batch_outcome, single_call):
    """A family of a batched call equals the single-pair call bit for bit:
    the same certificates, or a CertificateError with the same text."""
    try:
        single = single_call()
    except CertificateError as exc:
        assert isinstance(batch_outcome, CertificateError)
        assert str(batch_outcome) == str(exc)
    else:
        assert not isinstance(batch_outcome, CertificateError), str(batch_outcome)
        assert _fields(batch_outcome) == _fields(single)


class TestCertificateBatch:
    """One call for many (root, eigenpair) families or many fibers equals
    the single-pair calls, family by family and in the same order."""

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(2, 4),
        l=st.integers(2, 3),
        blocks=st.integers(0, 2),
        seed=st.integers(0, 2**31 - 1),
        pick=st.integers(0, 2**31 - 1),
        block=st.sampled_from([1, 2_000, 60_000, spectral.SCHUR_BLOCK_BYTES]),
    )
    def test_canopy_families_equal_single_pairs(self, K, l, blocks, seed, pick, block):
        L = l + blocks * (l + 1)
        assume(tree_size(K, L) <= 2_000)
        t = build_truncated_canopy(K, L)
        p = potential_roots(t, l)
        r = sample_disorder(DisorderSpec(seed=seed), p.roots)
        op = assemble_canopy_operator(t, p, r)
        sub = subtree_eigenpairs(K, l - 1)
        rng = np.random.default_rng(pick)
        # every deep root, where the construction fails, and some depth-l ones
        deep = [x for x in p.roots if t.depth[x] > l]
        shallow = [x for x in p.roots if t.depth[x] == l]
        roots = deep + rng.choice(shallow, min(len(shallow), 6), replace=False).tolist()
        roots = rng.permutation(roots).tolist()
        ks = rng.permutation(sub.eigenvalues.size)[: rng.integers(1, 4)].tolist()
        with mock.patch.object(spectral, "SCHUR_BLOCK_BYTES", block):
            batch = canopy_certificates(
                t, p, r, roots, sub.eigenvalues[ks], sub.eigenvectors[:, ks], operator=op
            )
        assert len(batch) == len(roots) * len(ks)
        for (x, k), outcome in zip(itertools.product(roots, ks), batch):
            E, psi = float(sub.eigenvalues[k]), sub.eigenvectors[:, k]
            _same_outcome(
                outcome, lambda: canopy_certificates(t, p, r, x, E, psi, operator=op)
            )
            assert isinstance(outcome, CertificateError) == (x in deep)

    @settings(max_examples=15, deadline=None)
    @given(
        group=st.sampled_from([cyclic_group(5), product_of_cyclics((2, 3))]),
        seed=st.integers(0, 2**31 - 1),
        block=st.sampled_from([1, 4_000, spectral.SCHUR_BLOCK_BYTES]),
        E0=st.sampled_from([0.0, 0.5]),
    )
    def test_cayley_fibers_equal_single_fibers(self, group, seed, block, E0):
        glued = prime_paths_graph(4, 2)
        anchors = {}
        for i in range(1, len(group.generators) + 1):
            anchors[-i] = glued.junctions[0]
            anchors[i] = glued.junctions[1]
        cg = build_cayley_graph(CayleyTemplate(glued.graph, anchors), group)
        kernel = junction_kernel_basis(glued, 0.0)
        r = sample_disorder(DisorderSpec(seed=seed), range(group.size))
        op = assemble_cayley_operator(cg, r)
        fibers = np.random.default_rng(seed).permutation(group.size).tolist()
        # at E0 = 0.5 the kernel vectors are no eigenvectors: every fiber fails
        # its residual check, which the base check at E0 = 0 does not see
        base = spectral.check_eigenvectors
        with mock.patch.object(spectral, "SCHUR_BLOCK_BYTES", block), mock.patch.object(
            spectral, "check_eigenvectors", lambda m, v, E, *a: base(m, v, 0.0, *a)
        ):
            batch = cayley_certificates(cg, r, fibers, E0, kernel, operator=op)
            assert len(batch) == len(fibers)
            for g, outcome in zip(fibers, batch):
                _same_outcome(
                    outcome, lambda: cayley_certificates(cg, r, g, E0, kernel, operator=op)
                )
                assert isinstance(outcome, CertificateError) == (E0 != 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(2, 4),
        l=st.integers(2, 3),
        blocks=st.integers(0, 2),
        seed=st.integers(0, 2**31 - 1),
        budget=st.sampled_from(["1", "b-1", "b", "2*b+1", "default"]),
    )
    def test_grouped_families_equal_single_supports(self, K, l, blocks, seed, budget):
        # residual passes go per support, across all m eigenpairs; budgets
        # below one support's b = 8 m k s w bytes of products still take a
        # whole support, and each family equals, bit for bit, the
        # one-support call on its support and the dense residual
        L = l + blocks * (l + 1)
        assume(tree_size(K, L) <= 2_000)
        t = build_truncated_canopy(K, L)
        p = potential_roots(t, l)
        r = sample_disorder(DisorderSpec(seed=seed), p.roots)
        op = assemble_canopy_operator(t, p, r)
        sub = subtree_eigenpairs(K, l - 1)
        m, s = sub.eigenvalues.size, K * tree_size(K, l - 1)
        rng = np.random.default_rng(seed)
        deep = [x for x in p.roots if t.depth[x] > l]
        shallow = [x for x in p.roots if t.depth[x] == l]
        roots = deep + rng.choice(shallow, min(len(shallow), 5), replace=False).tolist()
        roots = rng.permutation(roots).tolist()
        b = 8 * m * (K - 1) * s * op.adjacency.padded_rows.shape[1]
        block = {"1": 1, "b-1": b - 1, "b": b, "2*b+1": 2 * b + 1,
                 "default": spectral.SCHUR_BLOCK_BYTES}[budget]
        with mock.patch.object(spectral, "SCHUR_BLOCK_BYTES", block):
            families = canopy_families(
                t, p, r, roots, sub.eigenvalues, sub.eigenvectors, operator=op
            )
        assert families.residuals.shape == (len(roots) * m, K - 1)
        for i, x in enumerate(roots):
            support = _canopy_support(t, x, l)
            assert families.supports[i].tolist() == list(support)
            for j in range(m):
                values, claim = families.values[j], families.claims[i, j]
                residuals = families.residuals[i * m + j].tolist()
                single = support_residuals(op, np.array(support), values, claim)
                assert single.tolist() == residuals
                assert _dense_residuals(op, support, values, claim) == residuals

    @pytest.mark.parametrize("K", [3, 4])
    def test_families_equal_certificates(self, K):
        # every (root, eigenpair) family of K L5 l2, the deep root's included:
        # the arrays canopy-verify reads hold, bit for bit, the residuals of
        # the certificates a one-family call builds, or the message of the
        # CertificateError it raises
        t = build_truncated_canopy(K, 5)
        p = potential_roots(t, 2)
        r = sample_disorder(DisorderSpec(seed=K), p.roots)
        op = assemble_canopy_operator(t, p, r)
        sub = subtree_eigenpairs(K, 1)
        families = canopy_families(
            t, p, r, p.roots, sub.eigenvalues, sub.eigenvectors, operator=op
        )
        pairs = list(itertools.product(p.roots, range(sub.eigenvalues.size)))
        assert families.residuals.shape == (len(pairs), K - 1)
        rejected = [x for (x, _), e in zip(pairs, families.rejections) if e is not None]
        assert sorted(set(rejected)) == [x for x in p.roots if t.depth[x] > 2]
        for (x, k), residuals, error in zip(
            pairs, families.residuals.tolist(), families.rejections
        ):
            E, psi = float(sub.eigenvalues[k]), sub.eigenvectors[:, k]
            if error is None:
                certificates = canopy_certificates(t, p, r, x, E, psi, operator=op)
                assert [c.residual for c in certificates] == residuals
            else:
                with pytest.raises(CertificateError) as raised:
                    canopy_certificates(t, p, r, x, E, psi, operator=op)
                assert str(raised.value) == str(error)

    @settings(max_examples=200, deadline=None)
    @given(
        supports=st.integers(0, 4),
        m=st.integers(0, 4),
        k=st.integers(0, 3),
        seed=st.integers(0, 2**31 - 1),
        over=st.sampled_from([0.0, 0.1, 1.0]),
        nan=st.sampled_from([0.0, 0.1]),
        spread=st.sampled_from([0.0, 0.3]),
    )
    def test_stack_verdicts_equal_family_verdicts(self, supports, m, k, seed, over, nan, spread):
        # one verdict test over the whole stack, then the walk of the
        # failing families, gives each family's verdict and message as the
        # family-by-family rule: NaN residuals, residuals over or exactly at
        # tolerance, norms off 1 and Gram deviations over ORTHO_TOL
        rng = np.random.default_rng(seed)
        tolerances = rng.uniform(1e-9, 1e-8, m).tolist()
        scale = np.array(tolerances)[:, None] * np.where(rng.random((supports, m, k)) < over, 2, 1)
        residuals = rng.uniform(0.0, 1.0, (supports, m, k)) * scale
        at = rng.random(residuals.shape) < 0.1
        residuals[at] = np.broadcast_to(np.array(tolerances)[:, None], residuals.shape)[at]
        residuals[rng.random(residuals.shape) < nan] = np.nan
        off = rng.choice([-1e-11, 2e-12, 5e-13], (m, k))  # the last within UNIT_NORM_TOL
        norms = 1.0 + np.where(rng.random((m, k)) < spread, off, 0.0)
        devs = np.where(rng.random(m) < spread, rng.choice([1e-10, 3e-10], m), 1e-11)
        checks = list(zip(norms.tolist(), devs.tolist()))
        claims = rng.normal(size=(supports, m))
        got = spectral._rejection(residuals, tolerances, claims, checks)
        want = [
            oracle.rejection(residuals[i, j].tolist(), tolerances[j], claims[i, j].item(), *checks[j])
            for i in range(supports)
            for j in range(m)
        ]
        assert [e if e is None else str(e) for e in got] == [e if e is None else str(e) for e in want]

    def test_each_psi_checked_once(self, canopy_instance, monkeypatch):
        # 28 patch roots, 4 subtree eigenpairs: one check per eigenpair, and
        # none when the same eigenpairs come again
        t, p, r, op, sub = canopy_instance
        spectral._check_subtree_eigenvector.cache_clear()
        checked = []
        base = spectral.check_eigenvectors

        def counting(matrix, vectors, E, error, what):
            checked.append(E)
            return base(matrix, vectors, E, error, what)

        monkeypatch.setattr(spectral, "check_eigenvectors", counting)
        for _ in range(2):
            outcomes = canopy_certificates(
                t, p, r, p.roots, sub.eigenvalues, sub.eigenvectors, operator=op
            )
            assert len(outcomes) == len(p.roots) * 4
        assert checked == sub.eigenvalues.tolist()

    def test_empty_batches(self, canopy_instance, instance):
        t, p, r, op, sub = canopy_instance
        assert canopy_certificates(t, p, r, [], sub.eigenvalues, sub.eigenvectors) == []
        cg, r, kernel = instance
        assert cayley_certificates(cg, r, [], 0.0, kernel) == []
        assert cayley_certificates(cg, r, 0, 0.0, np.zeros((0, cg.n_base))) == []
        assert cayley_certificates(cg, r, [0, 1], 0.0, []) == [[], []]

    def test_batch_rejects_bad_input_whole(self, canopy_instance):
        t, p, r, op, sub = canopy_instance
        non_root = next(v for v in range(t.vertex_count) if v not in p.roots)
        with pytest.raises(InvalidArgumentError, match=f"vertex {non_root} is not"):
            canopy_certificates(
                t, p, r, [p.roots[0], non_root], sub.eigenvalues, sub.eigenvectors
            )
        with pytest.raises(InvalidArgumentError, match="wrong dimension"):
            canopy_certificates(t, p, r, p.roots, sub.eigenvalues[:2], sub.eigenvectors)
        bad = sub.eigenvectors.copy()
        bad[:, 2] *= 2.0
        with pytest.raises(InvalidArgumentError, match="unit norm"):
            canopy_certificates(t, p, r, p.roots, sub.eigenvalues, bad, operator=op)


def _issued(families_of, certificates_of, *args, operator):
    """Everything one certificate call states: its families' residuals and
    claims as bytes, supports and rejection messages, and the certificate
    fields or CertificateError text of its one family or of each family."""
    families = families_of(*args, operator=operator)
    stated = (families.residuals.tobytes(), families.claims.tobytes(),
              families.supports.tolist(), [e and str(e) for e in families.rejections])
    try:
        outcomes = certificates_of(*args, operator=operator)
    except CertificateError as exc:  # one family, rejected
        return stated, str(exc)
    if any(isinstance(o, (list, CertificateError)) for o in outcomes):  # batched
        return stated, [str(o) if isinstance(o, CertificateError) else _fields(o)
                        for o in outcomes]
    return stated, _fields(outcomes)


class TestFamilyReuse:
    """An operator keeps the supports, couplings and residual layout of its
    last family stack, and the lru cache of subtree eigenpairs their
    spreads. Neither shows: any interleaving of calls on one operator gives,
    call by call, what the same call gives on a freshly assembled one."""

    @staticmethod
    def _check(calls, fresh, families_of, certificates_of):
        shared = fresh()
        for args in calls:
            got = _issued(families_of, certificates_of, *args, operator=shared)
            spectral._check_subtree_eigenvector.cache_clear()
            assert got == _issued(families_of, certificates_of, *args, operator=fresh()), args

    @settings(max_examples=25, deadline=None)
    @given(
        K=st.integers(2, 4),
        l=st.integers(2, 3),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    def test_canopy_calls(self, K, l, seed, data):
        L = 2 * l + 1  # one patch root below the depth-l ones
        assume(tree_size(K, L) <= 4_000)
        t = build_truncated_canopy(K, L)
        p = potential_roots(t, l)
        r, r2 = (sample_disorder(DisorderSpec(seed=s), p.roots) for s in (seed, seed + 1))
        sub = subtree_eigenpairs(K, l - 1)
        m = sub.eigenvalues.size
        deep = next(x for x in p.roots if t.depth[x] > l)
        shallow = [x for x in p.roots if t.depth[x] == l]
        roots = [deep, *data.draw(st.lists(st.sampled_from(shallow), min_size=2, max_size=3))]
        pair = st.tuples(st.sampled_from(roots), st.integers(0, m - 1), st.sampled_from([r, r2]))
        x, k = data.draw(st.sampled_from(roots[1:])), data.draw(st.integers(0, m - 1))
        batch = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
        # random calls, then a root repeated with another eigenpair and with
        # r2, the deep root, a batched call and the deep root again
        pairs = data.draw(st.lists(pair, max_size=6))
        pairs += [(x, k, r), (x, (k + 1) % m, r), (x, k, r2), (deep, k, r)]
        calls = [(t, p, rr, y, float(sub.eigenvalues[j]), sub.eigenvectors[:, j])
                 for y, j, rr in pairs]
        calls.append((t, p, r, roots, sub.eigenvalues[batch], sub.eigenvectors[:, batch]))
        calls.append(calls[-2])
        self._check(calls, lambda: assemble_canopy_operator(t, p, r),
                    canopy_families, canopy_certificates)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), data=st.data())
    def test_cayley_calls(self, seed, data):
        group = build_group("cyclic:12")
        cg, r, _ = _cayley_instance(group, 4, seed)
        r2 = sample_disorder(DisorderSpec(seed=seed + 1), range(group.size))
        kernel = junction_kernel_basis(prime_paths_graph(4, 2), 0.0)
        fiber = st.integers(0, group.size - 1)
        pairs = data.draw(st.lists(st.tuples(fiber, st.sampled_from([r, r2])), max_size=6))
        g = data.draw(fiber)
        pairs += [(g, r), (g, r), (g, r2)]
        calls = [(cg, rr, h, 0.0, kernel) for h, rr in pairs]
        calls.append((cg, r, data.draw(st.lists(fiber, min_size=1, max_size=5)), 0.0, kernel))
        calls.append(calls[-2])
        self._check(calls, lambda: assemble_cayley_operator(cg, r),
                    spectral.cayley_families, cayley_certificates)


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

    def test_rejects_nan_piece_vector(self, monkeypatch):
        # the 3-path E0 = 0 eigenvector (1, 0, -1)/sqrt(2) with a NaN off its
        # attach point: the junction system stays finite, the kernel does not
        solve = spectral.eig_sym

        def poisoned(M, *args, **kwargs):
            es = solve(M, *args, **kwargs)
            vectors = es.eigenvectors.copy()
            vectors[0] = np.nan
            return spectral.EigenSystem(es.eigenvalues, vectors, es.residual_bound)

        monkeypatch.setattr(spectral, "eig_sym", poisoned)
        spec = GluedGraphSpec((path_graph(3), path_graph(3)), ((1,), (1,)), 1)
        with pytest.raises(CertificateError, match="kernel vector residual nan"):
            junction_kernel_basis(glue_subgraphs(spec), 0.0)

    def test_piece_cap_before_densifying(self, monkeypatch):
        # a piece over the eig cap is refused before any piece is densified
        def refuse(g):
            raise AssertionError("piece densified before the cap check")

        monkeypatch.setattr(spectral, "adjacency_matrix", refuse)
        big = make_graph(spectral.DEFAULT_EIG_CAP + 1, [])
        spec = GluedGraphSpec((path_graph(3), big), ((1,), (0,)), 1)
        with pytest.raises(TooLargeError, match="exceeds eig cap"):
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

    @pytest.mark.parametrize("g", [1.0, "1", True, [1, True], np.array([1.5]), [[1], [2, 3]]])
    def test_non_integer_fibers_refused(self, instance, g):
        # a float, string or bool fiber, or a ragged list, is refused with
        # one line; True is not read as fiber 1
        cg, r, kernel = instance
        with pytest.raises(InvalidArgumentError, match="^fibers must be integers"):
            spectral.cayley_families(cg, r, g, 0.0, kernel)

    def test_nan_base_vector_rejected(self, instance):
        cg, r, kernel = instance
        anchors = set(cg.template.anchor_vertices())
        bad = kernel[0].copy()
        bad[next(v for v in range(cg.n_base) if v not in anchors)] = np.nan
        with pytest.raises(InvalidArgumentError, match="base eigenvector residual nan"):
            cayley_certificates(cg, r, 0, 0.0, [bad])

    @pytest.mark.parametrize(
        "scale, E0, message",
        [
            # vector 0 fails its residual first, before vector 1 its norm
            ((1.0, 1.001), 0.5, "certificate residual .* exceeds tolerance"),
            # within one vector the norm is checked before the residual
            ((1.001, 1.0), 0.5, "certificate vector norm 1.001 is not 1"),
            # the Gram check comes after every vector passed
            ((1.0, None), 0.0, "certificate Gram deviates from identity by 1.000e"),
        ],
    )
    def test_first_failure_reported(self, instance, monkeypatch, scale, E0, message):
        cg, r, kernel = instance
        psis = [kernel[0] * scale[0], kernel[1] * scale[1] if scale[1] else kernel[0]]
        # the kernel is an eigenvector at 0; claim E0 past the base check
        base = spectral.check_eigenvectors
        monkeypatch.setattr(
            spectral, "check_eigenvectors", lambda m, v, E, *a: base(m, v, 0.0, *a)
        )
        with pytest.raises(CertificateError, match=message):
            cayley_certificates(cg, r, 0, E0, psis)
        (outcome,) = cayley_certificates(cg, r, [0], E0, psis)
        assert isinstance(outcome, CertificateError)
        assert re.match(message, str(outcome))

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
        eigs = eig_sym(dense_operator(op)).eigenvalues
        for g in range(6):
            target = r.values[g]
            assert np.sum(np.abs(eigs - target) <= 1e-7) >= len(kernel)


def _dense_residuals(op, support, values, eigenvalue):
    """The dense oracle: each vector materialized at full length and
    multiplied by the assembled operator, at one eigenvalue for every
    vector or one per vector."""
    out = []
    for row, E in zip(values, np.broadcast_to(eigenvalue, len(values))):
        dense = np.zeros(op.dimension)
        dense[list(support)] = row
        h_dense = op.adjacency @ dense + op.potential * dense
        out.append(float(np.max(np.abs(h_dense - E * dense))))
    return out


def _canopy_support(t, x, l):
    """The depth-(l-1) subtrees of x's children, found from the parent
    array, concatenated in BFS order: the support of x's certificates."""
    children = np.flatnonzero(t.parent == x).tolist()
    return tuple(v for y in children for v in subtree(t, y, l - 1))


class TestSupportLocalResiduals:
    """The support-local residual equals the dense H v residual bit for
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
        support = _canopy_support(t, x, l)
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
        tol = residual_tolerance(op, E)
        try:
            certs = canopy_certificates(t, p, r, x, E, psi, operator=op)
        except CertificateError:
            assert max(dense) > tol
        else:
            assert max(dense) <= tol
            assert [c.residual for c in certs] == dense

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(2, 4),
        depths=st.sampled_from([(3, 1), (5, 1), (2, 2), (5, 2), (3, 3)]),
        seed=st.integers(0, 2**31 - 1),
        lead=st.sampled_from([(), (1,), (3,), (2, 3), (4, 1)]),
        s=st.integers(1, 12),
        k=st.integers(1, 3),
        per_vector=st.booleans(),
    )
    def test_stack_of_supports(self, K, depths, seed, lead, s, k, per_vector):
        # random supports, overlapping from family to family, with random
        # vectors and eigenvalues, one per support (lead) or one per vector
        # (lead + (k,)): each family equals its dense residual
        L, l = depths
        t = build_truncated_canopy(K, L)
        assume(t.vertex_count <= 2_000 and s <= t.vertex_count)
        p = potential_roots(t, l)
        op = assemble_canopy_operator(t, p, sample_disorder(DisorderSpec(seed=seed), p.roots))
        rng = np.random.default_rng(seed)
        families = int(np.prod(lead))
        supports = np.array(
            [rng.choice(t.vertex_count, s, replace=False) for _ in range(families)]
        ).reshape(lead + (s,))
        values = rng.standard_normal(lead + (k, s))
        eigenvalues = rng.uniform(-3.0, 3.0, lead + (k,) * per_vector)
        stack = support_residuals(op, supports, values, eigenvalues)
        assert stack.shape == lead + (k,)
        for f in np.ndindex(*lead):
            assert stack[f].tolist() == _dense_residuals(
                op, supports[f].tolist(), values[f], eigenvalues[f]
            )

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
        monkeypatch.setattr(spectral, "_canopy_blocks", lambda *a: pytest.fail("solved"))
        with pytest.raises(TooLargeError):
            operator_spectrum(op, cap=op.dimension - 1)

    def test_operator_spectrum_refuses_untiled_operator(self):
        _, op = _cayley_operator(cyclic_group(6), 4, 5)
        with pytest.raises(TooLargeError):
            operator_spectrum(op, cap=op.dimension - 1)
        with pytest.raises(InvalidArgumentError, match="with window_counts or counts_below"):
            operator_spectrum(op)
        assert op._eigenvalues is None

    def test_operator_spectrum_read_only_and_cached(self, canopy_instance):
        t, p, r, _, _ = canopy_instance
        op = assemble_canopy_operator(t, p, r)
        w = operator_spectrum(op)
        assert operator_spectrum(op) is w
        assert np.max(np.abs(w - eig_sym(dense_operator(op)).eigenvalues)) <= 1e-12
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

    def test_subtree_template_cap_before_densifying(self, monkeypatch):
        # K=2, depth 12: 8,191 vertices, over the eig cap, under the vertex cap
        monkeypatch.setattr(spectral, "tree_adjacency", lambda t: pytest.fail("densified"))
        with pytest.raises(TooLargeError, match="^dimension 8191 exceeds eig cap 5000$"):
            subtree_eigenpairs(2, 12)


DISORDERS = [
    DisorderSpec(UNIFORM, (0.0, 1.0)),
    DisorderSpec(UNIFORM, (-2.0, 3.0)),
    DisorderSpec(TWO_POINT, (-1.0, 2.0)),
    DisorderSpec(POINT_MASS, (0.7,)),
]


def _canopy_operator(K, L, l, disorder, seed):
    t = build_truncated_canopy(K, L)
    p = potential_roots(t, l)
    spec = DisorderSpec(disorder.distribution, disorder.params, seed)
    return t, p, assemble_canopy_operator(t, p, sample_disorder(spec, p.roots))


class TestReducedCanopySpectrum:
    """operator_spectrum solves a canopy operator on its reduced core plus
    the closed-form patch blocks; the result is the dense spectrum."""

    def _check(self, t, p, op):
        depth = np.array(t.depth)
        core, local = spectral._canopy_blocks(op)
        roots = int(np.sum(depth == p.l))
        assert core.size == int(np.sum(depth > p.l)) + (p.l + 1) * roots
        assert local.shape == (roots, tree_size(t.K, p.l) - (p.l + 1))
        w = operator_spectrum(op)
        assert w.size == op.dimension
        assert np.max(np.abs(w - eig_sym(dense_operator(op)).eigenvalues)) <= 1e-12
        return core.size

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(2, 5),
        l=st.integers(1, 3),
        blocks=st.integers(0, 3),
        disorder=st.sampled_from(DISORDERS),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_dense(self, K, l, blocks, disorder, seed):
        L = l + blocks * (l + 1)
        assume(tree_size(K, L) <= 400)
        self._check(*_canopy_operator(K, L, l, disorder, seed))

    def test_k4_l5(self):
        assert self._check(*_canopy_operator(4, 5, 2, DISORDERS[0], 3)) == 213

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(2, 5),
        l=st.integers(1, 4),
        blocks=st.integers(0, 3),
        disorder=st.sampled_from(DISORDERS),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_quotient_is_the_hand_assembled_core(self, K, l, blocks, disorder, seed):
        # the quotient by the level cells is, bit for bit, the core assembled
        # from the tree's layout (oracle.canopy_core): B^2 / (|Ci| |Cj|) is
        # exactly K down a root's levels and 1 elsewhere
        L = l + blocks * (l + 1)
        assume(tree_size(K, L) <= 2_000)
        _, _, op = _canopy_operator(K, L, l, disorder, seed)
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as solve:
            operator_spectrum(op)
        solve.assert_called_once()
        assert np.array_equal(solve.call_args.args[0], canopy_core(op))

    @staticmethod
    def _wrong_coupling(core, local):
        local = local.copy()
        local[0] += 1e-3  # one root's patch blocks at a shifted coupling
        return core, local

    @staticmethod
    def _nan_value(core, local):
        core = core.copy()
        core[0] = np.nan
        return core, local

    @pytest.mark.parametrize(
        "tamper",
        [_wrong_coupling, lambda core, local: (core[1:], local), _nan_value],
        ids=["wrong_coupling", "dropped_value", "nan_value"],
    )
    def test_merge_check_rejects(self, tamper, monkeypatch):
        _, _, op = _canopy_operator(4, 5, 2, DISORDERS[0], 3)
        blocks = spectral._canopy_blocks
        monkeypatch.setattr(spectral, "_canopy_blocks", lambda *a: tamper(*blocks(*a)))
        with pytest.raises(CertificateError):
            operator_spectrum(op)
        assert op._eigenvalues is None  # nothing unchecked is cached

    def test_cap_on_full_dimension(self, monkeypatch):
        # K3 L8 has a 2,551-vertex core but 9,841 vertices: still over the cap
        t = build_truncated_canopy(3, 8)
        p = potential_roots(t, 2)
        op = assemble_canopy_operator(t, p, sample_disorder(DisorderSpec(), p.roots))
        monkeypatch.setattr(spectral, "_canopy_blocks", lambda *a: pytest.fail("solve"))
        with pytest.raises(TooLargeError, match="dimension 9841 exceeds eig cap 5000"):
            operator_spectrum(op)


# -0.0 - 0.0 is -0.0, whose reciprocal is -inf: only the zero-pivot rule
# gives its parent the negative pivot that +0.0 would
POINT_MASSES = [DisorderSpec(POINT_MASS, (w,)) for w in (0.0, -0.0, 0.5)]


def _tree_counts(op, shifts):
    """_tree_counts_below of the single operator op: its core's counts and
    its own below each shift."""
    return spectral._tree_counts_below(op, np.asarray(shifts)[None], op.potential[None])[:, 0]


class TestTreeInertiaCounts:
    """_tree_counts_below counts a canopy operator's eigenvalues, and its
    core's, below each shift by leaf-to-root elimination of the core tree;
    operator_spectrum encloses every eigvalsh core value with those counts."""

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(2, 5),
        l=st.integers(1, 3),
        blocks=st.integers(0, 2),
        disorder=st.sampled_from(DISORDERS + POINT_MASSES),
        seed=st.integers(0, 2**31 - 1),
        random=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=30),
    )
    def test_matches_dense(self, K, l, blocks, disorder, seed, random):
        L = l + blocks * (l + 1)  # blocks = 0 is the single patch L = l
        assume(tree_size(K, L) <= 400)
        t, p, op = _canopy_operator(K, L, l, disorder, seed)
        dense = np.linalg.eigvalsh(dense_operator(op))
        core = spectral._canopy_blocks(op)[0]
        omega = op.potential[np.flatnonzero(t.depth == l)]
        claims = (subtree_eigenpairs(K, l - 1).eigenvalues + omega[:, None]).ravel()
        shifts = np.concatenate([random, claims, core])
        core_below, below = _tree_counts(op, shifts)
        # a shift within rounding of an eigenvalue may count it either way
        for values, counts in ((dense, below), (core, core_below)):
            assert np.all(np.searchsorted(values, shifts - 1e-9) <= counts)
            assert np.all(counts <= np.searchsorted(values, shifts + 1e-9))
        if disorder.distribution == POINT_MASS:
            # omega + the eigenvalues 0, +-sqrt(K), +-sqrt(2K) of the paths
            # R_0, R_1, R_2 that are integers: exact, so exactly counted
            steps = [sign * np.sqrt(m * K) for m in (1, 2) for sign in (-1, 1)]
            exact = disorder.params[0] + np.array([0.0] + [x for x in steps if x % 1 == 0])
            below = _tree_counts(op, exact)[1]
            assert np.array_equal(below, np.searchsorted(dense, exact - 1e-9))

    @settings(max_examples=80, deadline=None)
    @given(
        K=st.integers(2, 5),
        l=st.integers(2, 3),
        blocks=st.integers(0, 2),
        disorder=st.sampled_from(DISORDERS + POINT_MASSES),
        seed=st.integers(0, 2**31 - 1),
        realizations=st.integers(1, 3),
        random=st.lists(st.floats(-8.0, 8.0), max_size=8),
        shifts_a_pass=st.sampled_from([1, 3, None]),
    )
    def test_chain_recurrence_equals_generic_elimination(
        self, K, l, blocks, disorder, seed, realizations, random, shifts_a_pass
    ):
        # the chains' one recurrence a_(i+1) = z - K / a_i counts as the
        # generic elimination of every level, bit for bit, for stacked
        # potentials and at the shifts where pivots are exactly 0: z = 0 at
        # s = omega_x, and 0, +-sqrt(K), the brackets
        L = l + blocks * (l + 1)
        assume(tree_size(K, L) <= 2_000)
        t, p, op = _canopy_operator(K, L, l, disorder, seed)
        stack = np.array([
            _canopy_operator(K, L, l, disorder, seed + i)[2].potential for i in range(realizations)
        ])
        omega = np.unique(stack[:, t.depth == l])
        root, bracket = np.sqrt(K), op.adjacency_bound + np.abs(stack).max() + 1.0
        points = [0.0, root, -root, bracket, -bracket, *random]
        shifts = np.concatenate([points, omega, omega + root, omega - root])
        shifts = np.tile(shifts, (realizations, 1))
        roots = int(np.count_nonzero(t.depth == l))
        budget = spectral.SCHUR_BLOCK_BYTES if shifts_a_pass is None else (
            8 * (l + 1) * roots * shifts_a_pass
        )
        with mock.patch.object(spectral, "SCHUR_BLOCK_BYTES", budget):
            below = spectral._tree_counts_below(op, shifts, stack)
        assert np.array_equal(below, oracle.tree_counts_below(op, shifts, stack))

    def test_passes_split_under_the_byte_budget(self, monkeypatch):
        t, p, op = _canopy_operator(3, 7, 3, DISORDERS[0], 2)
        shifts = np.linspace(-5.0, 5.0, 101)
        whole = _tree_counts(op, shifts)
        # 81 roots, 4 chain levels: 7 shifts a pass
        monkeypatch.setattr(spectral, "SCHUR_BLOCK_BYTES", 8 * 81 * 4 * 7)
        assert all(map(np.array_equal, _tree_counts(op, shifts), whole))

    @staticmethod
    def _nudged(values, delta):
        values = values.copy()
        values[values.size // 2] += 10 * delta
        return values

    @staticmethod
    def _nan(values, delta):
        values = values.copy()
        values[0] = np.nan
        return values

    @pytest.mark.parametrize("tamper", [_nudged, _nan], ids=["nudged", "nan"])
    def test_enclosure_rejects(self, tamper, monkeypatch):
        _, _, op = _canopy_operator(3, 5, 2, DISORDERS[0], 3)
        solve, bound = np.linalg.eigvalsh, spectral._solver_bound
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: tamper(solve(M), bound(M)))
        with pytest.raises(CertificateError, match="not enclosed"):
            operator_spectrum(op)
        assert op._eigenvalues is None

    def test_counts_need_a_tiling_or_a_graph(self):
        _, tiled = _cayley_operator(cyclic_group(6), 4, 5)
        op = SiteOperator(tiled.adjacency, tiled.potential, tiled.provenance)
        with pytest.raises(InvalidArgumentError, match="canopy tiling or a Cayley graph"):
            spectral.counts_below(op, [0.0])

    def test_stacked_potentials_are_canopy_only(self):
        _, op = _cayley_operator(cyclic_group(6), 4, 5)
        message = "stacked potentials are canopy-only, not for a Cayley operator"
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            spectral.counts_below(op, [0.0], potentials=op.potential[None])

    @pytest.mark.parametrize("shape", ["narrow", "three_d"])
    def test_potentials_of_the_wrong_shape_rejected(self, shape, monkeypatch):
        # refused with one line before the stacked elimination starts
        _, _, op = _canopy_operator(3, 5, 2, DISORDERS[0], 3)
        stack = np.tile(op.potential, (2, 1))
        potentials = stack[:, 1:] if shape == "narrow" else stack[None]
        monkeypatch.setattr(spectral, "_tree_counts_below", lambda *a: pytest.fail("eliminated"))
        message = f"potentials need shape (R, {op.dimension}), not {potentials.shape}"
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            spectral.counts_below(op, [0.0], potentials=potentials)


class TestCanopyWindowCounts:
    """window_counts on a canopy operator bisects its cached spectrum: the
    eigenvalues with fl(t - tau) < lambda < fl(t + tau). Tree inertia at
    the same shifts counts the same, wherever no eigenvalue lies within the
    solver margin of a shift, and between the two one-sided counts where one
    does."""

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(2, 4),
        l=st.integers(1, 3),
        blocks=st.integers(0, 2),
        disorder=st.sampled_from(DISORDERS),
        seed=st.integers(0, 2**31 - 1),
        tau=st.sampled_from([5e-324, 1e-15, 1e-7, 1e-3, 0.5]),
        data=st.data(),
    )
    def test_counts_equal_brute_and_inertia(self, K, l, blocks, disorder, seed, tau, data):
        L = l + blocks * (l + 1)
        assume(tree_size(K, L) <= 400)
        _, _, op = _canopy_operator(K, L, l, disorder, seed)
        w = operator_spectrum(op)
        # targets on, and one float off, an eigenvalue -+ tau, and random ones
        on = w[data.draw(st.lists(st.integers(0, w.size - 1), min_size=1, max_size=8))]
        edges = np.concatenate([on - tau, on + tau])
        points = data.draw(st.lists(st.floats(-8.0, 8.0), max_size=10))
        targets = np.concatenate([
            points, edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
        ])
        counts = spectral.window_counts(op, targets, tau)
        lo, hi = np.nextafter(targets - tau, np.inf), targets + tau
        assert counts.tolist() == [int(np.sum((a <= w) & (w < b))) for a, b in zip(lo, hi)]

        shifts = np.concatenate([hi, lo])
        below = spectral.counts_below(op, shifts)
        margin = spectral.TOL_SCALE * (1.0 + op.norm_bound * op.dimension)
        one_sided = w.searchsorted(shifts - margin), w.searchsorted(shifts + margin)
        assert np.all((one_sided[0] <= below) & (below <= one_sided[1]))
        clear = (one_sided[0] == one_sided[1]).reshape(2, -1).all(axis=0)
        inertia = np.maximum(below[: targets.size] - below[targets.size :], 0)
        assert np.array_equal(counts[clear], inertia[clear])


def _cayley_instance(group, pieces, seed):
    glued = prime_paths_graph(pieces, 2)
    anchors = {}
    for i in range(1, len(group.generators) + 1):
        anchors[-i] = glued.junctions[0]
        anchors[i] = glued.junctions[1]
    cg = build_cayley_graph(CayleyTemplate(glued.graph, anchors), group)
    r = sample_disorder(DisorderSpec(seed=seed), range(group.size))
    return cg, r, assemble_cayley_operator(cg, r)


def _cayley_operator(group, pieces, seed):
    return _cayley_instance(group, pieces, seed)[1:]


CAYLEY_GROUPS = st.one_of(
    st.integers(1, 45).map(cyclic_group),
    st.tuples(st.integers(1, 7), st.integers(1, 7)).map(product_of_cyclics),
    # truncated groups: boundary fibers, BFS spheres cut by missing edges,
    # and exponentially wide last spheres
    st.tuples(st.integers(1, 2), st.integers(1, 3)).map(lambda a: zd_box(*a)),
    st.tuples(st.integers(1, 2), st.integers(1, 3)).map(lambda a: free_group_ball(*a)),
)


class TestCayleyWindowCounts:
    """window_counts counts a Cayley operator's eigenvalues by Haynsworth
    inertia on the anchor Schur complement. The counts are those
    of the dense eigvalsh spectrum: exactly, wherever no dense eigenvalue
    lies within the solver margin of a shift, and between the two one-sided
    dense counts where one does (an eigenvalue on a shift is a tie either
    solve may break either way)."""

    @staticmethod
    def _dense_bounds(op, shifts):
        w = np.linalg.eigvalsh(dense_operator(op))
        margin = spectral.TOL_SCALE * (1.0 + op.norm_bound)
        return w.searchsorted(shifts - margin), w.searchsorted(shifts + margin)

    @settings(max_examples=30, deadline=None)
    @given(
        group=CAYLEY_GROUPS,
        pieces=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
        tau=st.sampled_from([1e-7, 1e-3, 0.5]),
        data=st.data(),
    )
    def test_counts_equal_dense(self, group, pieces, seed, tau, data):
        assume(group.size * prime_paths_graph(pieces, 2).graph.vertex_count <= 1_500)
        cg, r, op = _cayley_instance(group, pieces, seed)
        _, mu, _ = cg.template.interior_modes
        omega = np.array([r.values[g] for g in range(group.size)])
        targets = omega[list(cg.interior_fibers())]
        # window edges, random points, and shifts on or 1 ulp from a pivot
        # mu_k + omega_h, which stays in the Schur complement as its own row
        k = data.draw(st.lists(st.integers(0, max(mu.size - 1, 0)), min_size=1, max_size=6))
        h = data.draw(st.lists(st.integers(0, group.size - 1), min_size=len(k), max_size=len(k)))
        on = mu[k] + omega[h] if mu.size else np.zeros(0)
        bound = op.norm_bound + 1.0
        points = data.draw(st.lists(st.floats(-bound, bound), min_size=1, max_size=20))
        shifts = np.concatenate([
            targets + tau, targets - tau, on, np.nextafter(on, np.inf),
            np.nextafter(on, -np.inf), points,
        ])
        below = spectral._counts_below(op, shifts)
        lo, hi = self._dense_bounds(op, shifts)
        assert np.all((lo <= below) & (below <= hi))
        isolated = lo == hi
        assert np.array_equal(below[isolated], lo[isolated])

        counts = spectral.window_counts(op, targets, tau)
        w = np.linalg.eigvalsh(dense_operator(op))
        dense = [int(np.sum(np.abs(w - t) < tau)) for t in targets]
        edges_lo, edges_hi = self._dense_bounds(op, np.concatenate([targets - tau, targets + tau]))
        clear = (edges_lo == edges_hi).reshape(2, -1).all(axis=0)
        assert counts[clear].tolist() == np.array(dense)[clear].tolist()

    @settings(max_examples=30, deadline=None)
    @given(
        group=CAYLEY_GROUPS,
        pieces=st.integers(1, 3),
        seed=st.integers(0, 2**31 - 1),
        pivot=st.sampled_from([1e-2, np.inf]),
        tau=st.sampled_from([1e-7, 0.5]),
    )
    def test_pivot_tolerance_keeps_counts(self, group, pieces, seed, pivot, tau):
        # at PIVOT_TOL = inf nothing is divided through: every interior mode
        # is a row of S, every coupled direction is carried to the last
        # level, and that level is all of S but its decoupled directions
        assume(group.size * prime_paths_graph(pieces, 2).graph.vertex_count <= 200)
        cg, r, op = _cayley_instance(group, pieces, seed)
        targets = np.array([r.values[g] for g in cg.interior_fibers()[:3]])
        bound = op.norm_bound + 1.0
        shifts = np.concatenate([targets + tau, targets - tau, np.linspace(-bound, bound, 5)])
        with mock.patch.object(spectral, "PIVOT_TOL", pivot):
            below = spectral._counts_below(op, shifts)
        lo, hi = self._dense_bounds(op, shifts)
        assert np.all((lo <= below) & (below <= hi))
        isolated = lo == hi
        assert np.array_equal(below[isolated], lo[isolated])

    def test_bench_windows_match_dense(self):
        # cyclic:40 at the CLI's 1e-7 window: each fiber's two kernel
        # eigenvalues are inside, and its four zero modes, 1e-7 from both
        # edges, are kept as Schur rows
        cg, r, op = _cayley_instance(cyclic_group(40), 4, 3)
        targets = np.array([r.values[g] for g in cg.interior_fibers()])
        w = np.linalg.eigvalsh(dense_operator(op))
        dense = [int(np.sum(np.abs(w - t) < 1e-7)) for t in targets]
        counts = spectral.window_counts(op, targets, 1e-7)
        assert counts.tolist() == dense and min(dense) >= 2

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_base_of_anchors_only_counts_equal_dense(self, m):
        # one base vertex, both anchors on it: no interior mode, so S is all
        # of H; at m = 1 the adjacency stores nothing, at m = 2 one edge
        cg = build_cayley_graph(CayleyTemplate(path_graph(1), {-1: 0, 1: 0}), cyclic_group(m))
        r = sample_disorder(DisorderSpec(seed=m), range(m))
        op = assemble_cayley_operator(cg, r)
        w = np.linalg.eigvalsh(dense_operator(op))
        bound = op.norm_bound + 1.0
        shifts = np.concatenate([w - 1e-3, w + 1e-3, np.linspace(-bound, bound, 9)])
        lo, hi = self._dense_bounds(op, shifts)
        assert np.array_equal(lo, hi)
        assert np.array_equal(spectral.counts_below(op, shifts), lo)
        assert spectral.window_counts(op, w, 1e-7).tolist() == [1] * m

    @staticmethod
    def _interior_potential(cg, r, op):
        potential = op.potential.copy()
        potential[cg.n_base + 5] += 1e-3  # one non-anchor vertex of fiber 1
        return SiteOperator(op.adjacency, potential, op.provenance, tiling=cg)

    @staticmethod
    def _cross_fiber_edge(cg, r, op):
        a, b = 5, cg.n_base + 6  # non-anchor vertices of fibers 0 and 1
        extra = sp.coo_matrix(([1.0, 1.0], ([a, b], [b, a])), shape=op.adjacency.shape)
        adjacency = from_scipy(scipy_csr(op.adjacency) + extra)
        return SiteOperator(adjacency, op.potential, op.provenance, tiling=cg)

    @pytest.mark.parametrize("tamper", [_interior_potential, _cross_fiber_edge],
                             ids=["interior_potential", "cross_fiber_edge"])
    def test_unfibered_operator_rejected(self, tamper):
        cg, r, op = _cayley_instance(cyclic_group(6), 4, 5)
        targets = [r.values[g] for g in cg.interior_fibers()]
        assert spectral.window_counts(op, targets, 1e-7).min() >= 2
        with pytest.raises(CertificateError, match="not fibered"):
            spectral.window_counts(tamper(cg, r, op), targets, 1e-7)

    def test_cap_before_any_eigensolve(self, monkeypatch):
        cg, r, op = _cayley_instance(cyclic_group(6), 4, 5)
        monkeypatch.setattr(spectral, "eig_sym", lambda *a, **k: pytest.fail("solved"))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: pytest.fail("solved"))
        with pytest.raises(TooLargeError, match="^dimension 192 exceeds eig cap 191$"):
            spectral.window_counts(op, [0.5], 1e-7, cap=191)
        assert "interior_modes" not in vars(cg.template)

    @staticmethod
    def _one_more(below):
        return below + 1

    @staticmethod
    def _decreasing(below):
        # shifts 0.1, 1.1, 0.9+, -0.1+ and the brackets: 0.9+ under 0.1
        below = below.copy()
        below[0], below[3] = below[-1], 0
        return below

    @pytest.mark.parametrize("tamper, message", [
        (_one_more, "not 0 and 192"), (_decreasing, "decrease"),
    ], ids=["bracket", "monotone"])
    def test_count_checks_reject(self, tamper, message, monkeypatch):
        cg, r, op = _cayley_instance(cyclic_group(6), 4, 5)
        count = spectral._counts_below
        monkeypatch.setattr(spectral, "_counts_below", lambda *a: tamper(count(*a)))
        with pytest.raises(CertificateError, match=message):
            spectral.window_counts(op, [0.0, 1.0], 0.1)


class TestCayleyCountPasses:
    """_counts_below eliminates every level once per pass, forms each level's
    pivots and corrections as it reaches the level, and finds the kept
    pivots and the negative ones by bisection."""

    @staticmethod
    def _spied(monkeypatch):
        calls = {"eigh": [], "eigvalsh": []}
        for name in calls:
            solve = getattr(np.linalg, name)

            def spy(D, solve=solve, name=name):
                calls[name].append(D.shape)
                return solve(D)

            monkeypatch.setattr(np.linalg, name, spy)
        return calls

    @staticmethod
    def _window_shifts(group, seed):
        cg, r, op = _cayley_instance(group, 4, seed)
        targets = np.array([r.values[g] for g in cg.interior_fibers()])
        cg.template.interior_modes  # solved once per template, not by the counts
        return op, targets, np.concatenate([targets + 1e-7, np.nextafter(targets - 1e-7, np.inf)])

    def test_one_eigh_per_level(self, monkeypatch):
        # cyclic:150: 76 BFS spheres, so 75 batched eigh calls and one
        # eigvalsh for the CLI's 300 window edges and 2 brackets, in one pass
        op, targets, _ = self._window_shifts(cyclic_group(150), 0)
        calls = self._spied(monkeypatch)
        counts = spectral.window_counts(op, targets, 1e-7)
        assert counts.min() >= 2
        assert len(calls["eigh"]) == 75 and len(calls["eigvalsh"]) == 1
        assert {shape[0] for shape in calls["eigh"] + calls["eigvalsh"]} == {302}

    @pytest.mark.parametrize("group, per_shift", [
        (cyclic_group(40), 8 * 2 * 30),  # widest sphere 2 fibers of 30 modes
        (product_of_cyclics((6, 6)), 8 * 10 * 40),  # 10 fibers, D_j of 20 x 20 anchors
    ], ids=["cyclic:40", "product:6,6"])
    @pytest.mark.parametrize("per_pass", [1, 7])
    def test_passes_split_under_the_byte_budget(self, group, per_shift, per_pass, monkeypatch):
        op, _, shifts = self._window_shifts(group, 3)
        bound = op.norm_bound + 1.0
        shifts = np.concatenate([shifts, np.linspace(-bound, bound, 9)])
        whole = spectral._counts_below(op, shifts)
        monkeypatch.setattr(spectral, "SCHUR_BLOCK_BYTES", per_shift * per_pass)
        calls = self._spied(monkeypatch)
        assert np.array_equal(spectral._counts_below(op, shifts), whole)
        assert len(calls["eigvalsh"]) == -(-shifts.size // per_pass)  # the passes
        lo, hi = TestCayleyWindowCounts._dense_bounds(op, shifts)
        assert np.all((lo <= whole) & (whole <= hi))

    @settings(max_examples=60, deadline=None)
    @given(
        pivots=st.lists(st.floats(-8, 8), min_size=0, max_size=12).map(np.array),
        tol=st.sampled_from([1e-6, 1e-2, 0.5, np.inf]),
        data=st.data(),
    )
    def test_kept_pivots_follow_the_rule(self, pivots, tol, data):
        # shifts on a pivot, an ulp away, at fractions of PIVOT_TOL away
        # and anywhere; d = p - s exactly as a level forms it
        pivots = np.concatenate([pivots, pivots[:3]])  # repeated values
        places = st.integers(0, pivots.size - 1)
        at = data.draw(st.lists(places, max_size=8) if pivots.size else st.just([]))
        step = data.draw(st.lists(st.sampled_from([-2.0, -1.0, -0.75, 0.0, 0.5, 1.0, 1.5]),
                                  min_size=len(at), max_size=len(at)))
        near = pivots[at] + np.array(step) * (tol if np.isfinite(tol) else 1.0)
        free = data.draw(st.lists(st.floats(-10, 10), min_size=1, max_size=6))
        s = np.concatenate([near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf), free])
        with mock.patch.object(spectral, "PIVOT_TOL", tol):
            negative, kept_at, index, kept_d = spectral._kept_pivots(
                pivots, np.argsort(pivots, kind="stable"), s)
        d = pivots - s[:, None]
        kept = np.abs(d) < tol
        assert np.array_equal(negative, np.count_nonzero(d <= -tol, axis=1))
        assert sorted(zip(kept_at.tolist(), index.tolist())) == list(zip(*np.nonzero(kept)))
        assert np.array_equal(kept_d, d[kept_at, index]) and np.all(np.diff(kept_at) >= 0)


class TestResidualTolerance:
    """residual_tolerance(op, E) reads the operator's cached norm bound. For
    canopies with L >= 2 and for Cayley operators it equals the per-family
    formulas it replaced, up to rounding."""

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(2, 5),
        l=st.integers(1, 3),
        blocks=st.integers(0, 3),
        disorder=st.sampled_from(DISORDERS),
        seed=st.integers(0, 2**31 - 1),
        E=st.floats(-10.0, 10.0),
    )
    def test_canopy_formula(self, K, l, blocks, disorder, seed, E):
        L = l + blocks * (l + 1)
        assume(L >= 2 and tree_size(K, L) <= 2_000)
        t = build_truncated_canopy(K, L)
        p = potential_roots(t, l)
        spec = DisorderSpec(disorder.distribution, disorder.params, seed)
        r = sample_disorder(spec, p.roots)
        op = assemble_canopy_operator(t, p, r)
        former = 1e-9 * (1.0 + abs(E) + K + 1 + r.max_abs())
        assert residual_tolerance(op, E) == pytest.approx(former, rel=1e-15, abs=0)

    @settings(max_examples=25, deadline=None)
    @given(
        group=st.sampled_from(
            [cyclic_group(1), cyclic_group(2), cyclic_group(7), product_of_cyclics((2, 3)),
             product_of_cyclics((3, 4))]
        ),
        pieces=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
        E0=st.floats(-5.0, 5.0),
    )
    def test_cayley_formula(self, group, pieces, seed, E0):
        r, op = _cayley_operator(group, pieces, seed)
        max_deg = int(np.diff(op.adjacency.indptr).max(initial=0))
        former = 1e-9 * (1.0 + abs(E0) + max_deg + r.max_abs())
        assert residual_tolerance(op, E0) == pytest.approx(former, rel=1e-15, abs=0)

    def test_norm_bound_cached(self, canopy_instance):
        t, p, r, _, _ = canopy_instance
        op = assemble_canopy_operator(t, p, r)
        assert "norm_bound" not in vars(op)
        residual_tolerance(op, 0.0)
        assert vars(op)["norm_bound"] == 3 + 1 + r.max_abs()

