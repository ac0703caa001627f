import numpy as np
import pytest

from multispec.anderson import (
    POINT_MASS,
    TWO_POINT,
    DisorderSpec,
    assemble_canopy_operator,
    assemble_cayley_operator,
    covariance_check,
    require_generic,
    sample_disorder,
    shift_disorder,
)
from multispec.canopy import build_truncated_canopy, potential_roots
from multispec.cayley import CayleyTemplate, build_cayley_graph, cyclic_group, product_of_cyclics, zd_box
from multispec.errors import DegenerateDisorderError, InvalidArgumentError, UnsupportedError
from multispec.graph_core import adjacency_matrix, prime_paths_graph


@pytest.fixture(scope="module")
def canopy_setup():
    t = build_truncated_canopy(3, 5)
    p = potential_roots(t, 2)
    return t, p


@pytest.fixture(scope="module")
def cayley_setup():
    glued = prime_paths_graph(2, 2)
    tmpl = CayleyTemplate(glued.graph, {-1: glued.junctions[0], 1: glued.junctions[1]})
    cg = build_cayley_graph(tmpl, cyclic_group(6))
    return cg


class TestSampling:
    def test_point_mass(self):
        r = sample_disorder(DisorderSpec(POINT_MASS, (0.0,), seed=1), range(10))
        assert all(v == 0.0 for v in r.values.values())

    def test_same_seed_identical(self):
        spec = DisorderSpec(seed=42)
        a = sample_disorder(spec, range(50))
        b = sample_disorder(spec, range(50))
        assert a.values == b.values

    def test_uniform_thousand_sites_distinct(self):
        r = sample_disorder(DisorderSpec(seed=0), range(1000))
        assert r.is_generic()

    def test_two_point_values(self):
        r = sample_disorder(DisorderSpec(TWO_POINT, (-1.0, 1.0), seed=3), range(100))
        assert set(r.values.values()) <= {-1.0, 1.0}

    def test_uniform_needs_ordered_params(self):
        with pytest.raises(InvalidArgumentError):
            DisorderSpec("uniform", (1.0, 0.0))

    def test_require_generic(self):
        r = sample_disorder(DisorderSpec(POINT_MASS, (2.0,), seed=1), range(3))
        with pytest.raises(DegenerateDisorderError):
            require_generic(r)


class TestCanopyAssembly:
    def test_zero_disorder_is_pure_adjacency(self, canopy_setup):
        t, p = canopy_setup
        r = sample_disorder(DisorderSpec(POINT_MASS, (0.0,), seed=0), p.roots)
        op = assemble_canopy_operator(t, p, r)
        assert np.array_equal(op.to_dense(), adjacency_matrix(t.graph))

    def test_diagonal_constant_on_patches(self, canopy_setup):
        t, p = canopy_setup
        r = sample_disorder(DisorderSpec(seed=7), p.roots)
        op = assemble_canopy_operator(t, p, r)
        for v in range(t.vertex_count):
            assert op.potential[v] == r.values[p.patch_of[v]]
        assert len(set(op.potential.tolist())) == 28

    def test_exactly_symmetric(self, canopy_setup):
        t, p = canopy_setup
        r = sample_disorder(DisorderSpec(seed=1), p.roots)
        m = assemble_canopy_operator(t, p, r).to_dense()
        assert np.array_equal(m, m.T)

    def test_missing_site_rejected(self, canopy_setup):
        t, p = canopy_setup
        r = sample_disorder(DisorderSpec(seed=1), p.roots[:-1])
        with pytest.raises(InvalidArgumentError):
            assemble_canopy_operator(t, p, r)

    def test_deterministic_assembly(self, canopy_setup):
        t, p = canopy_setup
        spec = DisorderSpec(seed=5)
        a = assemble_canopy_operator(t, p, sample_disorder(spec, p.roots))
        b = assemble_canopy_operator(t, p, sample_disorder(spec, p.roots))
        assert a.structure_hash() == b.structure_hash()
        assert np.array_equal(a.to_dense(), b.to_dense())


class TestCayleyAssembly:
    def test_diagonal_constant_on_fibers(self, cayley_setup):
        cg = cayley_setup
        r = sample_disorder(DisorderSpec(seed=2), range(6))
        op = assemble_cayley_operator(cg, r)
        for v in range(cg.vertex_count):
            assert op.potential[v] == r.values[cg.fiber[v]]

    def test_gershgorin_norm_bound(self, cayley_setup):
        cg = cayley_setup
        r = sample_disorder(DisorderSpec(seed=2), range(6))
        op = assemble_cayley_operator(cg, r)
        m = op.to_dense()
        inf_norm = np.max(np.abs(m).sum(axis=1))
        assert inf_norm <= max(cg.graph.degrees()) + r.max_abs()

    def test_trivial_group_constant_shift(self):
        glued = prime_paths_graph(2, 2)
        tmpl = CayleyTemplate(glued.graph, {-1: 0, 1: 0})
        cg = build_cayley_graph(tmpl, cyclic_group(1))
        r = sample_disorder(DisorderSpec(POINT_MASS, (0.5,), seed=0), range(1))
        op = assemble_cayley_operator(cg, r)
        expect = adjacency_matrix(glued.graph) + 0.5 * np.eye(glued.graph.vertex_count)
        assert np.array_equal(op.to_dense(), expect)


class TestShift:
    def test_identity_shift(self):
        g = cyclic_group(6)
        r = sample_disorder(DisorderSpec(seed=4), range(6))
        assert shift_disorder(r, g.identity, g).values == r.values

    def test_shift_then_inverse(self):
        g = cyclic_group(6)
        r = sample_disorder(DisorderSpec(seed=4), range(6))
        back = shift_disorder(shift_disorder(r, 2, g), g.inverse(2), g)
        assert back.values == r.values

    def test_cyclic_rotation(self):
        g = cyclic_group(6)
        r = sample_disorder(DisorderSpec(seed=4), range(6))
        shifted = shift_disorder(r, 2, g)
        for h in range(6):
            assert shifted.values[h] == r.values[(2 + h) % 6]

    def test_truncated_group_unsupported(self):
        g = zd_box(1, 2)
        r = sample_disorder(DisorderSpec(seed=4), range(g.size))
        with pytest.raises(UnsupportedError):
            shift_disorder(r, 1, g)


class TestCovariance:
    def test_identity_element(self, cayley_setup):
        cg = cayley_setup
        r = sample_disorder(DisorderSpec(seed=9), range(6))
        holds, dev = covariance_check(cg, r, cg.group.identity)
        assert holds and dev == 0.0

    def test_cyclic_three_all_elements(self):
        glued = prime_paths_graph(2, 2)
        tmpl = CayleyTemplate(glued.graph, {-1: 0, 1: 1})
        cg = build_cayley_graph(tmpl, cyclic_group(3))
        r = sample_disorder(DisorderSpec(seed=11), range(3))
        for g in range(3):
            holds, dev = covariance_check(cg, r, g)
            assert holds and dev == 0.0

    def test_klein_four_generators(self):
        glued = prime_paths_graph(2, 2)
        group = product_of_cyclics((2, 2))
        tmpl = CayleyTemplate(
            glued.graph,
            {-1: 0, 1: 1, -2: 0, 2: 1},
        )
        cg = build_cayley_graph(tmpl, group)
        r = sample_disorder(DisorderSpec(seed=13), range(group.size))
        for gi in group.generator_indices:
            holds, dev = covariance_check(cg, r, gi)
            assert holds and dev == 0.0

    def test_permutation_matrix_oracle(self):
        # independent check: materialize U_g and compare matrices directly
        from multispec.automorphism import permutation_matrix

        glued = prime_paths_graph(1, 2)
        tmpl = CayleyTemplate(glued.graph, {-1: 0, 1: 1})
        cg = build_cayley_graph(tmpl, cyclic_group(4))
        r = sample_disorder(DisorderSpec(seed=17), range(4))
        op = assemble_cayley_operator(cg, r)
        g = 3
        nb = cg.n_base
        perm = tuple(
            cg.group.mul(g, h) * nb + v
            for h in range(4)
            for v in range(nb)
        )
        U = permutation_matrix(perm)
        shifted = assemble_cayley_operator(cg, shift_disorder(r, g, cg.group))
        assert np.array_equal(U @ op.to_dense() @ U.T, shifted.to_dense())
        assert covariance_check(cg, r, g) == (True, 0.0)


def test_coordinate_export_roundtrip(canopy_setup):
    t, p = canopy_setup
    r = sample_disorder(DisorderSpec(seed=1), p.roots)
    op = assemble_canopy_operator(t, p, r)
    text = op.export_coordinate_text()
    entries = [line.split() for line in text.strip().splitlines()]
    dense = np.zeros((op.dimension, op.dimension))
    for i, j, v in entries:
        i, j, v = int(i), int(j), float(v)
        dense[i, j] = v
        dense[j, i] = v
    assert np.array_equal(dense, op.to_dense())


def _dense_covariance_oracle(cg, r, shifted, g):
    """max |U_g H U_g* - H(shifted)| with U_g materialized as a dense matrix."""
    n, nb = cg.vertex_count, cg.n_base
    U = np.zeros((n, n))
    for h in range(cg.group.size):
        gh = cg.group.mul(g, h)
        for v in range(nb):
            U[h * nb + v, gh * nb + v] = 1.0
    H = assemble_cayley_operator(cg, r).to_dense()
    H_shifted = assemble_cayley_operator(cg, shifted).to_dense()
    return float(np.max(np.abs(U @ H @ U.T - H_shifted)))


class TestCovarianceOracle:
    GROUPS = (cyclic_group(3), cyclic_group(7), product_of_cyclics((2, 3)))

    def _graph(self, group):
        glued = prime_paths_graph(2, 2)
        anchors = {}
        for i in range(1, len(group.generators) + 1):
            anchors[-i] = glued.junctions[0]
            anchors[i] = glued.junctions[1]
        return build_cayley_graph(CayleyTemplate(glued.graph, anchors), group)

    def test_matches_dense_oracle(self):
        for group in self.GROUPS:
            cg = self._graph(group)
            r = sample_disorder(DisorderSpec(seed=5), range(group.size))
            for g in range(group.size):
                dev = _dense_covariance_oracle(cg, r, shift_disorder(r, g, group), g)
                assert dev == 0.0
                assert covariance_check(cg, r, g) == (True, dev)

    def test_negative_control_unshifted_couplings(self, monkeypatch):
        # with the shift removed, the identity fails at every non-identity
        # element, by exactly the deviation the dense comparison reports
        import multispec.anderson as anderson

        monkeypatch.setattr(anderson, "shift_disorder", lambda r, g, group: r)
        for group in self.GROUPS:
            cg = self._graph(group)
            r = sample_disorder(DisorderSpec(seed=6), range(group.size))
            for g in range(group.size):
                dev = _dense_covariance_oracle(cg, r, r, g)
                assert covariance_check(cg, r, g) == (dev == 0.0, dev)
                assert (dev == 0.0) == (g == group.identity)
