import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multispec import anderson
from multispec.anderson import (
    POINT_MASS,
    TWO_POINT,
    UNIFORM,
    DisorderRealization,
    DisorderSpec,
    SiteOperator,
    assemble_canopy_operator,
    assemble_cayley_operator,
    adjacency_deviation,
    covariance_check,
    require_generic,
    sample_disorder,
)
from multispec.automorphism import conjugation_deviation, is_automorphism
from multispec.canopy import build_truncated_canopy, potential_roots
from multispec.cayley import (
    CayleyTemplate,
    build_cayley_graph,
    cyclic_group,
    from_table,
    product_of_cyclics,
    zd_box,
)
from multispec.errors import DegenerateDisorderError, InvalidArgumentError, UnsupportedError
from multispec.graph_core import CSRMatrix, adjacency_matrix, prime_paths_graph
from oracle import covariance_oracle, dense_operator, from_scipy, shift_disorder


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

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidArgumentError, match="non-negative integer"):
            DisorderSpec(seed=seed)

    def test_numpy_integer_seed(self):
        assert sample_disorder(DisorderSpec(seed=np.int64(5)), range(3)) == (
            sample_disorder(DisorderSpec(seed=5), range(3))
        )

    def test_require_generic(self):
        r = sample_disorder(DisorderSpec(POINT_MASS, (2.0,), seed=1), range(3))
        with pytest.raises(DegenerateDisorderError):
            require_generic(r)

    @pytest.mark.parametrize("distribution, params", [
        (POINT_MASS, (np.nan,)),
        (TWO_POINT, (0.0, np.inf)),
        (UNIFORM, (0.0, np.inf)),
        (UNIFORM, (-1e308, 1e308)),  # b - a overflows
    ])
    def test_parameters_must_be_finite(self, distribution, params):
        with pytest.raises(InvalidArgumentError, match="finite"):
            DisorderSpec(distribution, params)

    def test_repeated_sites_refused(self):
        # one coupling per site: a repeat would silently drop a draw
        with pytest.raises(InvalidArgumentError, match="distinct"):
            sample_disorder(DisorderSpec(seed=0), [5, 5, 7])

    def test_arrays_in_unsorted_site_order(self):
        sites = [7, 2, 9, 0, 4]
        r = sample_disorder(DisorderSpec(seed=6, params=(-3.0, 1.0)), sites)
        assert r.sites.tolist() == sites and r.couplings.shape == (5,)
        assert not r.sites.flags.writeable and not r.couplings.flags.writeable
        assert list(r.values) == sites
        assert [r.values[x] for x in sites] == r.couplings.tolist()
        assert r.max_abs() == max(abs(v) for v in r.values.values())
        assert r.is_generic()
        assert r.couplings_at([9, 7]).tolist() == [r.values[9], r.values[7]]
        with pytest.raises(InvalidArgumentError, match=r"misses sites \[3, 10\]"):
            r.couplings_at([9, 3, 10])
        with pytest.raises(TypeError):
            r.values[2] = 0.0
        flat = sample_disorder(DisorderSpec(TWO_POINT, (-2.0, 1.0), seed=1), sites)
        assert not flat.is_generic() and len(set(flat.values.values())) < 5
        assert flat.max_abs() == max(abs(v) for v in flat.values.values())

    @pytest.mark.parametrize("sites, couplings, message", [
        ([0, 1], [0.5], "one coupling per site"),
        ([0.0, 1.0], [0.5, 0.25], "integers"),
        ([0, 1], [0.5, np.inf], "finite"),
    ])
    def test_realization_arrays_checked(self, sites, couplings, message):
        with pytest.raises(InvalidArgumentError, match=message):
            DisorderRealization(sites, couplings, DisorderSpec())


class TestCanopyAssembly:
    def test_zero_disorder_is_pure_adjacency(self, canopy_setup):
        t, p = canopy_setup
        r = sample_disorder(DisorderSpec(POINT_MASS, (0.0,), seed=0), p.roots)
        op = assemble_canopy_operator(t, p, r)
        assert np.array_equal(dense_operator(op), adjacency_matrix(t.graph))

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
        m = dense_operator(assemble_canopy_operator(t, p, r))
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
        assert np.array_equal(dense_operator(a), dense_operator(b))


class TestCayleyAssembly:
    def test_diagonal_constant_on_fibers(self, cayley_setup):
        cg = cayley_setup
        r = sample_disorder(DisorderSpec(seed=2), range(6))
        op = assemble_cayley_operator(cg, r)
        for v in range(cg.vertex_count):
            assert op.potential[v] == r.values[v // cg.n_base]

    def test_operator_carries_its_graph(self, cayley_setup):
        cg = cayley_setup
        r = sample_disorder(DisorderSpec(seed=2), range(6))
        assert assemble_cayley_operator(cg, r).tiling is cg

    def test_gershgorin_norm_bound(self, cayley_setup):
        cg = cayley_setup
        r = sample_disorder(DisorderSpec(seed=2), range(6))
        op = assemble_cayley_operator(cg, r)
        m = dense_operator(op)
        inf_norm = np.max(np.abs(m).sum(axis=1))
        assert inf_norm <= max(map(len, cg.graph.neighbors())) + r.max_abs()

    def test_trivial_group_constant_shift(self):
        glued = prime_paths_graph(2, 2)
        tmpl = CayleyTemplate(glued.graph, {-1: 0, 1: 0})
        cg = build_cayley_graph(tmpl, cyclic_group(1))
        r = sample_disorder(DisorderSpec(POINT_MASS, (0.5,), seed=0), range(1))
        op = assemble_cayley_operator(cg, r)
        expect = adjacency_matrix(glued.graph) + 0.5 * np.eye(glued.graph.vertex_count)
        assert np.array_equal(dense_operator(op), expect)


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
        U = np.eye(len(perm))[list(perm)]  # (U u)(v) = u(perm(v))
        shifted = assemble_cayley_operator(cg, shift_disorder(r, g, cg.group))
        assert np.array_equal(U @ dense_operator(op) @ U.T, dense_operator(shifted))
        assert covariance_check(cg, r, g) == (True, 0.0)


def _dense_covariance_oracle(cg, op, shifted, g):
    """max |U_g H U_g* - H(shifted)| for the operator op, with U_g
    materialized as a dense matrix."""
    n, nb = cg.vertex_count, cg.n_base
    U = np.zeros((n, n))
    for h in range(cg.group.size):
        gh = cg.group.mul(g, h)
        for v in range(nb):
            U[h * nb + v, gh * nb + v] = 1.0
    H_shifted = dense_operator(assemble_cayley_operator(cg, shifted))
    return float(np.max(np.abs(U @ dense_operator(op) @ U.T - H_shifted)))


class TestCovarianceOracle:
    GROUPS = (cyclic_group(3), cyclic_group(6), cyclic_group(7), product_of_cyclics((2, 3)))

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
            op = assemble_cayley_operator(cg, r)
            for g in range(group.size):
                dev = _dense_covariance_oracle(cg, op, shift_disorder(r, g, group), g)
                assert dev == 0.0
                assert covariance_check(cg, r, g) == (True, dev)
                assert covariance_check(cg, r, g, operator=op) == (True, dev)

    def test_negative_control_other_couplings(self):
        # an operator assembled from another realization fails at every
        # element, by exactly the deviation the dense comparison reports
        for group in self.GROUPS:
            cg = self._graph(group)
            r = sample_disorder(DisorderSpec(seed=6), range(group.size))
            other = assemble_cayley_operator(
                cg, sample_disorder(DisorderSpec(seed=7), range(group.size))
            )
            for g in range(group.size):
                dev = _dense_covariance_oracle(cg, other, shift_disorder(r, g, group), g)
                assert dev > 0.0
                assert covariance_check(cg, r, g, operator=other) == (False, dev)


class TestCovarianceBatch:
    """covariance_check over a sequence of group elements returns each
    element's (holds, deviation) as the single-element call does, in stacked
    passes of at most PERMUTATION_BLOCK permuted entries."""

    @pytest.mark.parametrize("block", [1, 700, 1 << 17])
    def test_batch_equals_single_calls(self, block, monkeypatch):
        monkeypatch.setattr(anderson, "PERMUTATION_BLOCK", block)
        for group in TestCovarianceOracle.GROUPS:
            cg = TestCovarianceOracle()._graph(group)
            r = sample_disorder(DisorderSpec(seed=8), range(group.size))
            op = assemble_cayley_operator(cg, r)
            singles = [covariance_check(cg, r, g, operator=op) for g in range(group.size)]
            assert covariance_check(cg, r, range(group.size), operator=op) == singles
            assert singles == [(True, 0.0)] * group.size
            assert covariance_check(cg, r, [], operator=op) == []

    @staticmethod
    def _random_operator(n, density, weighted, rng):
        """A random symmetric adjacency (weighted or 0/1) without self-loops,
        dense and as a SiteOperator with a random 0/1 potential."""
        upper = np.triu(rng.random((n, n)) < density, k=1)
        weights = rng.choice([0.5, 1.0, 2.0], size=(n, n)) if weighted else np.ones((n, n))
        dense = np.where(upper, weights, 0.0)
        dense = dense + dense.T
        return dense, SiteOperator(from_scipy(dense), rng.choice([0.0, 1.0], size=n), {})

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 12),
        density=st.floats(0.0, 1.0),
        stack=st.integers(0, 9),
        weighted=st.booleans(),
        block=st.sampled_from([1, 7, 40, anderson.PERMUTATION_BLOCK]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_matches_dense(self, n, density, stack, weighted, block, seed):
        # a stack of permutations, the first the identity, in passes of any
        # size; rows is asked for each permutation once, in order
        rng = np.random.default_rng(seed)
        dense, op = self._random_operator(n, density, weighted, rng)
        phi = np.array([rng.permutation(n) for _ in range(stack)], dtype=int).reshape(stack, n)
        phi[:1] = np.arange(n)
        oracle = [np.max(np.abs(dense[p][:, p] - dense), initial=0.0) for p in phi]
        asked = []

        def rows(lo, hi):
            asked.extend(range(lo, hi))
            return phi[lo:hi]

        with mock.patch.object(anderson, "PERMUTATION_BLOCK", block):
            assert adjacency_deviation(op.adjacency, stack, rows).tolist() == oracle
        assert asked == list(range(stack))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        density=st.floats(0.0, 1.0),
        stack=st.integers(1, 4),
        weighted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conjugation_matches_dense(self, n, density, stack, weighted, seed):
        # the kernel's adjacency part and the permuted potential together,
        # for a stack and for a single permutation
        rng = np.random.default_rng(seed)
        dense, op = self._random_operator(n, density, weighted, rng)
        phi = np.array([rng.permutation(n) for _ in range(stack)])
        phi[0] = np.arange(n)
        h = dense + np.diag(op.potential)
        oracle = [float(np.max(np.abs(h[p][:, p] - h))) for p in phi]
        assert conjugation_deviation(op, phi).tolist() == oracle
        assert conjugation_deviation(op, phi[1 % stack]) == oracle[1 % stack]

    def test_entry_no_image_lands_on(self):
        # edges (0,1) and (2,3) of weight 2 and (4,5) of weight 0.5; phi
        # sends (0,1) onto (2,3), (2,3) onto (4,5) and (4,5) off the graph,
        # so (U H U*) misses the weight-2 edge (0,1): deviation 2, though
        # every lookup from a stored entry is off by at most 1.5
        dense = np.zeros((7, 7))
        for (a, b), w in {(0, 1): 2.0, (2, 3): 2.0, (4, 5): 0.5}.items():
            dense[a, b] = dense[b, a] = w
        op = SiteOperator(from_scipy(dense), np.zeros(7), {})
        phi = np.array([2, 3, 4, 5, 0, 6, 1])
        assert np.max(np.abs(dense[phi][:, phi] - dense)) == 2.0
        assert adjacency_deviation(op.adjacency, 1, lambda lo, hi: phi[None]).tolist() == [2.0]
        assert conjugation_deviation(op, phi) == 2.0

    def test_lookups_per_find_call_are_bounded(self, monkeypatch):
        # no CSRMatrix.find call of the kernel holds more than
        # max(PERMUTATION_BLOCK, one permutation's nnz) lookups, whichever
        # caller builds the permutations
        group = cyclic_group(6)
        cg = TestCovarianceOracle()._graph(group)
        r = sample_disorder(DisorderSpec(seed=8), range(group.size))
        op = assemble_cayley_operator(cg, r)
        changed = _changed_entries(op, cg, [0], 2.0)  # so every element is compared
        g = prime_paths_graph(2, 2).graph
        rng = np.random.default_rng(1)
        perms = np.array([rng.permutation(g.vertex_count) for _ in range(9)])
        monkeypatch.setattr(anderson, "PERMUTATION_BLOCK", 7)
        sizes, find = [], CSRMatrix.find
        monkeypatch.setattr(
            CSRMatrix, "find", lambda a, r, c: sizes.append((np.size(r), a.nnz)) or find(a, r, c)
        )
        checks = covariance_check(cg, r, range(group.size), operator=changed)
        assert [holds for holds, _ in checks] == [h == group.identity for h in range(6)]
        calls = [len(sizes)]
        assert conjugation_deviation(op, np.tile(np.arange(cg.vertex_count), (5, 1))).max() == 0.0
        calls.append(len(sizes) - sum(calls))
        assert not is_automorphism(g, perms).any()
        calls.append(len(sizes) - sum(calls))
        # one permutation per pass: the generator and the 6 elements, 5 rows, 9 rows
        assert calls == [7, 5, 9]
        assert all(size <= max(7, nnz) for size, nnz in sizes)


def _s3(generators):
    """S3 from its table: the permutations of (0, 1, 2) in lexicographic
    order, (a * b)(i) = a(b(i)), generated by the elements at the given
    positions. (1,) and (3,) generate proper subgroups of orders 2 and 3,
    (0,) only the identity."""
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(a[i] for i in b)) for b in perms] for a in perms]
    return from_table(perms, table, [perms[k] for k in generators])


def _changed_entries(op, cg, entries, value):
    """op with the given stored adjacency entries and their transposes set to
    value, tiled by cg."""
    a, data = op.adjacency, op.adjacency.data.copy()
    data[entries] = value
    data[a.find(a.indices[entries], a.rows[entries])] = value
    return SiteOperator(CSRMatrix(data, a.indices, a.indptr, a.shape), op.potential, {}, cg)


class TestCovarianceByGenerators:
    """covariance_check checks the adjacency on the left translations of a
    generating set and compares the potential with the fiber couplings once;
    each element's (holds, deviation) equals the per-element check it
    replaced (oracle.covariance_oracle), on valid operators, on operators
    assembled from other couplings, and on operators whose adjacency a
    translation moves."""

    GROUPS = st.one_of(
        st.integers(1, 12).map(cyclic_group),
        st.tuples(st.integers(1, 4), st.integers(1, 4)).map(product_of_cyclics),
        st.sampled_from([(1, 3), (3, 5), (1,), (3,), (0,), (4, 4)]).map(_s3),
    )

    @settings(max_examples=80, deadline=None)
    @given(
        group=GROUPS,
        pieces=st.integers(1, 2),
        case=st.sampled_from(["valid", "other_couplings", "changed_anchor_entry"]),
        block=st.sampled_from([1, 7, anderson.PERMUTATION_BLOCK]),
        two_point=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_equals_per_element_oracle(self, group, pieces, case, block, two_point, seed, data):
        base = prime_paths_graph(pieces, 2).graph
        vertex = st.integers(0, base.vertex_count - 1)
        anchors = {}
        for i in range(1, len(group.generators) + 1):
            anchors[-i], anchors[i] = data.draw(vertex), data.draw(vertex)
        cg = build_cayley_graph(CayleyTemplate(base, anchors), group)
        spec = DisorderSpec(TWO_POINT, (0.0, 1.0), seed) if two_point else DisorderSpec(seed=seed)
        r = sample_disorder(spec, range(group.size))
        op = assemble_cayley_operator(cg, r)
        if case == "other_couplings":
            other = DisorderSpec(spec.distribution, spec.params, seed + 1)
            op = assemble_cayley_operator(cg, sample_disorder(other, range(group.size)))
        if case == "changed_anchor_entry":
            a = op.adjacency
            cross = np.nonzero(a.rows // cg.n_base != a.indices // cg.n_base)[0]
            if cross.size:
                op = _changed_entries(op, cg, [data.draw(st.sampled_from(cross.tolist()))], 2.0)
        elements = data.draw(st.lists(st.integers(0, group.size - 1), max_size=8))
        with mock.patch.object(anderson, "PERMUTATION_BLOCK", block):
            expect = covariance_oracle(cg, r, range(group.size), op)
            assert covariance_check(cg, r, range(group.size), operator=op) == expect
            assert covariance_check(cg, r, elements, operator=op) == [expect[g] for g in elements]
            assert covariance_check(cg, r, group.identity, operator=op) == expect[group.identity]
            if case == "valid":
                assert covariance_check(cg, r, range(group.size)) == expect
        if case == "valid":
            assert expect == [(True, 0.0)] * group.size

    def test_generators_of_a_proper_subgroup_are_extended(self):
        # S3 generated as a Cayley graph by one transposition t only: the
        # edited operator doubles one base edge in fibers e and t, so U_t
        # fixes its adjacency but no translation outside {e, t} does, and
        # only a generating set extended to all of S3 finds the difference
        group = _s3((1,))
        glued = prime_paths_graph(2, 2)
        cg = build_cayley_graph(CayleyTemplate(glued.graph, {-1: 0, 1: 1}), group)
        r = sample_disorder(DisorderSpec(seed=3), range(group.size))
        op = assemble_cayley_operator(cg, r)
        t, nb, a = group.generator_indices[0], cg.n_base, op.adjacency
        u, v = glued.graph.edges[0]
        entries = [a.find(f * nb + u, f * nb + v) for f in (group.identity, t)]
        changed = _changed_entries(op, cg, entries, 2.0)
        checks = covariance_check(cg, r, range(group.size), operator=changed)
        assert checks == covariance_oracle(cg, r, range(group.size), changed)
        assert [holds for holds, _ in checks] == [g in (group.identity, t) for g in range(6)]
        assert max(dev for _, dev in checks) == 1.0
