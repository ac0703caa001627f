import numpy as np
import pytest

from multispec.anderson import (
    POINT_MASS,
    DisorderSpec,
    assemble_canopy_operator,
    sample_disorder,
)
from multispec.canopy import build_truncated_canopy, potential_roots
from multispec.dos import certified_band_count, eigenvalue_histogram
from multispec.errors import CertificateError, InvalidArgumentError
from multispec.spectral import eig_sym, subtree_eigenpairs
from oracle import dense_operator


@pytest.fixture(scope="module")
def instance():
    t = build_truncated_canopy(3, 5)
    p = potential_roots(t, 2)
    return t, p


@pytest.fixture(scope="module")
def realization(instance):
    t, p = instance
    return sample_disorder(DisorderSpec(seed=7), p.roots)


class TestHistogram:
    def test_point_mass_matches_shifted_adjacency(self, instance):
        # with a constant potential c the spectrum is sigma(A) + c exactly
        t, p = instance
        c = 0.375
        spec = DisorderSpec(POINT_MASS, (c,), seed=0)
        edges = np.linspace(-5, 5, 101)
        hist = eigenvalue_histogram(t, p, spec, edges, 1)
        from multispec.graph_core import adjacency_matrix

        eigs = np.linalg.eigvalsh(adjacency_matrix(t.graph)) + c
        expect = np.histogram(eigs, bins=edges)[0]
        assert np.array_equal(hist.counts, expect)

    def test_tie_goes_to_the_upper_bin(self, instance):
        # omega = 0: the 182 eigenvalues exactly 0, and the exact +-3, sit on
        # edges, and each goes to the bin above it, [0, 0.25) for the zeros;
        # the last bin is closed, so [-1, 0] holds the zeros too
        t, p = instance
        spec = DisorderSpec(POINT_MASS, (0.0,))
        op = assemble_canopy_operator(t, p, sample_disorder(spec, p.roots))
        eigs = np.linalg.eigvalsh(dense_operator(op))
        grid = np.round(eigs * 4) / 4
        eigs = np.where(np.abs(eigs - grid) < 1e-9, grid, eigs)  # ties exact
        assert np.count_nonzero(eigs == 0.0) == 182
        edges = np.linspace(-5, 5, 41)
        hist = eigenvalue_histogram(t, p, spec, edges, 2)
        assert np.array_equal(hist.counts, 2 * np.histogram(eigs, bins=edges)[0])
        assert hist.counts[19] == 2 * np.count_nonzero((eigs >= -0.25) & (eigs < 0))
        closed = eigenvalue_histogram(t, p, spec, [-1.0, 0.0], 1).counts[0]
        assert closed == np.count_nonzero((eigs >= -1.0) & (eigs <= 0.0))

    def test_deterministic(self, instance):
        t, p = instance
        spec = DisorderSpec(seed=3)
        edges = np.linspace(-5, 5, 41)
        a = eigenvalue_histogram(t, p, spec, edges, 3)
        b = eigenvalue_histogram(t, p, spec, edges, 3)
        assert np.array_equal(a.counts, b.counts)
        assert a.to_csv() == b.to_csv()

    def test_total_mass_one(self, instance):
        # uniform [0,1) couplings: every eigenvalue lies in [-(K+2), K+2]
        t, p = instance
        edges = np.linspace(-5.0, 5.0, 50)
        hist = eigenvalue_histogram(t, p, DisorderSpec(seed=1), edges, 2)
        assert hist.counts.sum() == 2 * t.vertex_count
        assert abs(hist.normalized.sum() - 1.0) < 1e-12

    def test_seed_staggering(self, instance):
        # 2 realizations from seed s = sum of single runs at s and s+1
        t, p = instance
        edges = np.linspace(-5, 5, 21)
        both = eigenvalue_histogram(t, p, DisorderSpec(seed=10), edges, 2)
        one = eigenvalue_histogram(t, p, DisorderSpec(seed=10), edges, 1)
        two = eigenvalue_histogram(t, p, DisorderSpec(seed=11), edges, 1)
        assert np.array_equal(both.counts, one.counts + two.counts)

    def test_bad_inputs(self, instance):
        t, p = instance
        with pytest.raises(InvalidArgumentError):
            eigenvalue_histogram(t, p, DisorderSpec(seed=0), [0.0, 1.0], 0)
        with pytest.raises(InvalidArgumentError):
            eigenvalue_histogram(t, p, DisorderSpec(seed=0), [1.0, 0.0], 1)

    def test_certified_bands_carry_mass(self, instance):
        # each subtree eigenvalue E contributes certified spectrum in
        # [E, E+1] for uniform [0,1) couplings on patch roots at depth l
        t, p = instance
        sub = subtree_eigenpairs(3, 1).eigenvalues
        edges = np.linspace(-5.0, 5.0, 50)
        hist = eigenvalue_histogram(t, p, DisorderSpec(seed=4), edges, 5)
        centers = (hist.bin_edges[:-1] + hist.bin_edges[1:]) / 2
        for E in (float(sub[0]), 0.0, float(sub[3])):
            mask = (centers >= E) & (centers <= E + 1)
            assert hist.counts[mask].sum() > 0


class TestBandCount:
    def test_whole_line(self, instance, realization):
        t, p = instance
        bc = certified_band_count(
            t, p, realization, (-10.0, 10.0), enforce=False
        )
        assert bc.certified_count == 2 * 28 * 4 == 224
        assert bc.observed_count == 364

    def test_empty_band(self, instance, realization):
        t, p = instance
        bc = certified_band_count(t, p, realization, (50.0, 60.0))
        assert bc.certified_count == 0 and bc.observed_count == 0

    def test_direct_count_formula(self, instance, realization):
        t, p = instance
        a, b = 0.2, 0.9
        sub = subtree_eigenpairs(3, 1).eigenvalues
        expect = 2 * sum(
            1
            for x in p.roots
            for E in sub
            if a <= E + realization.values[x] <= b
        )
        bc = certified_band_count(t, p, realization, (a, b), enforce=False)
        assert bc.certified_count == expect

    def test_shallow_band_is_enforceable(self, instance, realization):
        # a tight band around E + omega_x for a depth-l root: the certified
        # pair of eigenvalues really is in the spectrum
        t, p = instance
        x = next(x for x in p.roots if t.depth[x] == 2)
        sub = subtree_eigenpairs(3, 1).eigenvalues
        target = float(sub[3]) + realization.values[x]
        bc = certified_band_count(
            t, p, realization, (target - 1e-7, target + 1e-7)
        )
        assert bc.observed_count >= bc.certified_count >= 2

    def test_deep_root_band_fails_enforcement(self, instance, realization):
        # the construction does not produce eigenvectors for the deep patch
        # root, so its phantom certified count exceeds the observed count
        t, p = instance
        deep = next(x for x in p.roots if t.depth[x] == 5)
        sub = subtree_eigenpairs(3, 1).eigenvalues
        target = float(sub[3]) + realization.values[deep]
        with pytest.raises(CertificateError):
            certified_band_count(
                t, p, realization, (target - 1e-9, target + 1e-9)
            )

    def test_reversed_band_rejected(self, instance, realization):
        t, p = instance
        with pytest.raises(InvalidArgumentError):
            certified_band_count(t, p, realization, (1.0, 0.0))

    def test_operator_reuse(self, instance, realization):
        t, p = instance
        op = assemble_canopy_operator(t, p, realization)
        a = certified_band_count(t, p, realization, (-1.0, 1.0), enforce=False)
        b = certified_band_count(
            t, p, realization, (-1.0, 1.0), operator=op, enforce=False
        )
        assert (a.certified_count, a.observed_count) == (
            b.certified_count,
            b.observed_count,
        )


def test_histogram_csv_shape(instance):
    t, p = instance
    hist = eigenvalue_histogram(t, p, DisorderSpec(seed=0), [-5.0, 0.0, 5.0], 1)
    lines = hist.to_csv().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count,normalized"
    assert len(lines) == 3


def test_band_queries_solve_the_operator_once(instance, realization, monkeypatch):
    t, p = instance
    op = assemble_canopy_operator(t, p, realization)
    solved = []
    eigh = np.linalg.eigh

    def counting_eigh(M, *args, **kwargs):
        solved.append(M.shape[0])
        return eigh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    whole_line = (-np.inf, np.inf)
    counts = [
        certified_band_count(t, p, realization, whole_line, operator=op, enforce=False)
    ]
    first_query = list(solved)
    counts += [
        certified_band_count(t, p, realization, band, operator=op, enforce=False)
        for band in ((-1.0, 1.0), (0.2, 0.9), (50.0, 60.0))
    ]
    # the canopy spectrum is solved on its reduced core, never densely,
    # and only by the first query
    assert op.dimension not in solved
    assert solved == first_query
    assert [c.observed_count for c in counts][0] == op.dimension
    # the cached spectrum gives the dense solve's counts
    eigs = eig_sym(dense_operator(op)).eigenvalues
    for c, (a, b) in zip(counts[1:], ((-1.0, 1.0), (0.2, 0.9), (50.0, 60.0))):
        assert c.observed_count == int(np.sum((eigs >= a) & (eigs <= b)))


def test_cap_checked_before_densifying(instance, realization, monkeypatch):
    import multispec.spectral as spectral
    from multispec.errors import TooLargeError

    t, p = instance
    monkeypatch.setattr(spectral, "_canopy_blocks", lambda *a: pytest.fail("solved"))
    with pytest.raises(TooLargeError):
        eigenvalue_histogram(t, p, DisorderSpec(seed=0), [-5.0, 5.0], 2, cap=5)
    with pytest.raises(TooLargeError):
        certified_band_count(t, p, realization, (0.0, 1.0), cap=5)
