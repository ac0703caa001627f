from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multispec import dos, spectral
from multispec.anderson import (
    POINT_MASS,
    TWO_POINT,
    DisorderSpec,
    assemble_canopy_operator,
    assemble_cayley_operator,
    sample_disorder,
)
from multispec.canopy import build_truncated_canopy, potential_roots, tree_size
from multispec.cayley import CayleyTemplate, build_cayley_graph, cyclic_group
from multispec.dos import certified_band_count, eigenvalue_histogram
from multispec.errors import CertificateError, InvalidArgumentError
from multispec.graph_core import prime_paths_graph
from multispec.spectral import counts_below, eig_sym, subtree_eigenpairs
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


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(2, 4),
    l=st.integers(1, 3),
    blocks=st.integers(0, 2),
    disorder=st.sampled_from([
        DisorderSpec(), DisorderSpec(TWO_POINT, (-1.0, 2.0)), DisorderSpec(POINT_MASS, (0.5,))
    ]),
    seed=st.integers(0, 2**31 - 1),
    realizations=st.integers(1, 6),
    split=st.integers(1, 10**6),
    extra=st.lists(st.floats(-8.0, 8.0), max_size=5),
)
def test_stacked_histogram_sums_single_counts(
    K, l, blocks, disorder, seed, realizations, split, extra
):
    # the stacked elimination over all realizations gives, bin by bin, the
    # sum of each realization's own counts_below differences, with edges
    # exactly on the claimed eigenvalues E + omega_x of every realization and
    # a byte budget so small that every realization's shifts span passes
    L = l + blocks * (l + 1)  # blocks = 0 is the single patch L = l
    assume(tree_size(K, L) <= 400)
    t = build_truncated_canopy(K, L)
    p = potential_roots(t, l)
    spec = replace(disorder, seed=seed)
    ops = [
        assemble_canopy_operator(t, p, sample_disorder(replace(spec, seed=seed + i), p.roots))
        for i in range(realizations)
    ]
    sub = subtree_eigenpairs(K, l - 1).eigenvalues
    claims = [sub + op.potential[x] for op in ops for x in p.roots]
    edges = np.unique(np.concatenate([*claims, extra, [-K - 3.0, K + 3.0]]))
    shifts = np.append(edges[:-1], np.nextafter(edges[-1], np.inf))
    expect = sum(np.diff(counts_below(op, shifts)) for op in ops)
    pairs = 1 + split % (shifts.size + 1)  # < shifts.size + 2 shifts a realization
    roots = int(np.count_nonzero(t.depth == l))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "SCHUR_BLOCK_BYTES", 8 * (l + 1) * roots * pairs)  # l+1 chain levels
        hist = eigenvalue_histogram(t, p, spec, edges, realizations)
    assert np.array_equal(hist.counts, expect)
    assert hist.counts.sum() == realizations * t.vertex_count


@pytest.mark.parametrize("off, message", [
    (lambda below: below + 1, "not 0 and 364"),
    (lambda below: below + (np.arange(below.size) == 0), "decrease"),
], ids=["every_count", "first_edge"])
def test_every_realization_keeps_its_checks(instance, off, message, monkeypatch):
    # counts off in the last of three stacked realizations alone still
    # fail its bracket or monotonicity check
    t, p = instance
    count = spectral._tree_counts_below

    def last_off(op, shifts, potentials):
        below = count(op, shifts, potentials)
        below[1, -1] = off(below[1, -1])
        return below

    monkeypatch.setattr(spectral, "_tree_counts_below", last_off)
    with pytest.raises(CertificateError, match=message):
        eigenvalue_histogram(t, p, DisorderSpec(seed=0), np.linspace(-5, 5, 41), 3)


ENDPOINT = st.one_of(
    st.sampled_from([-np.inf, np.inf]),
    st.floats(-8.0, 8.0),
    st.tuples(st.sampled_from(["claim", "eigenvalue"]), st.integers(0, 10**6)),
)


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(2, 4),
    l=st.integers(1, 3),
    blocks=st.integers(0, 2),
    disorder=st.sampled_from([
        DisorderSpec(), DisorderSpec(TWO_POINT, (-1.0, 2.0)), DisorderSpec(POINT_MASS, (0.5,))
    ]),
    seed=st.integers(0, 2**31 - 1),
    bands=st.lists(st.tuples(ENDPOINT, ENDPOINT | st.none()), min_size=1, max_size=6),
)
def test_band_counts_equal_the_formula_and_the_dense_count(K, l, blocks, disorder, seed, bands):
    # certified: (K-1) * #{(x, E) : a <= E + omega_x <= b}, compared in
    # floats; observed: the dense spectrum's count. Endpoints fall on
    # claims, on eigenvalues, at +-inf, and a == b (a missing second end)
    L = l + blocks * (l + 1)
    assume(tree_size(K, L) <= 400)
    t = build_truncated_canopy(K, L)
    p = potential_roots(t, l)
    r = sample_disorder(replace(disorder, seed=seed), p.roots)
    op = assemble_canopy_operator(t, p, r)
    sub = subtree_eigenpairs(K, l - 1).eigenvalues
    claims = [E + r.values[x] for x in p.roots for E in sub]
    spectrum = spectral.operator_spectrum(op)
    dense = np.linalg.eigvalsh(dense_operator(op))
    assert np.allclose(spectrum, dense, rtol=0.0, atol=1e-9)

    def endpoint(e):
        if isinstance(e, tuple):
            pool = claims if e[0] == "claim" else spectrum.tolist()
            return float(pool[e[1] % len(pool)])
        return e

    for first, second in bands:
        a = endpoint(first)
        b = a if second is None else endpoint(second)
        a, b = min(a, b), max(a, b)
        bc = certified_band_count(t, p, r, (a, b), operator=op, enforce=False)
        assert bc.certified_count == (K - 1) * sum(a <= c <= b for c in claims)
        assert bc.observed_count == int(np.sum((spectrum >= a) & (spectrum <= b)))
        # a dense eigenvalue within 1e-9 of an end may fall either side
        inner = np.sum((dense >= a + 1e-9) & (dense <= b - 1e-9))
        outer = np.sum((dense >= a - 1e-9) & (dense <= b + 1e-9))
        assert inner <= bc.observed_count <= outer


def test_band_ends_are_inclusive(instance, realization):
    # a one-point band at a claim holds its K-1 certified copies, and one at
    # an eigenvalue holds that eigenvalue
    t, p = instance
    op = assemble_canopy_operator(t, p, realization)
    x = next(x for x in p.roots if t.depth[x] == 2)
    claim = float(subtree_eigenpairs(3, 1).eigenvalues[3]) + realization.values[x]
    bc = certified_band_count(t, p, realization, (claim, claim), operator=op, enforce=False)
    assert bc.certified_count >= 2
    eig = float(spectral.operator_spectrum(op)[100])
    bc = certified_band_count(t, p, realization, (eig, eig), operator=op, enforce=False)
    assert bc.observed_count >= 1


class TestMismatchedOperator:
    def test_other_seed_refused(self, instance, realization):
        # a seed-1 operator counted against a seed-2 realization's claims
        t, p = instance
        op = assemble_canopy_operator(t, p, sample_disorder(DisorderSpec(seed=1), p.roots))
        other = sample_disorder(DisorderSpec(seed=2), p.roots)
        with pytest.raises(InvalidArgumentError, match="not assembled from"):
            certified_band_count(t, p, other, (0.0, 0.5), operator=op, enforce=False)

    def test_other_patch_depth_refused(self, instance, realization):
        t, p = instance
        p1 = potential_roots(t, 1)
        op = assemble_canopy_operator(t, p1, sample_disorder(DisorderSpec(seed=7), p1.roots))
        with pytest.raises(InvalidArgumentError, match="not assembled from"):
            certified_band_count(t, p, realization, (0.0, 0.5), operator=op, enforce=False)

    def test_cayley_operator_refused(self, instance, realization):
        t, p = instance
        glued = prime_paths_graph(2, 2)
        tmpl = CayleyTemplate(glued.graph, {-1: glued.junctions[0], 1: glued.junctions[1]})
        cg = build_cayley_graph(tmpl, cyclic_group(6))
        op = assemble_cayley_operator(cg, sample_disorder(DisorderSpec(seed=0), range(6)))
        with pytest.raises(InvalidArgumentError, match="not assembled from"):
            certified_band_count(t, p, realization, (0.0, 0.5), operator=op)

    def test_equal_rebuild_accepted(self, instance, realization):
        # the same (K, L, l) and couplings, built as new objects, match by value
        t, p = instance
        t2 = build_truncated_canopy(3, 5)
        p2 = potential_roots(t2, 2)
        op = assemble_canopy_operator(t2, p2, sample_disorder(DisorderSpec(seed=7), p2.roots))
        bc = certified_band_count(t, p, realization, (-1.0, 1.0), operator=op, enforce=False)
        assert bc == certified_band_count(t, p, realization, (-1.0, 1.0), enforce=False)

    def test_own_operator_matched_by_identity(self, instance, realization, monkeypatch):
        # an operator assembled from (t, p, r) needs no array comparison
        t, p = instance
        op = assemble_canopy_operator(t, p, realization)
        monkeypatch.setattr(dos, "_require_assembled_from", lambda *a: pytest.fail("compared"))
        bc = certified_band_count(t, p, realization, (-np.inf, np.inf), operator=op, enforce=False)
        assert (bc.certified_count, bc.observed_count) == (224, 364)
