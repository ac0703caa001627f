import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multispec import anderson, automorphism
from multispec.anderson import (
    POINT_MASS,
    TWO_POINT,
    UNIFORM,
    DisorderSpec,
    assemble_canopy_operator,
    assemble_cayley_operator,
    sample_disorder,
)
from multispec.automorphism import (
    anderson_automorphisms,
    automorphisms,
    brute_anderson_automorphisms,
    conjugation_deviation,
    is_automorphism,
)
from multispec.canopy import build_truncated_canopy, potential_roots
from multispec.cayley import (
    CayleyTemplate,
    build_cayley_graph,
    build_group,
    cyclic_group,
    zd_box,
)
from multispec.errors import (
    CertificateError,
    DegenerateDisorderError,
    InvalidArgumentError,
    TooLargeError,
    UnsupportedError,
)
from multispec.graph_core import (
    FiniteGraph,
    adjacency_sparse,
    make_graph,
    path_graph,
    prime_paths_graph,
)
from oracle import dense_operator, refine, unseeded_anderson_automorphisms


def pendant_base():
    """Five vertices: anchors 0, 1 hang off a hub 2 that carries two
    interchangeable pendants 3 and 4; the anchor stabilizer has order 2."""
    return make_graph(5, [(0, 2), (1, 2), (2, 3), (2, 4)])


class TestSearch:
    def test_path_three(self):
        g = automorphisms(path_graph(3))
        assert g.order == 2
        assert tuple(range(3)) in g.elements
        assert (2, 1, 0) in g.elements

    def test_triangle(self):
        assert automorphisms(make_graph(3, [(0, 1), (1, 2), (0, 2)])).order == 6

    def test_fixing_breaks_symmetry(self):
        assert automorphisms(path_graph(3), fixed=(0,)).order == 1

    def test_star_orders(self):
        star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert automorphisms(star).order == 6  # S_3 on the leaves
        assert automorphisms(star, fixed=(1,)).order == 2

    def test_classes_restrict_the_search(self):
        # each vertex maps into its own class; fixed vertices stay singletons
        star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert automorphisms(star, classes=[7.0] * 4).order == 6
        assert automorphisms(star, classes=[0.5, 2.0, 2.0, -1.0]).order == 2
        assert automorphisms(star, fixed=(1,), classes=[0.5, 2.0, 2.0, -1.0]).order == 1
        assert automorphisms(star, classes=range(4)).order == 1
        with pytest.raises(InvalidArgumentError, match="classes need shape"):
            automorphisms(star, classes=[0, 1])

    def test_prime_paths_junction_stabilizer_trivial(self):
        glued = prime_paths_graph(4, 2)
        g = automorphisms(glued.graph, fixed=glued.junctions)
        assert g.order == 1

    def test_pendant_stabilizer(self):
        g = automorphisms(pendant_base(), fixed=(0, 1))
        assert g.order == 2

    def test_edgeless_graph_full_symmetric(self):
        import math

        g = automorphisms(FiniteGraph(4, ()))
        assert g.order == math.factorial(4)

    def test_cap(self):
        with pytest.raises(TooLargeError):
            automorphisms(path_graph(10), cap=5)

    def test_all_elements_are_automorphisms(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = 8
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            g = make_graph(n, edges)
            grp = automorphisms(g)
            assert all(is_automorphism(g, p) for p in grp.elements)
            assert tuple(range(n)) in grp.elements

    def test_exhaustive_oracle(self):
        # every permutation of up to 6 vertices that is an automorphism and
        # fixes the chosen vertices, against the search's elements
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            pairs = list(itertools.combinations(range(n), 2))
            take = rng.random(len(pairs)) < rng.random()
            g = make_graph(n, [p for p, t in zip(pairs, take) if t])
            fixed = tuple(int(v) for v in rng.permutation(n)[: rng.integers(0, 3)])
            expected = {
                p
                for p in itertools.permutations(range(n))
                if is_automorphism(g, p) and all(p[v] == v for v in fixed)
            }
            grp = automorphisms(g, fixed=fixed)
            assert set(grp.elements) == expected
            assert grp.order == len(expected)

    def test_relabelled_graph_conjugates_the_group(self):
        # random connected graphs of 8-40 vertices, some with twin leaves for
        # a nontrivial group: relabelling by sigma maps the group, with or
        # without a fixed vertex, to {sigma p sigma^-1}
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(8, 33))
            edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
            pairs = list(itertools.combinations(range(n), 2))
            edges += [p for p, t in zip(pairs, rng.random(len(pairs)) < rng.random() / 4) if t]
            for hub in rng.permutation(n)[: rng.integers(0, 4)].tolist():
                edges += [(int(hub), n), (int(hub), n + 1)]
                n += 2
            g = make_graph(n, edges)
            sigma = rng.permutation(n)
            relabelled = make_graph(n, [(sigma[u], sigma[v]) for u, v in g.edges])
            f = int(rng.integers(0, n))
            for fixed in ((), (f,)):
                grp = automorphisms(g, fixed=fixed)
                image = automorphisms(relabelled, fixed=tuple(sigma[list(fixed)].tolist()))
                assert image.order == grp.order
                conjugated = set()
                for p in grp.elements:
                    q = np.empty(n, dtype=int)
                    q[sigma] = sigma[list(p)]
                    conjugated.add(tuple(q.tolist()))
                assert set(image.elements) == conjugated

    def test_cyclic_cayley_graph_group(self):
        # the 192-vertex Cayley graph of cyclic:6 over four prime paths: the
        # full automorphism group has order 12 and holds every left fiber
        # translation (h, v) -> (g h, v)
        glued = prime_paths_graph(4, 2)
        tmpl = CayleyTemplate(glued.graph, dict(zip((-1, 1), glued.junctions)))
        group = cyclic_group(6)
        cg = build_cayley_graph(tmpl, group)
        assert cg.vertex_count == 192
        grp = automorphisms(cg.graph, cap=automorphism.BRUTE_VERTEX_CAP)
        assert grp.order == 12
        nb = cg.n_base
        for g in range(group.size):
            translation = tuple(
                group.mul(g, h) * nb + v for h in range(group.size) for v in range(nb)
            )
            assert translation in grp.elements

    def test_closure_check_rejects_a_missing_element(self):
        # the rotations of a 5-cycle with one non-identity rotation removed:
        # its inverse is still there, so the inverse check fails
        grp = automorphisms(make_graph(5, [(i, (i + 1) % 5) for i in range(5)]))
        rotations = [tuple((v + k) % 5 for v in range(5)) for k in range(5)]
        assert set(rotations) <= set(grp.elements)
        automorphism._check_closure(automorphism.AutGroup(5, (), tuple(rotations)))
        kept = tuple(rotations[:1] + rotations[2:])
        with pytest.raises(CertificateError, match="not closed"):
            automorphism._check_closure(automorphism.AutGroup(4, (), kept))


def edge_oracle(g, perm):
    """A permutation of range(n) mapping every edge onto an edge, by sets."""
    if sorted(perm) != list(range(g.vertex_count)):
        return False
    edges = set(map(tuple, g.edges.tolist()))
    return all((min(perm[u], perm[v]), max(perm[u], perm[v])) in edges for u, v in edges)


class TestStackedAutomorphismCheck:
    @pytest.mark.parametrize(
        "g",
        [
            pendant_base(),
            prime_paths_graph(3, 2).graph,
            make_graph(6, [(i, (i + 1) % 6) for i in range(6)]),
            FiniteGraph(4, ()),
            FiniteGraph(0, ()),
        ],
    )
    def test_stack_matches_rows(self, g):
        # the group, random permutations and rows with a repeat, an entry
        # out of range or a negative entry, in one stack
        n, rng = g.vertex_count, np.random.default_rng(4)
        rows = [list(p) for p in automorphisms(g).elements]
        rows += [rng.permutation(n).tolist() for _ in range(10)]
        if n:
            for v, value in ((0, min(1, n - 1)), (n - 1, n), (0, -1)):
                bad = list(range(n))
                bad[v] = value
                rows.append(bad)
        stacked = is_automorphism(g, np.array(rows, dtype=int).reshape(len(rows), n))
        assert stacked.shape == (len(rows),)
        assert stacked.tolist() == [is_automorphism(g, tuple(r)) for r in rows]
        assert stacked.tolist() == [edge_oracle(g, r) for r in rows]
        assert stacked[: automorphisms(g).order].all()

    def test_wrong_length_is_false(self):
        g = path_graph(3)
        assert is_automorphism(g, (2, 1, 0)) is True
        assert is_automorphism(g, (1, 0)) is False
        assert is_automorphism(g, (0, 1, 2, 3)) is False
        assert is_automorphism(g, np.array([[0, 1], [1, 0]])).tolist() == [False, False]


@pytest.fixture(scope="module")
def pendant_cayley():
    base = pendant_base()
    cg = build_cayley_graph(CayleyTemplate(base, {-1: 0, 1: 1}), cyclic_group(3))
    r = sample_disorder(DisorderSpec(seed=23), range(3))
    return cg, r


class TestAndersonGroup:
    def test_pendant_structural_order(self, pendant_cayley):
        cg, r = pendant_cayley
        g = anderson_automorphisms(cg, r)
        assert g.order == 2**3
        assert tuple(range(cg.vertex_count)) in g.elements

    def test_pendant_brute_agrees(self, pendant_cayley):
        cg, r = pendant_cayley
        structural = anderson_automorphisms(cg, r)
        brute = brute_anderson_automorphisms(cg, r)
        assert brute.order == structural.order
        assert set(brute.elements) == set(structural.elements)

    def test_elements_preserve_fibers(self, pendant_cayley):
        cg, r = pendant_cayley
        g = anderson_automorphisms(cg, r)
        for p in g.elements:
            nb = cg.n_base
            assert all(p[v] // nb == v // nb for v in range(cg.vertex_count))

    def test_fiber_zero_runs_through_the_anchor_stabilizer(self, pendant_cayley):
        # the CLI reads the anchor stabilizer's order from this restriction
        cg, r = pendant_cayley
        g = anderson_automorphisms(cg, r)
        stabilizer = automorphisms(cg.template.base, fixed=cg.template.anchor_vertices())
        assert stabilizer.order == 2
        assert {p[: cg.n_base] for p in g.elements} == set(stabilizer.elements)

    def test_anchor_moving_base_map_rejected(self, pendant_cayley, monkeypatch):
        # a base group that also swaps the anchors (a base automorphism, and
        # closed under products, so only the conjugation check can object)
        cg, r = pendant_cayley
        real = automorphism.automorphisms

        def with_anchor_swap(g, fixed=(), cap=automorphism.DEFAULT_SEARCH_CAP):
            group = real(g, fixed, cap)
            extra = {(1, 0, 2, 3, 4), (1, 0, 2, 4, 3)}
            assert all(is_automorphism(g, p) for p in extra)
            elements = tuple(sorted(set(group.elements) | extra))
            return automorphism.AutGroup(len(elements), group.fixed_set, elements)

        monkeypatch.setattr(automorphism, "automorphisms", with_anchor_swap)
        with pytest.raises(CertificateError, match="conjugation check"):
            anderson_automorphisms(cg, r)

    def test_rigid_base_gives_trivial_group(self):
        glued = prime_paths_graph(2, 2)
        tmpl = CayleyTemplate(glued.graph, {-1: glued.junctions[0], 1: glued.junctions[1]})
        cg = build_cayley_graph(tmpl, cyclic_group(3))
        r = sample_disorder(DisorderSpec(seed=5), range(3))
        g = anderson_automorphisms(cg, r)
        assert g.order == 1
        assert brute_anderson_automorphisms(cg, r).order == 1

    def test_degenerate_disorder_rejected(self, pendant_cayley):
        cg, _ = pendant_cayley
        flat = sample_disorder(DisorderSpec(POINT_MASS, (1.0,), seed=0), range(3))
        with pytest.raises(DegenerateDisorderError):
            anderson_automorphisms(cg, flat)

    def test_order_above_explicit_cap(self):
        # |Aut(base|anchors)|^|G| = 2^14 = 16,384 elements to list
        base = pendant_base()
        cg = build_cayley_graph(CayleyTemplate(base, {-1: 0, 1: 1}), cyclic_group(14))
        r = sample_disorder(DisorderSpec(seed=2), range(14))
        with pytest.raises(TooLargeError, match="16384 exceeds explicit cap 10000"):
            anderson_automorphisms(cg, r)

    def test_truncated_group_unsupported(self):
        base = pendant_base()
        cg = build_cayley_graph(CayleyTemplate(base, {-1: 0, 1: 1}), zd_box(1, 1))
        r = sample_disorder(DisorderSpec(seed=2), range(3))
        with pytest.raises(UnsupportedError):
            anderson_automorphisms(cg, r)

    # (base, descriptor) pairs; S = S^-1 exactly when every generator is an
    # involution, as for cyclic:1, cyclic:2 and the products of 1s and 2s
    SWEEP = [
        (pieces, d)
        for pieces in (1, 2)
        for d in ("cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "product:1,2",
                  "product:2,2", "product:2,2,2", "product:2,3", "product:2,5",
                  "product:3,3", "product:2,2,3", "product:2,3,3")
    ] + [("pendant", d) for d in ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6",
                                  "product:2,3")]

    @pytest.mark.parametrize("base, descriptor", SWEEP)
    def test_structural_raises_or_equals_brute(self, base, descriptor):
        group = build_group(descriptor)
        if base == "pendant":
            base_graph, junctions = pendant_base(), (0, 1)
        else:
            glued = prime_paths_graph(base, 2)
            base_graph, junctions = glued.graph, glued.junctions
        anchors = {}
        for i in range(1, len(group.generators) + 1):
            anchors[-i], anchors[i] = junctions
        tmpl = CayleyTemplate(base_graph, anchors)
        cg = build_cayley_graph(tmpl, group)
        r = sample_disorder(DisorderSpec(seed=1), range(group.size))
        brute = brute_anderson_automorphisms(cg, r)
        gens = set(group.generator_indices)
        if {group.inverse(g) for g in gens} == gens:
            # the structural formula would be wrong here
            stab = automorphisms(tmpl.base, fixed=tmpl.anchor_vertices())
            assert brute.order != stab.order**group.size
            with pytest.raises(CertificateError, match="S = S\\^-1"):
                anderson_automorphisms(cg, r)
        else:
            structural = anderson_automorphisms(cg, r)
            assert set(structural.elements) == set(brute.elements)

    def test_brute_cap(self):
        glued = prime_paths_graph(4, 2)
        tmpl = CayleyTemplate(glued.graph, {-1: 0, 1: 1})
        cg = build_cayley_graph(tmpl, cyclic_group(7))  # 224 vertices
        r = sample_disorder(DisorderSpec(seed=2), range(7))
        with pytest.raises(TooLargeError):
            brute_anderson_automorphisms(cg, r)


def _aut_instance(descriptor, spec):
    """The aut CLI's instance: four prime paths over the group, both
    junctions the anchors of every generator."""
    glued, group = prime_paths_graph(4, 2), build_group(descriptor)
    anchors = {}
    for i in range(1, len(group.generators) + 1):
        anchors[-i], anchors[i] = glued.junctions
    cg = build_cayley_graph(CayleyTemplate(glued.graph, anchors), group)
    return cg, sample_disorder(spec, range(group.size))


class TestSeededBrute:
    """brute_anderson_automorphisms seeds its search with the exact value
    classes of the potential. The unseeded enumeration, every automorphism
    of the Cayley graph and then the conjugation filter, is the reference;
    S = S^-1 on cyclic:2 and product:2,2 gives fixing elements beyond the
    identity, which a seed finer than the potential's classes would drop."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("descriptor", ["cyclic:6", "product:3,2", "cyclic:2", "product:2,2"])
    def test_equals_the_unseeded_enumeration(self, descriptor, seed):
        cg, r = _aut_instance(descriptor, DisorderSpec(seed=seed))
        brute = brute_anderson_automorphisms(cg, r)
        assert brute.elements == unseeded_anderson_automorphisms(cg, r)
        assert brute.order == (2 if descriptor in ("cyclic:2", "product:2,2") else 1)

    @pytest.mark.parametrize("descriptor", ["cyclic:6", "product:3,2", "cyclic:2", "product:2,2"])
    def test_point_mass_keeps_every_graph_automorphism(self, descriptor):
        # a constant potential is one class: every automorphism fixes H
        cg, r = _aut_instance(descriptor, DisorderSpec(POINT_MASS, (1.0,), seed=0))
        cap = automorphism.BRUTE_VERTEX_CAP
        every = automorphisms(cg.graph, cap=cap).elements
        op = assemble_cayley_operator(cg, r)
        assert automorphisms(cg.graph, cap=cap, classes=op.potential).elements == every
        assert brute_anderson_automorphisms(cg, r).elements == every
        assert unseeded_anderson_automorphisms(cg, r) == every


def dense_conjugation_deviation(op, perm):
    """max |U H U^T - H| with (U u)(v) = u(perm(v)) materialized densely."""
    U = np.eye(len(perm))[list(perm)]
    H = dense_operator(op)
    return float(np.max(np.abs(U @ H @ U.T - H)))


class TestConjugation:
    def test_matrix_oracle(self, pendant_cayley):
        # materialize U and check dev == max |U H U^T - H| entrywise
        cg, r = pendant_cayley
        op = assemble_cayley_operator(cg, r)
        for p in anderson_automorphisms(cg, r).elements:
            assert conjugation_deviation(op, p) == 0.0
            assert dense_conjugation_deviation(op, p) == 0.0

    def test_matrix_oracle_non_fixing(self, pendant_cayley):
        # permutations that do not fix H: random ones and fiber swaps, which
        # break the adjacency, and fiber translations, which keep it and
        # move only the potential
        cg, r = pendant_cayley
        op = assemble_cayley_operator(cg, r)
        rng = np.random.default_rng(7)
        nb = cg.n_base
        perms = [tuple(rng.permutation(cg.vertex_count).tolist()) for _ in range(20)]
        for a, b in ((0, 1), (0, 2), (1, 2)):
            perm = list(range(cg.vertex_count))
            perm[a * nb:(a + 1) * nb], perm[b * nb:(b + 1) * nb] = (
                perm[b * nb:(b + 1) * nb], perm[a * nb:(a + 1) * nb])
            perms.append(tuple(perm))
        for g in (1, 2):
            perms.append(tuple((h + g) % 3 * nb + v for h in range(3) for v in range(nb)))
        for p in perms:
            dev = conjugation_deviation(op, p)
            assert dev > 0.0
            assert dev == dense_conjugation_deviation(op, p)

    @pytest.mark.parametrize("block", [anderson.PERMUTATION_BLOCK, 1])
    def test_stack_matches_single_calls(self, pendant_cayley, monkeypatch, block):
        # fixing elements, fiber translations and random permutations in one
        # stack, checked in one pass or one permutation per pass
        monkeypatch.setattr(anderson, "PERMUTATION_BLOCK", block)
        cg, r = pendant_cayley
        op = assemble_cayley_operator(cg, r)
        nb, rng = cg.n_base, np.random.default_rng(3)
        perms = list(anderson_automorphisms(cg, r).elements)
        perms += [tuple((h + 1) % 3 * nb + v for h in range(3) for v in range(nb))]
        perms += [tuple(rng.permutation(cg.vertex_count).tolist()) for _ in range(10)]
        stacked = conjugation_deviation(op, np.array(perms))
        assert stacked.shape == (len(perms),)
        assert stacked.tolist() == [conjugation_deviation(op, p) for p in perms]

    def test_stack_rejects_one_non_permutation(self, pendant_cayley):
        cg, r = pendant_cayley
        op = assemble_cayley_operator(cg, r)
        perms = np.tile(np.arange(cg.vertex_count), (5, 1))
        for row in range(5):
            bad = perms.copy()
            bad[row, 0] = bad[row, 1]
            with pytest.raises(InvalidArgumentError):
                conjugation_deviation(op, bad)
        with pytest.raises(InvalidArgumentError):
            conjugation_deviation(op, perms[:, :-1])

    def test_block_of_one_agrees_with_brute(self, pendant_cayley, monkeypatch):
        monkeypatch.setattr(anderson, "PERMUTATION_BLOCK", 1)
        cg, r = pendant_cayley
        structural = anderson_automorphisms(cg, r)
        assert structural.order == 8
        brute = brute_anderson_automorphisms(cg, r)
        assert set(structural.elements) == set(brute.elements)

    def test_nonfixing_permutation_detected(self, pendant_cayley):
        cg, r = pendant_cayley
        op = assemble_cayley_operator(cg, r)
        nb = cg.n_base
        # swap fibers 0 and 1: a graph automorphism candidate that changes
        # the potential because the couplings differ
        perm = list(range(cg.vertex_count))
        for v in range(nb):
            perm[v], perm[nb + v] = perm[nb + v], perm[v]
        dev = conjugation_deviation(op, tuple(perm))
        assert dev >= abs(r.values[0] - r.values[1]) - 1e-15
        assert dev > 0.0

    def test_rejects_non_permutation(self, pendant_cayley):
        cg, r = pendant_cayley
        op = assemble_cayley_operator(cg, r)
        with pytest.raises(InvalidArgumentError):
            conjugation_deviation(op, tuple([0] * cg.vertex_count))


def _cells(colors) -> set:
    """A colouring as a set partition: the frozen set of each colour's vertices."""
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, set()).add(v)
    return {frozenset(cell) for cell in cells.values()}


class TestRefinement:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 14), density=st.floats(0.0, 1.0), data=st.data())
    def test_kernel_partition_equals_tuple_refinement(self, n, density, data):
        # random graphs with a random fixed set seeded as automorphisms() does
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        pairs = list(itertools.combinations(range(n), 2))
        g = make_graph(n, [p for p, t in zip(pairs, rng.random(len(pairs)) < density) if t])
        fixed = data.draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)) if n else []
        colors = np.full(n, len(fixed))
        colors[fixed] = range(len(fixed))
        kernel = automorphism._refine(adjacency_sparse(g), colors)
        expect = refine(g.neighbors(), [fixed.index(v) if v in fixed else -1 for v in range(n)])
        assert _cells(kernel.tolist()) == _cells(expect)
        assert sorted(set(kernel.tolist())) == list(range(len(set(expect))))  # ids a range

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("K, L, l", [(3, 5, 2), (4, 5, 2), (3, 7, 3), (2, 9, 4)])
    def test_potential_classes_refine_to_the_level_cells_only_when_generic(self, K, L, l, seed):
        # the canopy core is the quotient by the level cells: each vertex
        # above depth l, and each depth below each depth-l root. Refinement
        # from the potential's classes ends there under uniform disorder,
        # but merges cells where patches share a coupling, so the core's
        # cells cannot come from it
        t = build_truncated_canopy(K, L)
        p = potential_roots(t, l)
        depth, patch_of = t.depth.tolist(), p.patch_of.tolist()
        levels = _cells([v if depth[v] > l else (patch_of[v], depth[v]) for v in range(len(depth))])
        for spec in (
            DisorderSpec(seed=seed),
            DisorderSpec(POINT_MASS, (0.7,), seed=seed),
            DisorderSpec(TWO_POINT, (-1.0, 2.0), seed=seed),
        ):
            op = assemble_canopy_operator(t, p, sample_disorder(spec, p.roots))
            seeded = np.unique(op.potential, return_inverse=True)[1]
            cells = _cells(automorphism._refine(op.adjacency, seeded).tolist())
            if spec.distribution == UNIFORM:
                assert cells == levels
            else:
                assert len(cells) < len(levels)

    @pytest.mark.parametrize(
        "descriptor, pinned",
        [("cyclic:6", True), ("cyclic:40", True), ("product:3,2", True),
         ("cyclic:2", False), ("product:2,2", False)],
    )
    def test_fiber_refinement_pins_the_anchors_of_the_aut_instances(self, descriptor, pinned):
        # the aut CLI's prime-paths instances: S = S^-1 exactly on cyclic:2
        # and product:2,2, where the junction swap leaves anchors unpinned
        glued, group = prime_paths_graph(4, 2), build_group(descriptor)
        anchors = {}
        for i in range(1, len(group.generators) + 1):
            anchors[-i], anchors[i] = glued.junctions
        cg = build_cayley_graph(CayleyTemplate(glued.graph, anchors), group)
        unpinned = automorphism._unpinned_anchors(cg)
        assert (unpinned.size == 0) == pinned
        if not pinned:  # every anchor of every fiber
            nb = cg.n_base
            assert unpinned.tolist() == [h * nb + j for h in range(group.size) for j in (0, 1)]
