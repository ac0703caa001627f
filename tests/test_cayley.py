import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multispec.cayley import (
    CayleyTemplate,
    GroupSpec,
    build_cayley_graph,
    build_group,
    cyclic_group,
    free_group_ball,
    from_table,
    group_order,
    product_of_cyclics,
    zd_box,
)
from multispec.errors import InvalidArgumentError, TooLargeError, UnsupportedError
from multispec.graph_core import FiniteGraph, make_graph, path_graph, prime_paths_graph
from oracle import cayley_graph_edges


def _symmetric_group():
    """S3 as the permutations of (0, 1, 2), composed as (a * b)(i) = a(b(i))."""
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(a[i] for i in b)) for b in perms] for a in perms]
    return from_table(perms, table, [perms[1], perms[3]])


class TestGroups:
    def test_trivial_cyclic(self):
        g = cyclic_group(1)
        assert g.size == 1 and g.finite and g.identity == 0

    def test_cyclic_six(self):
        g = cyclic_group(6)
        assert g.size == 6
        assert all(g.mul(h, g.generator_indices[0]) == (h + 1) % 6 for h in range(6))

    def test_z2_box_radius_two(self):
        g = zd_box(2, 2)
        assert g.size == 25
        assert sum(g.interior) == 9  # the 3x3 core
        assert not g.finite

    def test_free_ball_sizes(self):
        # 1 + 4 + 12 reduced words for 2 generators, radius 2
        assert free_group_ball(2, 2).size == 17

    def test_free_ball_partial_product(self):
        g = free_group_ball(1, 1)  # {e, a, a^-1}
        a = g.index[(1,)]
        assert g.mul(a, a) is None
        assert g.mul(a, g.index[(-1,)]) == g.identity

    def test_table_group(self):
        table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        g = from_table([0, 1, 2], table, [1])
        assert g.size == 3 and g.finite
        assert g.identity == 0 and [g.inverse(i) for i in range(3)] == [0, 2, 1]

    @pytest.mark.parametrize(
        "group",
        [cyclic_group(1), cyclic_group(7), product_of_cyclics((1, 4)),
         product_of_cyclics((2, 3, 2)), _symmetric_group()],
        ids=["cyclic1", "cyclic7", "product1x4", "product2x3x2", "s3"],
    )
    def test_multiplication_table_is_mul(self, group):
        n = group.size
        assert group.table.shape == (n, n) and not group.table.flags.writeable
        assert group.table.tolist() == [[group.mul(i, j) for j in range(n)] for i in range(n)]

    @pytest.mark.parametrize("group", [zd_box(1, 2), free_group_ball(2, 1)], ids=["zbox", "free"])
    def test_truncated_group_has_no_table(self, group):
        with pytest.raises(UnsupportedError, match="finite group"):
            group.table

    def test_inconsistent_table_rejected(self):
        with pytest.raises(InvalidArgumentError):
            from_table([0, 1], [[0, 1], [1, 5]], [1])

    @pytest.mark.parametrize(
        "table, message",
        [([[0, 0], [0, 0]], "no identity"), ([[0, 0], [0, 1]], "no inverse")],
    )
    def test_table_without_identity_or_inverse_rejected(self, table, message):
        with pytest.raises(InvalidArgumentError, match=message):
            from_table([0, 1], table, [1])

    def test_descriptor_parsing(self):
        assert build_group("cyclic:6").size == 6
        assert build_group("product:2,2").size == 4
        assert build_group("zbox:2:1").size == 9
        assert build_group("free:2:1").size == 5
        with pytest.raises(InvalidArgumentError):
            build_group("nope:3")

    @pytest.mark.parametrize(
        "descriptor",
        ["cyclic:1", "cyclic:6", "product:2,3,4", "zbox:2:2", "zbox:3:1",
         "free:1:3", "free:2:3", "free:3:2"],
    )
    def test_order_from_descriptor(self, descriptor):
        assert group_order(descriptor) == build_group(descriptor).size

    @pytest.mark.parametrize(
        "descriptor",
        ["nope:3", "cyclic", "cyclic:0", "free:2:-1", "zbox:1:0", "free:2:0",
         "cyclic:6:9", "zbox:2:1:7", "free:2:1:x", "free:2"],
    )
    def test_order_rejects_like_build(self, descriptor):
        with pytest.raises(InvalidArgumentError) as by_order:
            group_order(descriptor)
        with pytest.raises(InvalidArgumentError) as by_build:
            build_group(descriptor)
        assert str(by_order.value) == str(by_build.value)
        if descriptor in ("zbox:1:0", "free:2:0"):
            assert "radius >= 1" in str(by_order.value)
        forms = {"cyclic:6:9": "cyclic:m", "zbox:2:1:7": "zbox:d:radius",
                 "free:2:1:x": "free:n:radius", "free:2": "free:n:radius"}
        if descriptor in forms:  # a wrong field count names the expected form
            assert str(by_order.value).endswith(f": expected {forms[descriptor]}")

    # a kind name or a letter, then zero to three ':'-separated fields of
    # digits, ',', '-' and a letter; three characters a field keep a buildable
    # free group at free:999:1 or below
    @settings(max_examples=300, deadline=None)
    @given(
        st.builds(
            lambda kind, fields: ":".join([kind, *fields]),
            st.sampled_from(["cyclic", "product", "zbox", "free", "", "x", "freex"]),
            st.lists(st.text("0123456789,-x", max_size=3), max_size=3),
        )
    )
    @example("cyclic:6:9")
    @example("free:2")
    @example("product:2,,3")
    def test_descriptor_parsing_raises_only_invalid_argument(self, descriptor):
        try:
            order = group_order(descriptor)
        except InvalidArgumentError as exc:
            with pytest.raises(InvalidArgumentError) as by_build:
                build_group(descriptor)
            assert str(by_build.value) == str(exc)
            return
        if order <= 10**4:
            assert build_group(descriptor).size == order

    def test_product_identity_and_inverses(self):
        g = product_of_cyclics((2, 3))
        for i in range(g.size):
            assert g.inverse(i) is not None


class TestTemplate:
    def test_anchor_index_validation(self):
        with pytest.raises(InvalidArgumentError):
            CayleyTemplate(path_graph(3), {1: 0, 2: 1})  # missing negatives

    def test_anchor_vertex_validation(self):
        with pytest.raises(InvalidArgumentError):
            CayleyTemplate(path_graph(3), {-1: 0, 1: 7})

    def test_all_equal_anchors_allowed(self):
        t = CayleyTemplate(path_graph(3), {-1: 1, 1: 1, -2: 1, 2: 1})
        assert t.n_generators == 2 and t.anchor_vertices() == (1,)


class TestBuild:
    def test_single_vertex_base_gives_cycle(self):
        base = FiniteGraph(1, ())
        cg = build_cayley_graph(CayleyTemplate(base, {-1: 0, 1: 0}), cyclic_group(5))
        assert cg.vertex_count == 5
        assert cg.graph.edge_count == 5
        assert sorted(map(len, cg.graph.neighbors())) == [2] * 5

    def test_trivial_group_copies_base(self):
        base = prime_paths_graph(2, 2).graph
        cg = build_cayley_graph(
            CayleyTemplate(base, {-1: 0, 1: 0}), cyclic_group(1)
        )
        assert cg.vertex_count == base.vertex_count
        assert cg.graph.edges.tolist() == base.edges.tolist()

    def test_trivial_group_distinct_anchors_adds_junction_edge(self):
        base = prime_paths_graph(2, 2).graph
        cg = build_cayley_graph(
            CayleyTemplate(base, {-1: 0, 1: 1}), cyclic_group(1)
        )
        assert cg.graph.edges.tolist() == sorted(base.edges.tolist() + [[0, 1]])

    def test_prime_paths_cyclic_six_counts(self):
        glued = prime_paths_graph(4, 2)
        tmpl = CayleyTemplate(glued.graph, {-1: glued.junctions[0], 1: glued.junctions[1]})
        cg = build_cayley_graph(tmpl, cyclic_group(6))
        assert cg.vertex_count == 192
        assert cg.graph.edge_count == 6 * 34 + 6

    def test_edge_count_formula(self):
        base = make_graph(3, [(0, 1), (1, 2)])
        group = zd_box(1, 2)  # elements -2..2, generator +1
        cg = build_cayley_graph(CayleyTemplate(base, {-1: 0, 1: 2}), group)
        wired = sum(
            1
            for g in range(group.size)
            if group.mul(g, group.generator_indices[0]) is not None
        )
        assert cg.graph.edge_count == group.size * base.edge_count + wired
        assert wired == 4

    def test_fibers_isomorphic_to_base(self):
        glued = prime_paths_graph(2, 2)
        tmpl = CayleyTemplate(glued.graph, {-1: glued.junctions[0], 1: glued.junctions[1]})
        cg = build_cayley_graph(tmpl, cyclic_group(4))
        base_edges = set(map(tuple, glued.graph.edges.tolist()))
        nb = cg.n_base
        all_edges = set(map(tuple, cg.graph.edges.tolist()))
        for g in range(4):
            # explicit index bijection v -> g*nb + v
            fiber_edges = {
                (u - g * nb, v - g * nb)
                for (u, v) in all_edges
                if u // nb == g and v // nb == g
            }
            assert fiber_edges == base_edges

    def test_left_translation_is_automorphism(self):
        from multispec.automorphism import is_automorphism

        glued = prime_paths_graph(1, 2)
        j0, j1 = glued.junctions
        for group in (cyclic_group(12), product_of_cyclics((2, 2, 3))):
            n = len(group.generators)
            anchors = {}
            for i in range(1, n + 1):
                anchors[-i] = j0
                anchors[i] = j1
            tmpl = CayleyTemplate(glued.graph, anchors)
            cg = build_cayley_graph(tmpl, group)
            nb = cg.n_base
            for g in range(group.size):
                perm = [0] * cg.vertex_count
                for h in range(group.size):
                    gh = group.mul(g, h)
                    for v in range(nb):
                        perm[h * nb + v] = gh * nb + v
                assert is_automorphism(cg.graph, tuple(perm))

    def test_boundary_fibers_marked(self):
        base = FiniteGraph(1, ())
        cg = build_cayley_graph(CayleyTemplate(base, {-1: 0, 1: 0}), zd_box(1, 2))
        assert cg.boundary_fibers == {0, 4}  # elements -2 and +2

    def test_size_guard(self):
        base = path_graph(100)
        with pytest.raises(TooLargeError):
            build_cayley_graph(
                CayleyTemplate(base, {-1: 0, 1: 99}),
                cyclic_group(50),
                vertex_cap=1000,
            )

    GROUPS = st.one_of(
        st.integers(1, 9).map(cyclic_group),
        st.tuples(st.integers(1, 4), st.integers(1, 3)).map(product_of_cyclics),
        st.tuples(st.integers(1, 2), st.integers(1, 2)).map(lambda a: zd_box(*a)),
        st.tuples(st.integers(1, 2), st.integers(1, 2)).map(lambda a: free_group_ball(*a)),
        st.just(_symmetric_group()),
    )

    @settings(max_examples=120, deadline=None)
    @given(group=GROUPS, n=st.integers(1, 6), data=st.data())
    @example(group=cyclic_group(2), n=1, data=None)  # a == b at every anchor pair
    def test_matches_set_builder(self, group, n, data):
        # random base and anchors, degenerate pairs a == b included
        pairs = list(itertools.combinations(range(n), 2))
        if data is None:
            edges, anchors = [], {-1: 0, 1: 0}
        else:
            edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
            anchors = {}
            for i in range(1, len(group.generators) + 1):
                anchors[-i], anchors[i] = (data.draw(st.integers(0, n - 1)) for _ in "ab")
        template = CayleyTemplate(make_graph(n, edges), anchors)
        graph = build_cayley_graph(template, group).graph
        assert graph.vertex_count == n * group.size
        assert graph.edges.tolist() == [list(e) for e in cayley_graph_edges(template, group)]
        assert graph.edges.dtype == np.int64

    def test_generator_count_mismatch(self):
        base = path_graph(3)
        with pytest.raises(InvalidArgumentError):
            build_cayley_graph(
                CayleyTemplate(base, {-1: 0, 1: 2, -2: 0, 2: 2}), cyclic_group(6)
            )


# every build_group descriptor of at most 60 elements over a grid of parameters
SMALL_GROUPS = [
    d
    for d in [f"cyclic:{m}" for m in range(1, 61)]
    + [f"product:{a},{b}" for a in range(1, 8) for b in range(1, 8)]
    + [f"product:2,{a},{b}" for a in range(1, 5) for b in range(1, 5)]
    + [f"zbox:{d}:{r}" for d in (1, 2, 3) for r in range(1, 30)]
    + [f"free:{n}:{r}" for n in (1, 2, 3, 4) for r in range(1, 30)]
    if group_order(d) <= 60
]


@pytest.mark.parametrize("descriptor", SMALL_GROUPS)
def test_closed_form_identity_and_inverse_match_search(descriptor):
    # the search every group used to run: the first element that fixes
    # every product it takes part in (truncated products may leave the
    # enumeration), and for each element the first two-sided inverse
    g = build_group(descriptor)
    identity = next(
        e
        for e in range(g.size)
        if all(g.mul(e, i) in (i, None) and g.mul(i, e) in (i, None) for i in range(g.size))
        and g.mul(e, e) == e
    )
    assert g.identity == identity
    for i in range(g.size):
        inverse = next(
            j for j in range(g.size) if g.mul(i, j) == identity == g.mul(j, i)
        )
        assert g.inverse(i) == inverse


@pytest.mark.parametrize("descriptor", ["cyclic:2000", "product:40,50", "zbox:2:22", "free:2:6"])
def test_setup_multiplies_linearly_often(descriptor, monkeypatch):
    # a deterministic guard against quadratic set-up: count the products
    # GroupSpec takes while it is built
    calls = 0
    init = GroupSpec.__init__

    def counting_init(self, kind, elements, generators, mul, *rest):
        def counted(i, j):
            nonlocal calls
            calls += 1
            return mul(i, j)

        init(self, kind, elements, generators, counted, *rest)

    monkeypatch.setattr(GroupSpec, "__init__", counting_init)
    g = build_group(descriptor)
    assert calls <= 10 * g.size + 200
