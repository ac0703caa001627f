"""Cayley-type graphs: fibers of a base graph indexed by group elements,
wired through anchor vertices along the generators.

Finite groups give exact realizations. Truncated infinite groups (Z^d box,
free-group ball) have an open boundary: inter-fiber edges whose product
leaves the enumeration are simply absent, and downstream constructions only
use interior fibers.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, TooLargeError, UnsupportedError
from .graph_core import DEFAULT_VERTEX_CAP, FiniteGraph, adjacency_sparse


class GroupSpec:
    """An enumerated finitely generated group (or a truncation of one).

    ``mul`` is total for finite kinds and returns None when the product
    falls outside the enumeration of a truncated kind. ``right_steps[i, k]``
    is ``mul(i, s_k)`` for the generators s_k and then their inverses, -1
    where the product leaves the enumeration; an element is interior when
    every step from it stays inside. Each constructor
    passes the identity index and ``inverse`` (element index to the index
    of its inverse) in closed form, and a finite kind the builder of its
    ``table``. A fixed sample of elements checks both against ``mul``, and
    ``mul`` for closure (finite kinds) and associativity.
    """

    def __init__(self, kind, elements, generators, mul, identity, inverse, table=None):
        self.kind = kind
        self.elements = tuple(elements)
        self.size = len(self.elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise InvalidArgumentError("duplicate group elements")
        for g in generators:
            if g not in self.index:
                raise InvalidArgumentError(f"generator {g!r} not in element list")
        self.generators = tuple(generators)
        self.generator_indices = tuple(self.index[g] for g in self.generators)
        self.mul = mul
        self.finite = table is not None
        self._table = table
        self.identity = identity
        self.inverse = inverse
        steps = self.generator_indices + tuple(map(inverse, self.generator_indices))
        products = (mul(i, s) for i in range(self.size) for s in steps)
        right = (-1 if p is None else p for p in products)
        self.right_steps = np.fromiter(right, np.intp).reshape(self.size, len(steps))
        self.right_steps.flags.writeable = False
        self.interior = tuple((self.right_steps >= 0).all(axis=1).tolist())
        self._spot_check()

    @functools.cached_property
    def table(self) -> np.ndarray:
        """table[i, j] = mul(i, j) of a finite group, built on first use; read-only."""
        require_finite(self, "a multiplication table")
        table = np.asarray(self._table(), dtype=np.intp)
        table.flags.writeable = False
        return table

    def _spot_check(self):
        rng = random.Random(0)
        n, e = self.size, self.identity
        for _ in range(min(50, n * n)):
            a, b, c = (rng.randrange(n) for _ in range(3))
            if not (self.mul(e, a) == a == self.mul(a, e)):
                raise InvalidArgumentError(f"element {e} is not the identity")
            inv = self.inverse(a)
            if not (self.mul(a, inv) == e == self.mul(inv, a)):
                raise InvalidArgumentError(f"element {inv} is not the inverse of {a}")
            ab = self.mul(a, b)
            bc = self.mul(b, c)
            if self.finite and ab is None:
                raise InvalidArgumentError("finite group has partial product")
            if ab is not None and bc is not None:
                left = self.mul(ab, c)
                right = self.mul(a, bc)
                if left is not None and right is not None and left != right:
                    raise InvalidArgumentError("multiplication is not associative")


def _cyclic_order(m: int) -> int:
    if m < 1:
        raise InvalidArgumentError("cyclic order must be >= 1")
    return m


def _product_order(moduli: tuple[int, ...]) -> int:
    if not moduli or any(m < 1 for m in moduli):
        raise InvalidArgumentError("moduli must be positive")
    return math.prod(moduli)


def _zd_box_order(d: int, radius: int) -> int:
    if d < 1 or radius < 1:
        raise InvalidArgumentError(
            f"need d >= 1 and radius >= 1, got d={d}, radius={radius}"
        )
    return (2 * radius + 1) ** d


def _free_ball_order(n_generators: int, radius: int) -> int:
    """1 + sum over k = 1..radius of 2n (2n-1)^(k-1) reduced words."""
    if n_generators < 1 or radius < 1:
        raise InvalidArgumentError(
            f"need n_generators >= 1 and radius >= 1, got "
            f"n_generators={n_generators}, radius={radius}"
        )
    n = n_generators
    return 1 + 2 * radius if n == 1 else 1 + n * ((2 * n - 1) ** radius - 1) // (n - 1)


def cyclic_group(m: int) -> GroupSpec:
    _cyclic_order(m)
    return GroupSpec(
        "cyclic", range(m), (1 % m,), lambda i, j: (i + j) % m, 0, lambda i: -i % m,
        lambda: np.add.outer(np.arange(m), np.arange(m)) % m,
    )


def product_of_cyclics(moduli: tuple[int, ...]) -> GroupSpec:
    _product_order(moduli)
    elements = list(itertools.product(*(range(m) for m in moduli)))
    index = {e: i for i, e in enumerate(elements)}

    def mul(i, j):
        a, b = elements[i], elements[j]
        return index[tuple((x + y) % m for x, y, m in zip(a, b, moduli))]

    def inverse(i):
        return index[tuple(-x % m for x, m in zip(elements[i], moduli))]

    def table():  # digit-wise sums, in the mixed radix of itertools.product
        digits = np.array(elements).reshape(-1, len(moduli)).T
        sums = [(a[:, None] + a) % m for a, m in zip(digits, moduli)]
        return np.ravel_multi_index(sums, moduli)

    gens = [
        tuple(1 if k == d else 0 for k in range(len(moduli)))
        for d in range(len(moduli))
        if moduli[d] > 1
    ]
    if not gens:
        gens = [tuple(0 for _ in moduli)]
    return GroupSpec("product_of_cyclics", elements, gens, mul, 0, inverse, table)


def zd_box(d: int, radius: int) -> GroupSpec:
    """Truncation of Z^d to the box [-radius, radius]^d with unit generators."""
    _zd_box_order(d, radius)
    elements = list(itertools.product(range(-radius, radius + 1), repeat=d))
    index = {e: i for i, e in enumerate(elements)}

    def mul(i, j):
        s = tuple(x + y for x, y in zip(elements[i], elements[j]))
        return index.get(s)

    def inverse(i):
        return index[tuple(-x for x in elements[i])]

    gens = [tuple(1 if k == dd else 0 for k in range(d)) for dd in range(d)]
    return GroupSpec("zd_box", elements, gens, mul, index[(0,) * d], inverse)


def _reduce_word(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for s in word:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def free_group_ball(n_generators: int, radius: int) -> GroupSpec:
    """Reduced words of length <= radius over n free generators."""
    _free_ball_order(n_generators, radius)
    letters = [s for i in range(1, n_generators + 1) for s in (i, -i)]
    elements: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for s in letters:
                if w and w[-1] == -s:
                    continue
                nxt.append(w + (s,))
        elements.extend(nxt)
        frontier = nxt
    index = {e: i for i, e in enumerate(elements)}

    def mul(i, j):
        return index.get(_reduce_word(elements[i] + elements[j]))

    def inverse(i):  # the reversed word with negated letters
        return index[tuple(-s for s in reversed(elements[i]))]

    gens = [(i,) for i in range(1, n_generators + 1)]
    return GroupSpec("free_ball", elements, gens, mul, 0, inverse)


def from_table(elements, table, generators) -> GroupSpec:
    """Explicit multiplication table: table[i][j] = index of elements[i]*elements[j].

    This is the entry point for groups no built-in kind enumerates, such
    as non-abelian ones. The table comes from outside the program, so it is
    checked in full: every entry is an element index, one element is a
    two-sided identity, and every element has a two-sided inverse."""
    n = len(elements)
    if len(table) != n or any(
        len(row) != n or any(not (0 <= x < n) for x in row) for row in table
    ):
        raise InvalidArgumentError("inconsistent multiplication table")
    span = range(n)
    ids = [e for e in span if all(table[e][i] == i == table[i][e] for i in span)]
    if not ids:
        raise InvalidArgumentError("no identity element found")
    e = ids[0]
    inverse = {i: j for i in span for j in span if table[i][j] == e == table[j][i]}
    if len(inverse) != n:
        raise InvalidArgumentError("some element has no inverse")
    return GroupSpec(
        "table", elements, generators, lambda i, j: table[i][j], e, inverse.get,
        lambda: table,
    )


# descriptor kind -> (its form, which names its ':'-separated fields, its
# order from those parameters alone, its constructor)
_GROUP_KINDS = {
    "cyclic": ("cyclic:m", _cyclic_order, cyclic_group),
    "product": ("product:m1,m2,...", _product_order, product_of_cyclics),
    "zbox": ("zbox:d:radius", _zd_box_order, zd_box),
    "free": ("free:n:radius", _free_ball_order, free_group_ball),
}


def _from_descriptor(descriptor: str, build: bool):
    """Parse a group descriptor by its kind's form and apply the kind's
    constructor (build) or order function to the parameters."""
    kind, *fields = descriptor.split(":")
    if kind not in _GROUP_KINDS:
        raise InvalidArgumentError(f"unknown group kind {kind!r}")
    form, order, constructor = _GROUP_KINDS[kind]
    names = form.split(":")[1:]
    if len(fields) != len(names):
        raise InvalidArgumentError(f"bad group descriptor {descriptor!r}: expected {form}")
    try:
        # a field named as a list ("m1,m2,...") is a tuple of integers
        params = [
            tuple(map(int, field.split(","))) if "," in name else int(field)
            for field, name in zip(fields, names)
        ]
        return (constructor if build else order)(*params)
    except ValueError as exc:
        raise InvalidArgumentError(f"bad group descriptor {descriptor!r}: {exc}") from exc


def build_group(descriptor: str) -> GroupSpec:
    """Parse a textual group descriptor: ``cyclic:m``, ``product:m1,m2,...``,
    ``zbox:d:radius`` or ``free:n:radius``, read by the same table of kinds
    (form, order, constructor) as group_order. A descriptor with more or
    fewer fields than its form is refused."""
    return _from_descriptor(descriptor, build=True)


def group_order(descriptor: str) -> int:
    """Element count of build_group(descriptor) from the descriptor alone
    (m, m1*m2*..., (2 radius + 1)^d, or the reduced words of length at most
    radius), enumerating nothing. A malformed descriptor or a parameter
    outside the constructor's domain raises build_group's error."""
    return _from_descriptor(descriptor, build=False)


def require_vertex_cap(base_vertices: int, order: int, vertex_cap: int) -> None:
    """Raise TooLargeError when |G| * |V(base)| exceeds vertex_cap."""
    total = base_vertices * order
    if total > vertex_cap:
        raise TooLargeError(f"Cayley graph would have {total} vertices")


@dataclass(frozen=True)
class CayleyTemplate:
    """Base graph plus anchor vertices v_i for i in {-n..-1, 1..n}."""

    base: FiniteGraph
    anchors: dict[int, int]

    def __post_init__(self):
        keys = set(self.anchors)
        pos = sorted(k for k in keys if k > 0)
        n = len(pos)
        if n == 0 or keys != set(range(1, n + 1)) | set(range(-n, 0)):
            raise InvalidArgumentError(
                "anchor indices must be exactly {-n..-1, 1..n} for some n >= 1"
            )
        for v in self.anchors.values():
            if not (0 <= v < self.base.vertex_count):
                raise InvalidArgumentError(f"anchor vertex {v} not in base graph")

    @property
    def n_generators(self) -> int:
        return sum(1 for k in self.anchors if k > 0)

    def anchor_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.anchors.values())))

    @functools.cached_property
    def interior_modes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The non-anchor vertices I, the eigenvalues mu of the base adjacency
        among them, solved once by the self-checked eig_sym, and the coupling
        Q^T A_IA of their orthonormal eigenvectors Q to the anchor_vertices();
        read them, do not edit them."""
        from .spectral import eig_sym  # spectral imports this module

        anchors, n = list(self.anchor_vertices()), self.base.vertex_count
        interior, base = np.setdiff1d(np.arange(n), anchors), adjacency_sparse(self.base)
        es = eig_sym(base.toarray()[np.ix_(interior, interior)])
        # A_AI Q, each entry summed over ascending interior rows, is (Q^T A_IA)^T
        spread = np.zeros((n, interior.size))
        spread[interior] = es.eigenvectors
        return interior, es.eigenvalues, (base @ spread)[anchors].T


class CayleyGraph:
    """Finite realization of the fibered graph: vertex (v, g) gets the dense
    index g * |V(base)| + v."""

    def __init__(self, graph, template, group):
        self.graph = graph
        self.template = template
        self.group = group
        self.n_base = template.base.vertex_count
        self.boundary_fibers = frozenset(
            g for g in range(group.size) if not group.interior[g]
        )

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    def fiber_vertices(self, g: int) -> range:
        return range(g * self.n_base, (g + 1) * self.n_base)

    def interior_fibers(self) -> tuple[int, ...]:
        return tuple(g for g in range(self.group.size) if g not in self.boundary_fibers)


def build_cayley_graph(
    template: CayleyTemplate,
    group: GroupSpec,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> CayleyGraph:
    n = template.n_generators
    if n != len(group.generators):
        raise InvalidArgumentError(
            f"template has {n} anchor pairs but group has "
            f"{len(group.generators)} generators"
        )
    nb, fibers = template.base.vertex_count, np.arange(group.size)
    require_vertex_cap(nb, group.size, vertex_cap)
    total = nb * group.size
    # the base edges in every fiber, then for each generator s_i the edge
    # from anchor v_-i of fiber g to anchor v_i of fiber g * s_i, if inside
    pairs = [(template.base.edges + nb * fibers[:, None, None]).reshape(-1, 2)]
    for i, h in enumerate(group.right_steps[:, :n].T, start=1):
        inside = h >= 0
        a = nb * fibers[inside] + template.anchors[-i]
        b = nb * h[inside] + template.anchors[i]
        # an edge is a 2-element set; the degenerate pair a == b is no edge
        pairs.append(np.column_stack([np.minimum(a, b), np.maximum(a, b)])[a != b])
    keys = np.sort(np.concatenate(pairs) @ np.array([total, 1]))
    keys = keys[np.diff(keys, prepend=-1) > 0]  # each edge once
    graph = FiniteGraph(total, np.column_stack(np.divmod(keys, total)))
    return CayleyGraph(graph, template, group)


def require_finite(group: GroupSpec, what: str):
    if not group.finite:
        raise UnsupportedError(f"{what} requires a finite group")
