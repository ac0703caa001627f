"""Graph automorphism groups, pointwise stabilizers, and the
operator-fixing group Aut_And of a Cayley-type graph.

The search is plain color refinement plus backtracking. Refinement is
seeded with the fixed vertices as singleton colors and everything else in
one color; it splits colors by neighbor-color multisets until the partition
is equitable, which already separates degrees and distances to the fixed
vertices. Each search step tries only the vertices of its own color cell,
the search order comes from a heap, and the elements found are checked
against the graph by anderson.adjacency_deviation, the one permuted
adjacency kernel. Aut_And is built in closed form as one permutation
array, one fiber-wise product of anchor-stabilizer elements per row, and
checked by one stacked conjugation. The same refinement, seeded with one
color per fiber, checks the premise of that closed form: every
operator-fixing automorphism pins the anchors.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .anderson import (
    DisorderRealization,
    SiteOperator,
    adjacency_deviation,
    assemble_cayley_operator,
    require_generic,
)
from .cayley import CayleyGraph, require_finite
from .errors import CertificateError, InvalidArgumentError, TooLargeError
from .graph_core import CSRMatrix, FiniteGraph, adjacency_sparse

DEFAULT_SEARCH_CAP = 2_000
BRUTE_VERTEX_CAP = 200
EXPLICIT_ORDER_CAP = 10_000

Permutation = tuple[int, ...]


def is_automorphism(g: FiniteGraph, perm) -> bool | np.ndarray:
    """Whether perm is a permutation of range(n) mapping every edge of g onto
    an edge. A stack (k, n) gives k answers. g's adjacency is 0/1, so a row
    that is a permutation is an automorphism iff its adjacency_deviation is 0."""
    n, perms = g.vertex_count, np.asarray(perm, dtype=np.intp)
    stack = np.atleast_2d(perms)
    ok = np.zeros(len(stack), dtype=bool)
    if stack.shape[1] == n:
        ok = (np.sort(stack, axis=1) == np.arange(n)).all(axis=1)
        valid = stack[ok]
        dev = adjacency_deviation(adjacency_sparse(g), len(valid), lambda lo, hi: valid[lo:hi])
        ok[ok] = dev == 0.0
    return ok if perms.ndim == 2 else bool(ok[0])


@dataclass(frozen=True)
class AutGroup:
    order: int
    fixed_set: tuple[int, ...]
    elements: tuple[Permutation, ...]

    def __post_init__(self):
        if len(self.elements) != self.order:
            raise InvalidArgumentError("element count disagrees with order")


def _check_closure(group: AutGroup):
    """A group of at most 64 elements must be closed under inverses and
    under the first 256 products (p . q)(v) = p(q(v))."""
    k = len(group.elements)
    if not 0 < k <= 64:
        return
    perms = np.array(group.elements, dtype=np.intp).reshape(k, -1)
    elems = {row.tobytes() for row in perms}
    if any(row.tobytes() not in elems for row in np.argsort(perms, axis=1)):
        raise CertificateError("group not closed under inverse")
    p, q = np.divmod(np.arange(min(k * k, 256)), k)
    products = np.take_along_axis(perms[p], perms[q], axis=1)
    if any(row.tobytes() not in elems for row in products):
        raise CertificateError("group not closed under composition")


def _refine(adj: CSRMatrix, colors, pinned=()) -> np.ndarray:
    """Colour refinement of colors (ids in range(n)) on the graph of adj:
    each round hashes a vertex's neighbour colours as the uint64 sum of
    fixed random odd weights and numbers the (colour, hash) pairs in
    ascending order, until a round adds no cell or every vertex of pinned
    is alone in its cell. Automorphisms keeping colors keep every round."""
    n, indptr = adj.shape[0], adj.indptr
    colors, pinned = np.asarray(colors, dtype=np.intp), np.asarray(pinned, dtype=np.intp)
    weights = np.random.default_rng(0).integers(1 << 63, size=n, dtype=np.uint64) * 2 + 1
    rows = np.diff(indptr) > 0  # reduceat would give an empty row its next entry
    hashes, cells = np.zeros(n, dtype=np.uint64), np.count_nonzero(np.bincount(colors))
    while not (pinned.size and (np.bincount(colors)[colors[pinned]] == 1).all()):
        hashes[rows] = np.add.reduceat(weights[colors[adj.indices]], indptr[:-1][rows])
        order = np.lexsort((hashes, colors))
        c, h = colors[order], hashes[order]
        step = (np.diff(c, prepend=c[:1]) != 0) | (np.diff(h, prepend=h[:1]) != 0)
        colors = np.empty(n, dtype=np.intp)
        colors[order] = np.cumsum(step)
        previous, cells = cells, colors.max(initial=-1) + 1
        if cells == previous:
            break
    return colors


def automorphisms(
    g: FiniteGraph,
    fixed: tuple[int, ...] = (),
    cap: int = DEFAULT_SEARCH_CAP,
    classes=None,
) -> AutGroup:
    """All automorphisms of g fixing the given vertices pointwise and, when
    classes (one label per vertex) is given, mapping each vertex into its
    own class; without classes every vertex is in one."""
    n = g.vertex_count
    if n > cap:
        raise TooLargeError(f"{n} vertices exceeds search cap {cap}")
    fixed = tuple(dict.fromkeys(fixed))
    for v in fixed:
        if not (0 <= v < n):
            raise InvalidArgumentError(f"fixed vertex {v} out of range")
    labels = np.zeros(n) if classes is None else np.asarray(classes)
    if labels.shape != (n,):
        raise InvalidArgumentError(f"classes need shape ({n},), not {labels.shape}")
    seed = np.unique(labels, return_inverse=True)[1].reshape(n) + len(fixed)
    seed[list(fixed)] = range(len(fixed))  # the fixed vertices as singletons
    colors = _refine(adjacency_sparse(g), np.unique(seed, return_inverse=True)[1]).tolist()
    adj = g.neighbors()
    # cells[c]: the vertices of color c, ascending; v can only map into its own
    cells: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
    for v in range(n):
        cells[colors[v]].append(v)
    # search order: grow a connected front, preferring constrained vertices;
    # mapped_nb only grows, so an entry is current iff its key is -mapped_nb
    order: list[int] = []
    placed = [False] * n
    mapped_nb = [0] * n
    heap = sorted((0, len(cells[c]), v) for v, c in enumerate(colors))
    while heap:
        key, _, best = heapq.heappop(heap)
        if key != -mapped_nb[best]:
            continue
        order.append(best)
        placed[best] = True
        for u in adj[best]:
            mapped_nb[u] += 1
            if not placed[u]:
                heapq.heappush(heap, (-mapped_nb[u], len(cells[colors[u]]), u))
    adj_sets = [set(a) for a in adj]
    image = [-1] * n
    preimage = [-1] * n
    found: list[Permutation] = []

    def dfs(pos: int):
        if pos == n:
            found.append(tuple(image))
            return
        v = order[pos]
        for w in cells[colors[v]]:
            if preimage[w] != -1:
                continue
            ok = True
            for u in adj[v]:
                if image[u] != -1 and image[u] not in adj_sets[w]:
                    ok = False
                    break
            if ok:
                # reverse direction: mapped neighbors of w must come from neighbors of v
                for wu in adj[w]:
                    src = preimage[wu]
                    if src != -1 and src not in adj_sets[v]:
                        ok = False
                        break
            if not ok:
                continue
            image[v] = w
            preimage[w] = v
            dfs(pos + 1)
            image[v] = -1
            preimage[w] = -1

    dfs(0)
    group = AutGroup(len(found), fixed, elements=tuple(sorted(found)))
    perms = np.array(group.elements, dtype=np.intp).reshape(group.order, n)
    if not is_automorphism(g, perms).all():
        raise CertificateError("returned permutation is not an automorphism")
    if (perms[:, list(fixed)] != fixed).any():
        raise CertificateError("returned permutation moves a fixed vertex")
    _check_closure(group)
    return group


def conjugation_deviation(op: SiteOperator, perm: np.ndarray) -> float | np.ndarray:
    """Max |(U H U*)[a,b] - H[a,b]| for the permutation unitary
    (U u)(v) = u(perm(v)). Exact zero means the operator is fixed; as every
    stored adjacency entry of a graph's operator is 1.0, it also means perm
    is an automorphism of the graph.

    A stack of permutations (k, n) gives k deviations, each equal to the
    single-permutation call's bit for bit. Every row is checked to be a
    permutation first. The adjacency has no self-loops, so its part
    (anderson.adjacency_deviation) and the potential's part are separate."""
    n, perms = op.dimension, np.asarray(perm)
    if perms.ndim not in (1, 2) or perms.shape[-1] != n or not (
        np.sort(perms, axis=-1) == np.arange(n)
    ).all():
        raise InvalidArgumentError("not a permutation")
    stack = perms.reshape(-1, n)
    potential = np.abs(op.potential[stack] - op.potential).max(axis=1, initial=0.0)
    adjacency = adjacency_deviation(op.adjacency, len(stack), lambda lo, hi: stack[lo:hi])
    deviation = np.maximum(adjacency, potential)
    return deviation if perms.ndim == 2 else float(deviation[0])


def _unpinned_anchors(cg: CayleyGraph) -> np.ndarray:
    """The anchor vertices of all fibers, ascending, that _refine from one
    colour per fiber leaves in a cell with another vertex. With generic
    couplings a fixing automorphism keeps every fiber, hence every cell, so
    it pins every anchor not listed. On the prime-paths base the anchors stay
    unpinned when the generator set is closed under inversion (S = S^-1):
    swapping the junctions and reversing every path in every fiber fixes
    the operator."""
    nb = cg.n_base
    anchors = (nb * np.arange(cg.group.size)[:, None] + cg.template.anchor_vertices()).ravel()
    colors = _refine(adjacency_sparse(cg.graph), np.arange(cg.vertex_count) // nb, anchors)
    return anchors[np.bincount(colors)[colors[anchors]] > 1]


def anderson_automorphisms(cg: CayleyGraph, r: DisorderRealization) -> AutGroup:
    """The operator-fixing automorphism group, computed structurally: when
    every fixing automorphism pins the anchors (_unpinned_anchors is
    empty), the group is the fiber-wise image of the per-fiber anchor
    stabilizer, of order |Aut(base|anchors)|^|G|; otherwise CertificateError.
    Every element is listed, so an order above EXPLICIT_ORDER_CAP raises
    TooLargeError, and checked by one stacked conjugation_deviation, whose
    zero proves it an automorphism of cg.graph that fixes the operator."""
    require_finite(cg.group, "anderson_automorphisms")
    require_generic(r)
    unpinned = _unpinned_anchors(cg)
    if unpinned.size:
        raise CertificateError(
            f"colour refinement from the fibers leaves anchor vertex {unpinned[0]} "
            "unpinned, so a fixing automorphism need not pin the anchors (known "
            "cause: a generator set closed under inversion, S = S^-1); no order is claimed"
        )
    base_group = automorphisms(cg.template.base, fixed=cg.template.anchor_vertices())
    size, nb = cg.group.size, cg.n_base
    order = base_group.order**size
    if order > EXPLICIT_ORDER_CAP:
        raise TooLargeError(
            f"Aut_And order {order} exceeds explicit cap {EXPLICIT_ORDER_CAP}"
        )
    op = assemble_cayley_operator(cg, r)
    # perms[c, h*nb + v] = h*nb + phi_{c_h}(v); the base elements are sorted
    # and the combos come in lexicographic order, so the rows do too
    phi = np.array(base_group.elements)
    combos = np.array(list(itertools.product(range(base_group.order), repeat=size)))
    perms = (phi[combos] + nb * np.arange(size)[:, None]).reshape(order, -1)
    dev = conjugation_deviation(op, perms)
    if dev.any():
        raise CertificateError(
            f"structural element fails conjugation check (dev {dev.max()})"
        )
    group = AutGroup(order, (), elements=tuple(map(tuple, perms.tolist())))
    _check_closure(group)
    return group


def brute_anderson_automorphisms(cg: CayleyGraph, r: DisorderRealization) -> AutGroup:
    """Independent oracle: enumerate the automorphisms of the full Cayley
    graph that map each exact value class of the potential into itself, and
    keep those whose conjugation fixes the operator exactly. A permutation
    that fixes H keeps its diagonal, so the classes drop only elements the
    conjugation check would drop; under a constant potential they are one
    class, and every automorphism is enumerated."""
    if cg.vertex_count > BRUTE_VERTEX_CAP:
        raise TooLargeError(
            f"{cg.vertex_count} vertices exceeds brute cap {BRUTE_VERTEX_CAP}"
        )
    op = assemble_cayley_operator(cg, r)
    all_auts = automorphisms(cg.graph, cap=BRUTE_VERTEX_CAP, classes=op.potential)
    dev = conjugation_deviation(op, np.array(all_auts.elements))
    kept = tuple(itertools.compress(all_auts.elements, dev == 0.0))
    group = AutGroup(len(kept), (), elements=kept)
    _check_closure(group)
    return group
