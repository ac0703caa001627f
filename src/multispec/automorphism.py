"""Graph automorphism groups, pointwise stabilizers, the fiber-wise
embedding into the Cayley-type graph, and the operator-fixing group.

The search is plain color refinement plus backtracking. Refinement is
seeded with the fixed vertices as singleton colors and everything else in
one color; it splits colors by neighbor-color multisets until the partition
is equitable, which already separates degrees and distances to the fixed
vertices. Instances here are small; auditability beats speed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .anderson import (
    DisorderRealization,
    SiteOperator,
    assemble_cayley_operator,
    permuted_deviation,
    require_generic,
)
from .cayley import CayleyGraph, require_finite
from .errors import CertificateError, InvalidArgumentError, TooLargeError
from .graph_core import FiniteGraph

DEFAULT_SEARCH_CAP = 2_000
BRUTE_VERTEX_CAP = 200
EXPLICIT_ORDER_CAP = 10_000

Permutation = tuple[int, ...]


def is_permutation(perm: Permutation, n: int) -> bool:
    return len(perm) == n and sorted(perm) == list(range(n))


def is_automorphism(g: FiniteGraph, perm: Permutation) -> bool:
    if not is_permutation(perm, g.vertex_count):
        return False
    edges = set(g.edges)
    for u, v in g.edges:
        a, b = perm[u], perm[v]
        if (min(a, b), max(a, b)) not in edges:
            return False
    return True


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p . q)(v) = p(q(v))"""
    return tuple(p[q[v]] for v in range(len(p)))


def invert(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


@dataclass(frozen=True)
class AutGroup:
    order: int
    fixed_set: tuple[int, ...]
    elements: tuple[Permutation, ...]

    def __post_init__(self):
        if len(self.elements) != self.order:
            raise InvalidArgumentError("element count disagrees with order")


def _validate_group(g: FiniteGraph, group: AutGroup):
    for p in group.elements:
        if not is_automorphism(g, p):
            raise CertificateError("returned permutation is not an automorphism")
        for v in group.fixed_set:
            if p[v] != v:
                raise CertificateError("returned permutation moves a fixed vertex")
    if len(group.elements) <= 64:
        elems = set(group.elements)
        for p in group.elements:
            if invert(p) not in elems:
                raise CertificateError("group not closed under inverse")
        for p, q in itertools.islice(
            itertools.product(group.elements, repeat=2), 256
        ):
            if compose(p, q) not in elems:
                raise CertificateError("group not closed under composition")


def _refine(adj: list[list[int]], colors: list[int]) -> list[int]:
    n = len(adj)
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)
        ]
        remap = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [remap[k] for k in keys]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def automorphisms(
    g: FiniteGraph,
    fixed: tuple[int, ...] = (),
    cap: int = DEFAULT_SEARCH_CAP,
) -> AutGroup:
    """All automorphisms of g fixing the given vertices pointwise."""
    n = g.vertex_count
    if n > cap:
        raise TooLargeError(f"{n} vertices exceeds search cap {cap}")
    fixed = tuple(dict.fromkeys(fixed))
    for v in fixed:
        if not (0 <= v < n):
            raise InvalidArgumentError(f"fixed vertex {v} out of range")
    adj = g.neighbors()
    colors = _refine(adj, [fixed.index(v) if v in fixed else -1 for v in range(n)])
    class_size = [0] * (max(colors) + 1 if n else 0)
    for c in colors:
        class_size[c] += 1
    # search order: grow a connected front, preferring constrained vertices
    order: list[int] = []
    placed = [False] * n
    mapped_nb = [0] * n
    for _ in range(n):
        best = min(
            (v for v in range(n) if not placed[v]),
            key=lambda v: (-mapped_nb[v], class_size[colors[v]], v),
        )
        order.append(best)
        placed[best] = True
        for u in adj[best]:
            mapped_nb[u] += 1
    adj_sets = [set(a) for a in adj]
    image = [-1] * n
    used = [False] * n
    found: list[Permutation] = []

    def dfs(pos: int):
        if pos == n:
            found.append(tuple(image))
            return
        v = order[pos]
        for w in range(n):
            if used[w] or colors[w] != colors[v]:
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
            used[w] = True
            dfs(pos + 1)
            image[v] = -1
            preimage[w] = -1
            used[w] = False

    preimage = [-1] * n
    dfs(0)
    group = AutGroup(len(found), fixed, elements=tuple(sorted(found)))
    _validate_group(g, group)
    return group


def theta(per_fiber, cg: CayleyGraph) -> Permutation:
    """Fiber-wise permutation (v, h) -> (phi_h(v), h) of the Cayley graph.

    per_fiber[h] must be an automorphism of the base graph fixing every
    anchor, one per group element index.
    """
    base = cg.template.base
    anchors = cg.template.anchor_vertices()
    if len(per_fiber) != cg.group.size:
        raise InvalidArgumentError("need one base permutation per fiber")
    for phi in per_fiber:
        if not is_automorphism(base, tuple(phi)):
            raise InvalidArgumentError("per-fiber map is not a base automorphism")
        if any(phi[a] != a for a in anchors):
            raise InvalidArgumentError("per-fiber map moves an anchor")
    nb = cg.n_base
    out = [0] * cg.vertex_count
    for h in range(cg.group.size):
        phi = per_fiber[h]
        for v in range(nb):
            out[h * nb + v] = h * nb + phi[v]
    perm = tuple(out)
    if not is_automorphism(cg.graph, perm):
        raise CertificateError("fiber-wise map is not an automorphism of H_G")
    return perm


def conjugation_deviation(op: SiteOperator, perm: Permutation) -> float:
    """Max |(U H U*)[a,b] - H[a,b]| for the permutation unitary
    (U u)(v) = u(perm(v)). Exact zero means the operator is fixed."""
    if not is_permutation(perm, op.dimension):
        raise InvalidArgumentError("not a permutation")
    return permuted_deviation(op, np.asarray(perm), op.potential)


def anderson_automorphisms(cg: CayleyGraph, r: DisorderRealization) -> AutGroup:
    """The operator-fixing automorphism group, computed structurally: with
    pairwise-distinct couplings every fixing automorphism preserves fibers
    and pins the anchors, so the group is the fiber-wise image of the
    per-fiber anchor stabilizer, of order |Aut(base|anchors)|^|G|. Every
    element is listed and checked, so an order above EXPLICIT_ORDER_CAP
    raises TooLargeError.

    That premise fails when the generator set is closed under inversion
    (S = S^-1): on the prime-paths base with generators that are all
    involutions, swapping the two junctions and reversing every path in
    every fiber fixes the operator. Such groups raise CertificateError
    instead of reporting an order."""
    require_finite(cg.group, "anderson_automorphisms")
    require_generic(r)
    generators = set(cg.group.generator_indices)
    if {cg.group.inverse(g) for g in generators} == generators:
        raise CertificateError(
            "generator set is closed under inversion (S = S^-1), so a fixing "
            "automorphism need not pin the anchors; no order is claimed"
        )
    base_group = automorphisms(cg.template.base, fixed=cg.template.anchor_vertices())
    size = cg.group.size
    order = base_group.order**size
    if order > EXPLICIT_ORDER_CAP:
        raise TooLargeError(
            f"Aut_And order {order} exceeds explicit cap {EXPLICIT_ORDER_CAP}"
        )
    op = assemble_cayley_operator(cg, r)
    elements = []
    for combo in itertools.product(base_group.elements, repeat=size):
        perm = theta(combo, cg)
        dev = conjugation_deviation(op, perm)
        if dev != 0.0:
            raise CertificateError(
                f"structural element fails conjugation check (dev {dev})"
            )
        nb = cg.n_base
        if any(perm[v] // nb != v // nb for v in range(cg.vertex_count)):
            raise CertificateError("structural element does not preserve fibers")
        elements.append(perm)
    group = AutGroup(order, (), elements=tuple(sorted(elements)))
    _validate_group(cg.graph, group)
    return group


def brute_anderson_automorphisms(cg: CayleyGraph, r: DisorderRealization) -> AutGroup:
    """Independent oracle: enumerate every automorphism of the full Cayley
    graph and keep those whose conjugation fixes the operator exactly."""
    if cg.vertex_count > BRUTE_VERTEX_CAP:
        raise TooLargeError(
            f"{cg.vertex_count} vertices exceeds brute cap {BRUTE_VERTEX_CAP}"
        )
    op = assemble_cayley_operator(cg, r)
    all_auts = automorphisms(cg.graph, fixed=(), cap=BRUTE_VERTEX_CAP)
    kept = tuple(
        p for p in all_auts.elements if conjugation_deviation(op, p) == 0.0
    )
    group = AutGroup(len(kept), (), elements=kept)
    _validate_group(cg.graph, group)
    return group
