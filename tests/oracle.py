"""The dense operator, the oracle that tests compare the program's sparse
and reduced computations against, and scipy's CSR, the oracle of the
program's own CSR type. The per-element covariance check and the set-based
Cayley graph builder are the oracles of the generator check and of the
array builder, the tuple-keyed colour refinement that of the array
refinement kernel, and the unseeded enumeration that of the brute Aut_And
oracle's search seeded by the potential. The loop-built subtree is the
oracle of the canopy's descendant formula, and the hand-assembled canopy
core that of its quotient by the level cells. The generic level-by-level
elimination is the oracle of the tree counts' chain recurrence, the
family-by-family verdict that of the whole-stack verdict test, and the
greedy clustering loop that of the clusters read from gaps."""

import itertools

import numpy as np
import scipy.sparse as sp

from multispec.anderson import DisorderRealization, assemble_cayley_operator
from multispec.automorphism import BRUTE_VERTEX_CAP, automorphisms, conjugation_deviation
from multispec.cayley import require_finite
from multispec.errors import CertificateError
from multispec.graph_core import CSRMatrix
from multispec.spectral import ORTHO_TOL, UNIT_NORM_TOL


def dense_operator(op) -> np.ndarray:
    """H = adjacency + diag(potential) of a SiteOperator as a dense array."""
    return op.adjacency.toarray() + np.diag(op.potential)


def scipy_csr(m: CSRMatrix) -> sp.csr_matrix:
    """The program's CSRMatrix as a scipy csr_matrix on the same arrays."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def from_scipy(matrix) -> CSRMatrix:
    """A dense or scipy sparse matrix as a CSRMatrix, through the canonical
    CSR arrays scipy builds for it."""
    m = sp.csr_matrix(matrix)
    return CSRMatrix(m.data, m.indices, m.indptr, m.shape)


def shift_disorder(r, g: int, group) -> DisorderRealization:
    """Left shift of the coupling field: the new value at h is the old value
    at g*h, read from the group's multiplication table."""
    require_finite(group, "shift_disorder")
    shifted = list(map(r.values.__getitem__, group.table[g].tolist()))
    return DisorderRealization(np.arange(group.size), np.array(shifted), r.spec)


def covariance_oracle(cg, r, elements, op) -> list:
    """(holds, deviation) for each element g, one element at a time: the
    dense adjacency permuted by (v, h) -> (v, g*h) against itself, and the
    permuted potential against the vertex-by-vertex potential of
    shift_disorder's couplings."""
    dense, out = op.adjacency.toarray(), []
    for g in elements:
        shifted = shift_disorder(r, g, cg.group)
        potential = np.repeat([shifted.values[h] for h in range(cg.group.size)], cg.n_base)
        phi = (cg.group.table[g][:, None] * cg.n_base + np.arange(cg.n_base)).ravel()
        dev = max(
            float(np.max(np.abs(dense[phi][:, phi] - dense), initial=0.0)),
            float(np.max(np.abs(op.potential[phi] - potential), initial=0.0)),
        )
        out.append((dev == 0.0, dev))
    return out


def cayley_graph_edges(template, group) -> tuple:
    """The sorted edges of the Cayley graph, collected in a set edge by edge:
    the base edges in each fiber, and for each generator s_i the pair from
    anchor v_-i of fiber g to anchor v_i of fiber g * s_i where mul defines
    it, a degenerate pair a == b giving no edge."""
    nb = template.base.vertex_count
    edges = set()
    for g in range(group.size):
        edges.update((g * nb + u, g * nb + v) for u, v in template.base.edges.tolist())
        for i, s in enumerate(group.generator_indices, start=1):
            h = group.mul(g, s)
            if h is not None:
                a, b = g * nb + template.anchors[-i], h * nb + template.anchors[i]
                if a != b:
                    edges.add((min(a, b), max(a, b)))
    return tuple(sorted(edges))


def refine(adj: list[list[int]], colors: list[int]) -> list[int]:
    """Colour refinement keyed by tuples: each round gives every vertex the
    rank of (its colour, its neighbours' sorted colours) among all such
    keys, until a round adds no colour. adj lists each vertex's neighbours."""
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


def unseeded_anderson_automorphisms(cg, r) -> tuple:
    """The operator-fixing automorphisms, sorted, found with no seed: every
    automorphism of the Cayley graph from a one-colour start, then those
    whose conjugation fixes the operator exactly."""
    op = assemble_cayley_operator(cg, r)
    every = automorphisms(cg.graph, cap=BRUTE_VERTEX_CAP).elements
    return tuple(itertools.compress(every, conjugation_deviation(op, np.array(every)) == 0.0))


def subtree(t, w: int, j: int) -> tuple[int, ...]:
    """All descendants of w within distance j, in BFS order starting at w,
    collected level by level: the children of a run of consecutive
    vertices are consecutive."""
    out: list[int] = []
    first, width = w, 1
    for _ in range(j + 1):
        out.extend(range(first, first + width))
        first, width = t.K * first + 1, t.K * width
    return tuple(out)


def canopy_core(op) -> np.ndarray:
    """The core of a canopy operator assembled by hand from the tree's
    layout: the vertices above depth l as they are, then per depth-l root x
    a chain of its l+1 levels with potential omega_x, weights sqrt(K)
    along the chain and weight 1 from x to its parent."""
    t, p = op.tiling
    K, l = t.K, p.l
    deep = int(np.count_nonzero(t.depth > l))
    roots = np.flatnonzero(t.depth == l)
    couplings = op.potential[roots]
    chain = deep + (l + 1) * np.arange(roots.size)[:, None] + np.arange(l + 1)
    size = deep + chain.size
    core = np.zeros((size, size))
    rows, cols, data = op.adjacency.rows, op.adjacency.indices, op.adjacency.data
    prefix = (rows < deep) & (cols < deep)  # the vertices above depth l
    core[rows[prefix], cols[prefix]] += data[prefix]
    core[np.arange(deep), np.arange(deep)] = op.potential[:deep]
    core[chain, chain] = couplings[:, None]
    a, b = chain[:, :-1].ravel(), chain[:, 1:].ravel()
    core[a, b] = core[b, a] = np.sqrt(K)
    parents = t.parent[roots]
    linked = parents >= 0  # only a single-patch tree has a parentless root
    heads = chain[linked, 0]
    core[heads, parents[linked]] = core[parents[linked], heads] = 1.0
    return core


def tree_counts_below(op, shifts, potentials) -> np.ndarray:
    """The canopy core's (row 0) and the operator's (row 1) counts below
    each shifts[i, j] under potentials[i], by the generic leaf-to-root
    elimination: every level, the chains' included, sums w^2 / a(c) over
    its K or 1 children's pivots a(c), and a zero child pivot gives its
    parent -inf; a chain level j counts K^j times in op."""
    t, p = op.tiling
    K, l = t.K, p.l
    diagonals = [potentials[:, t.depth == d] for d in range(l, t.L + 1)]
    at, column = np.divmod(np.arange(shifts.size), shifts.shape[1])
    sigma = shifts[at, column, None]
    omega, *deep = (diagonal[at] for diagonal in diagonals)
    levels = [(omega, K, K**j) for j in range(l, -1, -1)]  # (diagonal, w^2, copies)
    levels += [(diagonal, 1.0, 1) for diagonal in deep]
    counts = np.zeros((2, shifts.size), dtype=np.intp)
    pivots = np.full(omega.shape, np.inf)  # the leaves have no children
    for diagonal, weight, copies in levels:
        children = pivots.reshape(at.size, diagonal.shape[1], -1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            pivots = diagonal - sigma - weight * np.reciprocal(children).sum(axis=2)
        pivots[(children == 0).any(axis=2)] = -np.inf
        counts += np.outer([1, copies], np.count_nonzero(pivots < 0, axis=1))
    return counts.reshape((2, *shifts.shape))


def rejection(residuals, tolerance, eigenvalue, norms, dev):
    """The CertificateError of one family, None if it passes: the first
    vector whose norm is off 1 or, after that, whose residual is over
    tolerance; then a Gram matrix off the identity by dev."""
    for norm, residual in zip(norms, residuals):
        if not abs(norm - 1.0) <= UNIT_NORM_TOL:
            return CertificateError(f"certificate vector norm {norm} is not 1")
        if not residual <= tolerance:
            return CertificateError(
                f"certificate residual {residual:.3e} exceeds tolerance "
                f"{tolerance:.3e} (claimed eigenvalue {eigenvalue})"
            )
    if not dev <= ORTHO_TOL:
        return CertificateError(f"certificate Gram deviates from identity by {dev:.3e}")
    return None


def cluster_multiplicities(values, tau) -> list:
    """Greedy clustering of an ascending list: consecutive values within tau
    of the previous one join the current cluster; (mean, size) of each."""
    clusters, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tau:
            chunk = values[start:i]
            clusters.append((sum(chunk) / len(chunk), len(chunk)))
            start = i
    return clusters
