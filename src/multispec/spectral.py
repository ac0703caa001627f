"""Symmetric eigensolving, multiplicity clustering, and the explicit
finitely-supported eigenvector certificates.

Three certificate constructions are provided:
  * canopy_certificates: for a patch root x and an eigenpair (E, psi) of the
    depth-(l-1) complete subtree, K-1 orthonormal vectors supported on the
    forward-neighbor subtrees of x, certifying the eigenvalue E + omega_x.
  * cayley_certificates: base-graph eigenvectors at E0 vanishing on every
    anchor, copied into a single fiber g, certifying E0 + omega_g.
  * junction_kernel_basis: on a glued graph, combinations of per-piece
    eigenvectors at E0 that cancel at every junction.

Every returned certificate is re-verified by multiplying the fully
assembled operator (not the construction shortcut) against the vector,
within residual_tolerance, built on the operator's cached norm bound. The
subtree psi, the base-graph vectors and the junction kernel vectors pass
check_eigenvectors against the cached subtree template or a CSR adjacency;
no other graph matrix is densified except for an eigensolve.

operator_spectrum solves each operator once. A canopy operator is solved on
its symmetry-reduced core, the vertices above depth l plus an (l+1)-vertex
level chain per depth-l patch root (213 instead of 1,365 vertices for K=4,
L=5, l=2; 94 instead of 364 for K=3, L=5; 364 instead of 3,280 for K=3, L=7,
l=3), plus closed-form (K-1)-fold patch blocks. The eig cap still bounds the
full dimension, so K=3, L=8 is refused although its core has 2,551 vertices.
Every other operator (the Cayley operators) is renumbered by reverse
Cuthill-McKee to a narrow band (15 for the 1,280-vertex cyclic:40 operator,
16 for the 3,200-vertex cyclic:100 one) and solved for eigenvalues only by
LAPACK's banded symmetric solver. Either way the values are checked against
the assembled operator's dimension, trace and Frobenius norm. eig_sym, which
self-checks the eigenvectors it returns, serves the solves whose vectors are
used and the canopy core.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .anderson import SiteOperator, assemble_canopy_operator, assemble_cayley_operator
from .canopy import (
    PatchSet,
    TruncatedCanopy,
    build_truncated_canopy,
    forward_neighbors,
    subtree,
    tree_adjacency,
)
from .cayley import CayleyGraph
from .errors import CertificateError, InvalidArgumentError, TooLargeError
from .graph_core import GluedGraph, adjacency_matrix, adjacency_sparse

DEFAULT_EIG_CAP = 5_000
TOL_SCALE = 1e-9  # relative scale of the solver, power-sum and certificate tolerances
ORTHO_TOL = 1e-10
EIGENVECTOR_TOL = 1e-10
UNIT_NORM_TOL = 1e-12
ANCHOR_VANISH_TOL = 1e-12
ALPHA_SUM_TOL = 1e-14
ALPHA_GRAM_TOL = 1e-13
PIECE_EIG_TOL = 1e-8  # how close a piece eigenvalue must come to E0
RANK_TOL = 1e-10  # relative to the junction system's largest entry


@dataclass(frozen=True)
class EigenSystem:
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # orthonormal columns
    residual_bound: float


def require_eig_cap(dimension: int, cap: int) -> None:
    """Raise TooLargeError when a dense solve of this dimension exceeds cap;
    callers check before densifying anything."""
    if dimension > cap:
        raise TooLargeError(f"dimension {dimension} exceeds eig cap {cap}")


def eig_sym(M: np.ndarray, cap: int = DEFAULT_EIG_CAP) -> EigenSystem:
    """Full decomposition of a real symmetric matrix, ascending order."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    require_eig_cap(M.shape[0], cap)
    if M.size and not np.array_equal(M, M.T):
        raise InvalidArgumentError("matrix must be symmetric")
    w, v = np.linalg.eigh(M)
    residual = float(np.max(np.abs(M @ v - v * w))) if M.size else 0.0
    max_entry = float(np.max(np.abs(M))) if M.size else 0.0
    bound = TOL_SCALE * (1.0 + max_entry * M.shape[0])
    if not residual <= bound:
        raise CertificateError(
            f"eigensolver residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    if M.size:
        gram_dev = float(np.max(np.abs(v.T @ v - np.eye(M.shape[0]))))
        if not gram_dev <= ORTHO_TOL:
            raise CertificateError(f"eigenvectors not orthonormal ({gram_dev:.3e})")
    return EigenSystem(w, v, residual)


def operator_spectrum(op: SiteOperator, cap: int = DEFAULT_EIG_CAP) -> np.ndarray:
    """Ascending eigenvalues of op, read-only. The cap is checked on
    op.dimension before anything is densified or solved; the first call
    solves the spectrum and caches it on op, which is immutable after
    assembly.

    A canopy operator (op.tiling set) is solved on its symmetry-reduced
    core plus the closed-form patch blocks (see _canopy_blocks); any other
    operator by the eigenvalues-only band solve (see _band_eigenvalues).
    Either way the values must reproduce the dimension, trace and Frobenius
    norm of the assembled operator before they are cached.
    """
    require_eig_cap(op.dimension, cap)
    if op._eigenvalues is None:
        if op.tiling is None:
            w = _band_eigenvalues(op)
        else:
            core, local = _canopy_blocks(op, cap)
            w = np.sort(np.concatenate([core, local.ravel()]))
        _check_power_sums(op, w)
        w.flags.writeable = False
        op._eigenvalues = w
    return op._eigenvalues


def _band_eigenvalues(op: SiteOperator) -> np.ndarray:
    """Ascending eigenvalues of op, without eigenvectors. Reverse
    Cuthill-McKee renumbers the vertices so that every edge joins two close
    indices; the lower band of the renumbered operator goes into LAPACK band
    storage (row d holds the d-th subdiagonal) for scipy.linalg.eig_banded.
    The adjacency must be exactly symmetric, as eig_sym requires.

    scipy.linalg and scipy.sparse.csgraph are imported here, not with the
    module: importing them takes about 0.1 s, which every command that
    solves no Cayley operator would pay."""
    import scipy.linalg
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    adjacency = op.adjacency
    if (adjacency != adjacency.T).nnz:
        raise InvalidArgumentError("matrix must be symmetric")
    order = reverse_cuthill_mckee(adjacency, symmetric_mode=True)
    h = (adjacency + sp.diags(op.potential)).tocsr()[order][:, order]
    lower = sp.tril(h).tocoo()
    offset = lower.row - lower.col
    bands = np.zeros((offset.max(initial=0) + 1, op.dimension))
    bands[offset, lower.col] = lower.data
    return scipy.linalg.eig_banded(bands, lower=True, eigvals_only=True)


@functools.lru_cache(maxsize=16)
def _patch_block_spectrum(K: int, l: int) -> np.ndarray:
    """Eigenvalues of the zero-sum blocks of one depth-l patch at coupling
    0, read-only: for d = 1..l, (K-1) * K^(l-d) copies of the spectrum of
    R_(d-1), the d-vertex path with weights sqrt(K)."""
    blocks = []
    for d in range(1, l + 1):
        path = np.sqrt(K) * (np.eye(d, k=1) + np.eye(d, k=-1))
        blocks.append(np.tile(eig_sym(path).eigenvalues, (K - 1) * K ** (l - d)))
    w = np.concatenate(blocks)
    w.flags.writeable = False
    return w


def _canopy_blocks(op: SiteOperator, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact orthogonal block decomposition of a canopy operator: the
    eigenvalues of its core, and one row of patch-block eigenvalues per
    depth-l patch root.

    The coupling is constant on the depth-l patch below a root x, so every
    vertex w of depth d >= 1 inside it has K identical child subtrees.
    Zero-sum combinations of their level indicators vanish at w and span
    K-1 invariant copies of R_(d-1) + omega_x (see _patch_block_spectrum). What
    remains of the patch are its l+1 normalised level indicators, a chain
    with weights sqrt(K) and potential omega_x joined to x's parent with
    weight 1. The core is the vertices at depth > l (a BFS prefix) plus one
    such chain per depth-l root; it is solved by the self-checked eig_sym.
    """
    t, p = op.tiling
    K, l = t.K, p.l
    deep = int(np.count_nonzero(t.depth > l))
    roots = np.flatnonzero(t.depth == l)
    couplings = op.potential[roots]
    chain = deep + (l + 1) * np.arange(roots.size)[:, None] + np.arange(l + 1)
    size = deep + chain.size
    core = np.zeros((size, size))
    core[:deep, :deep] = op.adjacency[:deep, :deep].toarray()
    core[np.arange(deep), np.arange(deep)] = op.potential[:deep]
    core[chain, chain] = couplings[:, None]
    a, b = chain[:, :-1].ravel(), chain[:, 1:].ravel()
    core[a, b] = core[b, a] = np.sqrt(K)
    parents = t.parent[roots]
    linked = parents >= 0  # only a single-patch tree has a parentless root
    heads = chain[linked, 0]
    core[heads, parents[linked]] = core[parents[linked], heads] = 1.0
    core_values = eig_sym(core, cap=cap).eigenvalues
    return core_values, couplings[:, None] + _patch_block_spectrum(K, l)


def _check_power_sums(op: SiteOperator, w: np.ndarray) -> None:
    """The spectrum check of operator_spectrum, the same for every solve
    path. Raise CertificateError unless w has op.dimension values whose first
    two power sums equal tr H = sum(potential) and ||H||_F^2 =
    sum(adjacency entries^2) + sum(potential^2), the k-th within
    TOL_SCALE * n * op.norm_bound^k, n times the k-th power of the norm
    bound."""
    n = op.dimension
    if w.size != n:
        raise CertificateError(f"spectrum has {w.size} values, dimension {n}")
    data = op.adjacency.data
    expected = (op.potential.sum(), data @ data + op.potential @ op.potential)
    for k, target in enumerate(expected, start=1):
        deviation = abs(float(np.sum(w**k)) - float(target))
        tolerance = TOL_SCALE * n * op.norm_bound**k
        if not deviation <= tolerance:
            raise CertificateError(
                f"spectrum power sum {k} deviates by {deviation:.3e} "
                f"(tolerance {tolerance:.3e})"
            )


def residual_tolerance(op: SiteOperator, E: float) -> float:
    """Residual tolerance of a certificate of op built at energy E (the
    subtree or base-graph eigenvalue): TOL_SCALE * (1 + |E| + op.norm_bound)."""
    return TOL_SCALE * (1.0 + abs(E) + op.norm_bound)


def check_eigenvectors(matrix, vectors, E: float, error: type, what: str) -> np.ndarray:
    """The residuals max_i |(M v - E v)_i| of the given vectors (one vector,
    or a sequence of them) against a dense or CSR matrix M; raises error,
    naming what, when one exceeds EIGENVECTOR_TOL."""
    columns = np.asarray(vectors, dtype=float).reshape(-1, matrix.shape[0]).T
    residuals = np.abs(matrix @ columns - E * columns).max(axis=0, initial=0.0)
    worst = float(residuals.max(initial=0.0))
    if not worst <= EIGENVECTOR_TOL:
        raise error(
            f"{what} residual {worst:.3e} at E = {E} exceeds {EIGENVECTOR_TOL}"
        )
    return residuals


def cluster_multiplicities(eigenvalues, tau: float) -> list[tuple[float, int]]:
    """Greedy clustering of an ascending sequence: consecutive values within
    tau of the previous one join the current cluster."""
    if tau <= 0:
        raise InvalidArgumentError("cluster tolerance must be positive")
    vals = list(eigenvalues)
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise InvalidArgumentError("eigenvalues must be sorted ascending")
    clusters: list[tuple[float, int]] = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tau:
            chunk = vals[start:i]
            clusters.append((sum(chunk) / len(chunk), len(chunk)))
            start = i
    return clusters


@dataclass(frozen=True)
class AlphaBasis:
    """K-1 orthonormal zero-sum tuples over the K forward neighbors."""

    K: int
    rows: np.ndarray  # (K-1) x K

    def __post_init__(self):
        sums = np.abs(self.rows.sum(axis=1))
        gram = self.rows @ self.rows.T
        gram_dev = np.max(np.abs(gram - np.eye(self.K - 1)))
        if not (np.max(sums) <= ALPHA_SUM_TOL and gram_dev <= ALPHA_GRAM_TOL):
            raise CertificateError("alpha basis violates zero-sum/orthonormality")


@functools.lru_cache(maxsize=8)
def alpha_basis(K: int) -> AlphaBasis:
    """Helmert rows: row j has 1/sqrt(j(j+1)) at positions 0..j-1 and
    -j/sqrt(j(j+1)) at position j. Built and validated once per K; the rows
    are read-only."""
    if K < 2:
        raise InvalidArgumentError("alpha basis needs K >= 2")
    rows = np.zeros((K - 1, K))
    for j in range(1, K):
        c = 1.0 / np.sqrt(j * (j + 1))
        rows[j - 1, :j] = c
        rows[j - 1, j] = -j * c
    rows.flags.writeable = False
    return AlphaBasis(K, rows)


@functools.lru_cache(maxsize=8)
def _template_adjacency(K: int, depth: int) -> np.ndarray:
    """Read-only dense adjacency of the complete K-ary tree of the given
    depth (BFS indexing), built once per process. The tree is refused
    before it is densified when it exceeds the eig cap."""
    t = build_truncated_canopy(K, depth)
    require_eig_cap(t.vertex_count, DEFAULT_EIG_CAP)
    m = tree_adjacency(t).toarray()
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=8)
def subtree_eigenpairs(K: int, depth: int) -> EigenSystem:
    """Spectrum of the complete K-ary tree of the given depth (BFS indexing),
    solved once per process; the arrays are read-only."""
    es = eig_sym(_template_adjacency(K, depth))
    es.eigenvalues.flags.writeable = False
    es.eigenvectors.flags.writeable = False
    return es


@dataclass(frozen=True)
class EigenvectorCertificate:
    """A finitely-supported unit vector, its claimed eigenvalue, and the
    measured residual against the assembled operator."""

    vector: dict[int, float]
    eigenvalue: float
    support: tuple[int, ...]
    residual: float
    provenance: dict

    def dense(self, dimension: int) -> np.ndarray:
        v = np.zeros(dimension)
        for i, x in self.vector.items():
            v[i] = x
        return v


def _padded_rows(op: SiteOperator, rows: np.ndarray):
    """CSR storage positions of the given rows as a (len(rows), max degree)
    table, plus the mask of the positions that exist."""
    indptr = op.adjacency.indptr
    lo = indptr[rows]
    degree = indptr[rows + 1] - lo
    step = np.arange(degree.max(initial=0))
    live = step < degree[:, None]
    return np.where(live, lo[:, None] + step, 0), live


def support_residuals(
    op: SiteOperator, support: np.ndarray, values: np.ndarray, eigenvalue: float
) -> np.ndarray:
    """max_i |(H v - E v)_i| for each row v of values (one entry per support
    vertex), evaluated only on the rows support + N(support), outside which
    (H - E)v vanishes.

    Each row sum adds its products in CSR storage order, as scipy's CSR
    matvec does, so the result equals the dense residual bit for bit.
    """
    order = np.argsort(support)
    keys, vals = support[order], values[:, order]

    def at(vertices):  # v at the given vertices, 0 off the support
        pos = np.minimum(np.searchsorted(keys, vertices), keys.size - 1)
        return np.where(keys[pos] == vertices, vals[:, pos], 0.0)

    indices = op.adjacency.indices
    ptr, live = _padded_rows(op, support)
    rows = np.union1d(support, indices[ptr[live]])
    ptr, live = _padded_rows(op, rows)
    products = op.adjacency.data[ptr] * np.where(live, at(indices[ptr]), 0.0)
    acc = np.zeros(products.shape[:2])
    for k in range(products.shape[2]):
        acc += products[:, :, k]
    v = at(rows)
    residual = (acc + op.potential[rows] * v) - eigenvalue * v
    return np.abs(residual).max(axis=1, initial=0.0)


def _verify(
    op: SiteOperator,
    support: tuple[int, ...],
    values: np.ndarray,
    eigenvalue: float,
    tolerance: float,
    provenances: list[dict],
) -> list[EigenvectorCertificate]:
    """Check each row of values (a vector on support) for unit norm and for
    its residual against op at eigenvalue, in one support-local pass."""
    norms = np.linalg.norm(values, axis=1)
    residuals = support_residuals(op, np.array(support), values, eigenvalue)
    certs = []
    for row, norm, residual, provenance in zip(values, norms, residuals, provenances):
        if not abs(norm - 1.0) <= UNIT_NORM_TOL:
            raise CertificateError(f"certificate vector norm {norm} is not 1")
        if not residual <= tolerance:
            raise CertificateError(
                f"certificate residual {residual:.3e} exceeds tolerance "
                f"{tolerance:.3e} (claimed eigenvalue {eigenvalue})"
            )
        vector = {i: x for i, x in zip(support, row.tolist()) if x != 0.0}
        certs.append(
            EigenvectorCertificate(
                vector, eigenvalue, support, float(residual), provenance
            )
        )
    _check_gram(values)
    return certs


def canopy_certificates(
    t: TruncatedCanopy,
    p: PatchSet,
    r,
    x: int,
    E: float,
    psi: np.ndarray,
    operator: SiteOperator | None = None,
) -> list[EigenvectorCertificate]:
    """K-1 orthonormal certificates for the eigenvalue E + omega_x, built by
    spreading the depth-(l-1) subtree eigenvector psi over the forward
    neighbors of the patch root x with zero-sum weights.

    psi is indexed by the BFS order of the complete K-ary depth-(l-1) tree
    and must be a unit eigenvector of its adjacency matrix at E.

    The vectors are eigenvectors only when t.depth[x] == p.l, where the
    copies of psi end at the leaves. Below a deeper root the copies end just
    above the depth-l roots of the lower patches, and psi's nonzero leaf
    values leak into them, so the residual check raises CertificateError.
    """
    l = p.l
    if not (0 <= x < t.vertex_count and t.depth[x] % (l + 1) == l):
        raise InvalidArgumentError(f"vertex {x} is not a patch root")
    if l < 2:
        raise InvalidArgumentError("construction needs patch depth l >= 2")
    template_adjacency = _template_adjacency(t.K, l - 1)
    psi = np.asarray(psi, dtype=float)
    if psi.shape != template_adjacency.shape[:1]:
        raise InvalidArgumentError("psi has the wrong dimension")
    if not abs(np.linalg.norm(psi) - 1.0) <= UNIT_NORM_TOL:
        raise InvalidArgumentError("psi must be unit norm")
    check_eigenvectors(
        template_adjacency, psi, E, InvalidArgumentError, "psi on the subtree"
    )
    if operator is None:
        operator = assemble_canopy_operator(t, p, r)
    # canonical order-preserving isomorphism: BFS order to BFS order, one
    # copy of psi per forward neighbor, weighted by a zero-sum alpha row
    copies = [subtree(t, y, l - 1) for y in forward_neighbors(t, x)]
    support = tuple(v for copy in copies for v in copy)
    rows = alpha_basis(t.K).rows
    values = (rows[:, :, None] * psi).reshape(len(rows), -1)
    provenances = [
        {"construction": "canopy", "patch_root": x, "E": float(E), "alpha_index": a}
        for a in range(len(rows))
    ]
    return _verify(
        operator,
        support,
        values,
        E + r.values[x],
        residual_tolerance(operator, E),
        provenances,
    )


def cayley_certificates(
    cg: CayleyGraph,
    r,
    g: int,
    E0: float,
    psis,
    operator: SiteOperator | None = None,
) -> list[EigenvectorCertificate]:
    """One certificate per base-graph eigenvector psi_i at E0 vanishing on all
    anchors, each supported on the single fiber g and certifying E0 + omega_g."""
    if g in cg.boundary_fibers:
        raise InvalidArgumentError(f"fiber {g} is not interior")
    psis = np.asarray(psis, dtype=float).reshape(-1, cg.n_base)
    anchors = list(cg.template.anchor_vertices())
    bad = float(np.max(np.abs(psis[:, anchors]), initial=0.0))
    if not bad <= ANCHOR_VANISH_TOL:
        raise InvalidArgumentError(
            f"eigenvector does not vanish at an anchor (|value| = {bad:.3e})"
        )
    check_eigenvectors(
        cg.template.base_adjacency, psis, E0, InvalidArgumentError, "base eigenvector"
    )
    if operator is None:
        operator = assemble_cayley_operator(cg, r)
    if not len(psis):
        return []
    provenances = [
        {
            "construction": "cayley",
            "fiber": repr(cg.group.elements[g]),
            "E0": float(E0),
            "i": i,
        }
        for i in range(len(psis))
    ]
    return _verify(
        operator,
        tuple(cg.fiber_vertices(g)),
        psis,
        E0 + r.values[g],
        residual_tolerance(operator, E0),
        provenances,
    )


def _check_gram(values: np.ndarray):
    """Orthonormality of the rows of values, vectors on one shared support."""
    if len(values) < 2:
        return
    dev = float(np.max(np.abs(values @ values.T - np.eye(len(values)))))
    if not dev <= ORTHO_TOL:
        raise CertificateError(f"certificate Gram deviates from identity by {dev:.3e}")


def junction_kernel_basis(glued: GluedGraph, E0: float) -> list[np.ndarray]:
    """Orthonormal vectors on the glued graph that are exact E0-eigenvectors
    of its adjacency matrix and vanish at every junction.

    Picks one unit eigenvector psi_i at E0 per piece, solves the junction
    cancellation system sum_i alpha_i psi_i(v_{i,j}) = 0, and spreads each
    kernel element over the pieces.
    """
    spec = glued.spec
    pieces = spec.pieces
    # every piece is solved densely; check them all before densifying any
    require_eig_cap(max(piece.vertex_count for piece in pieces), DEFAULT_EIG_CAP)
    piece_vecs = []
    for i, piece in enumerate(pieces):
        es = eig_sym(adjacency_matrix(piece))
        hits = np.where(np.abs(es.eigenvalues - E0) <= PIECE_EIG_TOL)[0]
        if hits.size == 0:
            raise InvalidArgumentError(
                f"piece {i} has no eigenvalue within {PIECE_EIG_TOL} of E0 = {E0}"
            )
        piece_vecs.append(es.eigenvectors[:, hits[0]])
    # M[j, i] = psi_i(v_{i,j})
    M = np.array([psi[list(a)] for a, psi in zip(spec.attach_points, piece_vecs)]).T
    # kernel via SVD with a rank tolerance tied to the matrix scale
    _, s, vt = np.linalg.svd(M)
    tol = RANK_TOL * max(1.0, float(np.max(np.abs(M))))
    rank = int(np.sum(s > tol))
    alphas = vt[rank:]  # rows: orthonormal alpha tuples
    vectors = np.zeros((len(alphas), glued.graph.vertex_count))
    for i, psi in enumerate(piece_vecs):
        vectors[:, list(glued.piece_vertices(i))] = np.outer(alphas[:, i], psi)
    adjacency = adjacency_sparse(glued.graph)
    check_eigenvectors(adjacency, vectors, E0, CertificateError, "kernel vector")
    if np.any(vectors[:, list(glued.junctions)]):
        raise CertificateError("kernel vector is nonzero at a junction")
    return list(vectors)
