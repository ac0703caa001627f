"""Dense symmetric eigensolving, multiplicity clustering, and the explicit
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
assembled operator (not the construction shortcut) against the vector.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .anderson import SiteOperator, assemble_canopy_operator, assemble_cayley_operator
from .canopy import (
    DEFAULT_VERTEX_CAP,
    PatchSet,
    TruncatedCanopy,
    build_truncated_canopy,
    subtree,
)
from .cayley import CayleyGraph
from .errors import CertificateError, InvalidArgumentError, TooLargeError
from .graph_core import GluedGraph, adjacency_matrix

DEFAULT_EIG_CAP = 5_000
ORTHO_TOL = 1e-10
PSI_RESIDUAL_TOL = 1e-10
ANCHOR_VANISH_TOL = 1e-12


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
    bound = 1e-9 * (1.0 + max_entry * M.shape[0])
    if residual > bound:
        raise CertificateError(
            f"eigensolver residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    if M.size:
        gram_dev = float(np.max(np.abs(v.T @ v - np.eye(M.shape[0]))))
        if gram_dev > 1e-10:
            raise CertificateError(f"eigenvectors not orthonormal ({gram_dev:.3e})")
    return EigenSystem(w, v, residual)


def operator_spectrum(op: SiteOperator, cap: int = DEFAULT_EIG_CAP) -> np.ndarray:
    """Ascending eigenvalues of op, read-only. The cap is checked before op
    is densified; the first call runs the self-checked eig_sym and caches
    the eigenvalues on op, which is immutable after assembly."""
    require_eig_cap(op.dimension, cap)
    if op._eigenvalues is None:
        w = eig_sym(op.to_dense(), cap=cap).eigenvalues
        w.flags.writeable = False
        op._eigenvalues = w
    return op._eigenvalues


def canopy_tolerance(E: float, K: int, max_abs: float) -> float:
    """Residual tolerance of a canopy certificate at subtree energy E:
    1e-9 * (1 + |E| + the operator-norm bound K + 1 + max|omega|)."""
    return 1e-9 * (1.0 + abs(E) + K + 1 + max_abs)


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
        if np.max(sums) > 1e-14 or np.max(np.abs(gram - np.eye(self.K - 1))) > 1e-13:
            raise CertificateError("alpha basis violates zero-sum/orthonormality")


def alpha_basis(K: int) -> AlphaBasis:
    """Helmert rows: row j has 1/sqrt(j(j+1)) at positions 0..j-1 and
    -j/sqrt(j(j+1)) at position j."""
    if K < 2:
        raise InvalidArgumentError("alpha basis needs K >= 2")
    rows = np.zeros((K - 1, K))
    for j in range(1, K):
        c = 1.0 / np.sqrt(j * (j + 1))
        rows[j - 1, :j] = c
        rows[j - 1, j] = -j * c
    return AlphaBasis(K, rows)


@functools.lru_cache(maxsize=8)
def _template_adjacency(
    K: int, depth: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> np.ndarray:
    """Read-only dense adjacency of the complete K-ary tree of the given
    depth (BFS indexing), built once per process."""
    m = adjacency_matrix(build_truncated_canopy(K, depth, vertex_cap=vertex_cap).graph)
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=8)
def subtree_eigenpairs(K: int, depth: int, cap: int = DEFAULT_EIG_CAP) -> EigenSystem:
    """Spectrum of the complete K-ary tree of the given depth (BFS indexing),
    solved once per process; the arrays are read-only."""
    es = eig_sym(_template_adjacency(K, depth, cap), cap=cap)
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "eigenvalue": self.eigenvalue,
                "residual": self.residual,
                "support": list(self.support),
                "provenance": self.provenance,
                "vector": [[i, x] for i, x in sorted(self.vector.items())],
            }
        )


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
        if abs(norm - 1.0) > 1e-12:
            raise CertificateError(f"certificate vector norm {norm} is not 1")
        if residual > tolerance:
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
    """
    if x not in p.roots:
        raise InvalidArgumentError(f"vertex {x} is not a patch root")
    l = p.l
    if l < 2:
        raise InvalidArgumentError("construction needs patch depth l >= 2")
    template_adjacency = _template_adjacency(t.K, l - 1)
    psi = np.asarray(psi, dtype=float)
    if psi.shape != template_adjacency.shape[:1]:
        raise InvalidArgumentError("psi has the wrong dimension")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
        raise InvalidArgumentError("psi must be unit norm")
    psi_res = float(np.max(np.abs(template_adjacency @ psi - E * psi)))
    if psi_res > PSI_RESIDUAL_TOL:
        raise InvalidArgumentError(
            f"psi residual {psi_res:.3e} against the subtree adjacency"
        )
    if operator is None:
        operator = assemble_canopy_operator(t, p, r)
    # canonical order-preserving isomorphism: BFS order to BFS order, one
    # copy of psi per forward neighbor, weighted by a zero-sum alpha row
    copies = [subtree(t, y, l - 1) for y in t.children[x]]
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
        canopy_tolerance(E, t.K, r.max_abs()),
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
    base_adj = adjacency_matrix(cg.template.base)
    anchors = cg.template.anchor_vertices()
    psis = [np.asarray(psi, dtype=float) for psi in psis]
    for psi in psis:
        bad = max(abs(psi[a]) for a in anchors)
        if bad > ANCHOR_VANISH_TOL:
            raise InvalidArgumentError(
                f"eigenvector does not vanish at an anchor (|value| = {bad:.3e})"
            )
        res = float(np.max(np.abs(base_adj @ psi - E0 * psi)))
        if res > PSI_RESIDUAL_TOL:
            raise InvalidArgumentError(
                f"base eigenvector residual {res:.3e} at E0 = {E0}"
            )
    if operator is None:
        operator = assemble_cayley_operator(cg, r)
    if not psis:
        return []
    # the adjacency has no self-loops, so a row's stored entries are its degree
    max_deg = int(np.diff(operator.adjacency.indptr).max(initial=0))
    tolerance = 1e-9 * (1.0 + abs(E0) + max_deg + r.max_abs())
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
        np.stack(psis),
        E0 + r.values[g],
        tolerance,
        provenances,
    )


def _check_gram(values: np.ndarray):
    """Orthonormality of the rows of values, vectors on one shared support."""
    if len(values) < 2:
        return
    dev = float(np.max(np.abs(values @ values.T - np.eye(len(values)))))
    if dev > ORTHO_TOL:
        raise CertificateError(f"certificate Gram deviates from identity by {dev:.3e}")


def junction_kernel_basis(
    glued: GluedGraph, E0: float, eig_tol: float = 1e-8
) -> list[np.ndarray]:
    """Orthonormal vectors on the glued graph that are exact E0-eigenvectors
    of its adjacency matrix and vanish at every junction.

    Picks one unit eigenvector psi_i at E0 per piece, solves the junction
    cancellation system sum_i alpha_i psi_i(v_{i,j}) = 0, and spreads each
    kernel element over the pieces.
    """
    spec = glued.spec
    m = spec.junction_count
    pieces = spec.pieces
    piece_vecs = []
    for i, piece in enumerate(pieces):
        es = eig_sym(adjacency_matrix(piece))
        hits = np.where(np.abs(es.eigenvalues - E0) <= eig_tol)[0]
        if hits.size == 0:
            raise InvalidArgumentError(
                f"piece {i} has no eigenvalue within {eig_tol} of E0 = {E0}"
            )
        piece_vecs.append(es.eigenvectors[:, hits[0]])
    M = np.zeros((m, len(pieces)))
    for i, (attach, psi) in enumerate(zip(spec.attach_points, piece_vecs)):
        for j, v in enumerate(attach):
            M[j, i] = psi[v]
    # kernel via SVD with a rank tolerance tied to the matrix scale
    _, s, vt = np.linalg.svd(M)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(M))))
    rank = int(np.sum(s > tol))
    kernel = vt[rank:].T  # columns: orthonormal alpha tuples
    n = glued.graph.vertex_count
    adj = adjacency_matrix(glued.graph)
    out = []
    for k in range(kernel.shape[1]):
        alpha = kernel[:, k]
        vec = np.zeros(n)
        for i, psi in enumerate(piece_vecs):
            vec[list(glued.piece_vertices(i))] = alpha[i] * psi
        res = float(np.max(np.abs(adj @ vec - E0 * vec)))
        if res > 1e-10:
            raise CertificateError(
                f"kernel vector residual {res:.3e} exceeds 1e-10"
            )
        if any(vec[j] != 0.0 for j in glued.junctions):
            raise CertificateError("kernel vector is nonzero at a junction")
        out.append(vec)
    return out
