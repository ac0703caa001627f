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

The canopy and Cayley constructions issue many families in one call (all
patch roots times all subtree eigenpairs, or all interior fibers), and a
single pair is the one-family case of the same path. Each psi is checked
once, norms and Gram deviations once per psi, and support_residuals takes
the residuals of a stack of supports in one support-local pass, equal bit
for bit to the dense H v - E v of each. canopy_families and cayley_families
stop at these arrays, which the CLI reports read, and the certificates are
built from them.

operator_spectrum solves each canopy operator once, on its symmetry-reduced
core, the vertices above depth l plus an (l+1)-vertex level chain per
depth-l patch root (213 instead of 1,365 vertices for K=4, L=5, l=2; 94
instead of 364 for K=3, L=5; 364 instead of 3,280 for K=3, L=7, l=3), plus
closed-form (K-1)-fold patch blocks. The eig cap still bounds the full
dimension, so K=3, L=8 is refused although its core has 2,551 vertices. The
core is a tree: eigvalsh solves it without vectors, its inertia counts
enclose each value within eig_sym's residual bound, and the merged values
must match the operator's dimension, trace and Frobenius norm. counts_below
counts below given shifts on the same tree and solves nothing; given a
stack of potentials on the tree, it counts every realization in one stacked
elimination, with each one's checks. eig_sym, which self-checks its
eigenvectors, serves the solves whose vectors are used.

A Cayley operator's spectrum is never solved: cayley_window_counts counts
its eigenvalues in windows by inertia, #{lambda < s} = neg(H - s), on the
anchor Schur complement (Haynsworth), under the same eig cap, eliminated
level by level in the BFS spheres of the fibers, where it is
block-tridiagonal. The operator must be fibered over its Cayley graph, and
counts_below checks that every count brackets 0 and n and grows with the
shift.
"""

from __future__ import annotations

import functools
import math
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
RESIDUAL_BLOCK = 2_048  # support entries per support_residuals pass, to bound memory
SCHUR_BLOCK_BYTES = 2 << 20  # shifts per inertia count pass, to bound memory
PIVOT_TOL = 1e-6  # eliminating a pivot d scales rounding by |coupling|^2 / |d|


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
    bound = _solver_bound(M)
    if not residual <= bound:
        raise CertificateError(
            f"eigensolver residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    if M.size:
        gram_dev = float(np.max(np.abs(v.T @ v - np.eye(M.shape[0]))))
        if not gram_dev <= ORTHO_TOL:
            raise CertificateError(f"eigenvectors not orthonormal ({gram_dev:.3e})")
    return EigenSystem(w, v, residual)


def _solver_bound(M: np.ndarray) -> float:
    """How far an eig_sym residual or a _canopy_blocks core value may stray."""
    return TOL_SCALE * (1.0 + float(np.max(np.abs(M), initial=0.0)) * M.shape[0])


def operator_spectrum(op: SiteOperator, cap: int = DEFAULT_EIG_CAP) -> np.ndarray:
    """Ascending eigenvalues of a canopy operator (op.tiling set), read-only.
    The cap is checked on op.dimension before anything is densified or
    solved; the first call solves the symmetry-reduced core plus the
    closed-form patch blocks (see _canopy_blocks) and caches the spectrum on
    op, which is immutable after assembly, once the values reproduce the
    dimension, trace and Frobenius norm of the assembled operator. An
    operator without a tiling raises InvalidArgumentError: count a Cayley
    operator's eigenvalues with cayley_window_counts."""
    require_eig_cap(op.dimension, cap)
    if op.tiling is None:
        raise InvalidArgumentError(
            "operator_spectrum needs a canopy operator; count a Cayley "
            "operator's eigenvalues with cayley_window_counts"
        )
    if op._eigenvalues is None:
        core, local = _canopy_blocks(op)
        w = np.sort(np.concatenate([core, local.ravel()]))
        _check_power_sums(op, w)
        w.flags.writeable = False
        op._eigenvalues = w
    return op._eigenvalues


def cayley_window_counts(
    cg: CayleyGraph, op: SiteOperator, targets, tau: float, cap: int = DEFAULT_EIG_CAP
) -> np.ndarray:
    """#{eigenvalues lambda of op : |lambda - t| < tau} for each target t: the
    count below t + tau minus the count below the float after t - tau, both
    by counts_below on op fibered over cg."""
    targets = np.asarray(targets, dtype=float).reshape(-1)
    shifts = np.concatenate([targets + tau, np.nextafter(targets - tau, np.inf)])
    below = counts_below(op, shifts, cap, cg)
    return below[: targets.size] - below[targets.size :]


def counts_below(op, shifts, cap: int = DEFAULT_EIG_CAP, cg=None, potentials=None):
    """#{eigenvalues lambda of op : lambda < s} for each shift s, by inertia
    on the anchor Schur complement of op fibered over the Cayley graph cg
    (_counts_below), or else on the core tree of a canopy operator
    (_tree_counts_below); nothing is solved. potentials, a stack (R, n) on a
    canopy operator's tree, counts the R operators of op's adjacency and
    each potential instead, in one stacked elimination. The cap is checked
    on op.dimension first. Each operator's shifts -+(norm_bound + 1) must
    count 0 and n, and no count may fall as the shift grows; otherwise
    CertificateError."""
    require_eig_cap(op.dimension, cap)
    if cg is None and op.tiling is None or cg and potentials is not None:
        raise InvalidArgumentError("counts_below needs a canopy tiling or a Cayley graph")
    stack = op.potential[None] if potentials is None else np.asarray(potentials, float)
    brackets = op.adjacency_bound + np.abs(stack).max(axis=1, initial=0.0) + 1.0
    shifts = np.asarray(shifts, dtype=float).reshape(1, -1).repeat(len(stack), axis=0)
    shifts = np.column_stack([shifts, -brackets, brackets])
    if cg:
        below = _counts_below(cg, op, shifts[0])[None]
    else:
        below = _tree_counts_below(op, shifts, stack)[1]
    for row, s, bracket in zip(below, shifts, brackets.tolist()):
        if row[-2] != 0 or row[-1] != op.dimension:
            counts = f"inertia counts {row[-2]} and {row[-1]} at -+{bracket}"
            raise CertificateError(f"{counts}, not 0 and {op.dimension}")
        if np.any(np.diff(row[s.argsort(kind="stable")]) < 0):
            raise CertificateError("inertia counts decrease as the shift grows")
    return below[0, :-2] if potentials is None else below[:, :-2]


def _counts_below(cg: CayleyGraph, op: SiteOperator, shifts: np.ndarray) -> np.ndarray:
    """#{lambda < s} = neg(H - s) for each shift s (Sylvester), split by
    Haynsworth's additivity into neg(P - s), P the non-anchor block, plus
    neg(S(s)), S its anchor Schur complement. op must be fibered over cg,
    checked in O(nnz): symmetric, its non-anchor rows I_G (x) the base's, its
    potential omega constant on each fiber; otherwise CertificateError.

    In P's eigenbasis (cg.template.interior_modes) mode k of fiber h is a
    pivot d = mu_k + omega_h - s, coupled to the anchors of h only, by row c
    of Q^T A_IA. A pivot with |d| >= PIVOT_TOL counts 1 if d < 0 and adds
    -c c^T / d to S; a smaller one stays in S as its own row.

    S is block-tridiagonal in the BFS spheres of the fibers (_sphere_levels),
    and neg(S) sums the inertias of its block LDL^T pivots. Level j's block
    D_j, with the kept rows of its fibers and the rows carried into it, is
    diagonalised by a batched eigh. A direction (lambda, w), w its coupling
    to level j+1, counts 1 if lambda < 0 and adds -w w^T / lambda to D_(j+1),
    unless |lambda| < PIVOT_TOL * min(1, |w|^2), when it is carried into
    D_(j+1), undivided, as its own row. The last level is counted by
    eigvalsh. Rows with diagonal 1 pad each D_j of a pass to one size, and a
    pass stacks as many shifts as keep its pivot arrays and its widest level
    within SCHUR_BLOCK_BYTES."""
    interior, mu, coupling = cg.template.interior_modes
    fibers, nb = cg.group.size, cg.n_base
    first = nb * np.arange(fibers)[:, None]
    inner = sp.kron(sp.identity(fibers), cg.template.base_adjacency[interior], "csr")
    adjacency, omega = op.adjacency, op.potential[::nb]
    if (
        op.dimension != fibers * nb
        or (adjacency != adjacency.T).nnz
        or (adjacency[(first + interior).ravel()] != inner).nnz
        or np.any(op.potential != np.repeat(omega, nb))
    ):
        raise CertificateError("operator is not fibered over the Cayley graph")
    anchors = (first + cg.template.anchor_vertices()).ravel()
    modes, links = coupling.shape
    base = (adjacency[anchors][:, anchors] + sp.diags(op.potential[anchors])).tocsr()
    levels = _sphere_levels(base, links)
    place, level_of = np.empty(fibers, dtype=np.intp), np.empty(fibers, dtype=np.intp)
    for j, level in enumerate(levels):
        place[level], level_of[level] = links * np.arange(level.size), j
    order = (np.concatenate(levels)[:, None] * links + np.arange(links)).ravel()
    base, ends = base[order][:, order], np.cumsum([links * f.size for f in levels])
    # each level's rows of S: its own block, then its coupling to the next level
    blocks = [base[e - links * f.size : e, e - links * f.size : stop].toarray()
              for f, e, stop in zip(levels, ends, np.append(ends[1:], ends[-1]))]
    outer = (coupling[:, :, None] * coupling[:, None, :]).reshape(modes, -1)
    width = links * max(f.size for f in levels)
    step = max(1, SCHUR_BLOCK_BYTES // (8 * max(fibers * max(modes, links**2), width**2)))
    below = np.empty(shifts.size, dtype=np.intp)
    for lo in range(0, shifts.size, step):
        s = shifts[lo : lo + step]
        d = mu[:, None] + omega - s[:, None, None]  # (shift, mode, fiber)
        kept = np.abs(d) < PIVOT_TOL
        count = np.count_nonzero((d < 0) & ~kept, axis=(1, 2))
        kept_at, k, h = np.nonzero(kept)  # kept pivots: rows of S in the level of h
        kept_d, kept_c = d[kept_at, k, h], np.zeros((kept_at.size, width))
        np.put_along_axis(kept_c, place[h, None] + np.arange(links), coupling[k], 1)
        d[kept] = np.inf  # 1 / d is 0 at a kept pivot, which is not eliminated
        inverse = np.reciprocal(d, out=d).transpose(0, 2, 1)  # (shift, fiber, mode)
        corrections = (inverse @ outer).reshape(-1, fibers, links, links)
        del d, inverse, kept  # freed before the level stacks, which share the budget
        lam, w, update = np.zeros((s.size, 0)), np.zeros((s.size, 0, width)), 0.0
        carried = lam != 0  # nothing is carried into level 0
        for j, (level, block) in enumerate(zip(levels, blocks)):
            a, (ca, cj), here = block.shape[0], np.nonzero(carried), level_of[h] == j
            at = np.concatenate([kept_at[here], ca])
            by_shift = np.argsort(at, kind="stable")
            at = at[by_shift]
            value = np.concatenate([kept_d[here], lam[ca, cj]])[by_shift]
            joined = np.concatenate([kept_c[here, :a], w[ca, cj, :a]])[by_shift]
            used = a + np.bincount(at, minlength=s.size)
            diag = np.arange(used.max())
            D = np.zeros((s.size, diag.size, diag.size))
            D[:, :a, :a] = block[:, :a] - update
            D[:, diag, diag] += np.where(diag < a, -s[:, None], diag >= used[:, None])
            loc = np.arange(a).reshape(-1, links)
            D[:, loc[:, :, None], loc[:, None, :]] -= corrections[:, level]
            row = a + np.arange(at.size) - at.searchsorted(at)
            D[at, row, row] = value
            D[at, row, :a] = D[at, :a, row] = joined
            if j == len(levels) - 1:
                count += np.count_nonzero(np.linalg.eigvalsh(D) < 0, axis=1)
                break
            lam, vectors = np.linalg.eigh(D)
            w = vectors[:, :a].transpose(0, 2, 1) @ block[:, a:]  # to the next level
            w2 = np.einsum("sij,sij->si", w, w)
            carried = np.abs(lam) / PIVOT_TOL < np.minimum(1.0, w2)
            eliminated = ~carried & (lam != 0)
            count += np.count_nonzero(eliminated & (lam < 0), axis=1)
            inverse = np.divide(1.0, lam, out=np.zeros_like(lam), where=eliminated)
            update = (w.transpose(0, 2, 1) * inverse[:, None]) @ w
        below[lo : lo + step] = count
    return below


def _sphere_levels(anchor_block: sp.csr_matrix, links: int) -> list[np.ndarray]:
    """The fibers by BFS sphere from fiber 0, and from the first fiber not
    yet reached for each further component, in the graph that joins two
    fibers when the anchor block (links rows per fiber) has an entry between
    them. Entries then join only the same or adjacent spheres."""
    graph, fibers = abs(anchor_block), anchor_block.shape[0] // links
    seen, frontier, levels = np.zeros(fibers, dtype=bool), np.arange(fibers) == 0, []
    while frontier.any():
        seen |= frontier
        levels.append(np.flatnonzero(frontier))
        frontier = (graph @ frontier.repeat(links)).reshape(-1, links).any(1) & ~seen
        if not frontier.any():  # a new component, or none when all are seen
            frontier[np.argmin(seen)] = not seen.all()
    return levels


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


def _canopy_blocks(op: SiteOperator) -> tuple[np.ndarray, np.ndarray]:
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
    such chain per depth-l root, a tree. eigvalsh solves it, and its inertia
    counts must enclose each value w_i within delta = _solver_bound(core):
    #{lambda < w_i - delta} <= i < #{lambda < w_i + delta}; otherwise
    CertificateError.
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
    values, delta = np.linalg.eigvalsh(core), _solver_bound(core)
    shifts = np.concatenate([values - delta, values + delta])[None]
    below = _tree_counts_below(op, shifts, op.potential[None])[0, 0]
    index = np.arange(size)
    if not (np.all(below[:size] <= index) and np.all(below[size:] > index)):
        raise CertificateError(f"core eigenvalues not enclosed within {delta:.3e}")
    return values, couplings[:, None] + _patch_block_spectrum(K, l)


def _tree_counts_below(op: SiteOperator, shifts: np.ndarray, potentials) -> np.ndarray:
    """#{lambda < s} for each shift s = shifts[i, j], of the core of
    _canopy_blocks (row 0) and of the canopy operator (row 1) of op's tree
    with the potential potentials[i]: by Sylvester's law, the negative
    pivots a(v) = H_vv - s - sum of w_c^2 / a(c) over v's children c of a
    leaf-to-root elimination of the core tree, which makes no fill-in. A
    vertex with an exactly zero child pivot takes a negative pivot and passes
    nothing up (G. Jacobs, V. Trevisan, Linear Algebra Appl. 434 (2011)
    81-88): a(v) = -inf. The chains go from level l (their leaves) to 0, then
    the deep BFS prefix level by level, K children per vertex in order. A
    patch block R_(d-1) + omega_x is the bottom d levels of x's chain, so a
    chain pivot at level j counts K^j times in op. The (potential, shift)
    pairs of all rows stack into one elimination, and a pass takes as many
    as keep one level's pivots within SCHUR_BLOCK_BYTES, splitting a row
    where the budget ends."""
    t, p = op.tiling
    K, l = t.K, p.l
    diagonals = [potentials[:, t.depth == d] for d in range(l, t.L + 1)]  # BFS order
    realization, column = np.divmod(np.arange(shifts.size), shifts.shape[1])
    counts = np.zeros((2, shifts.size), dtype=np.intp)
    step = max(1, SCHUR_BLOCK_BYTES // (8 * diagonals[0].shape[1]))
    for lo in range(0, shifts.size, step):
        at = realization[lo : lo + step]
        sigma = shifts[at, column[lo : lo + step], None]
        omega, *deep = (diagonal[at] for diagonal in diagonals)
        levels = [(omega, K, K**j) for j in range(l, -1, -1)]  # (diagonal, w^2, copies)
        levels += [(diagonal, 1.0, 1) for diagonal in deep]
        pivots = np.full(omega.shape, np.inf)  # the leaves have no children
        for diagonal, weight, copies in levels:
            children = pivots.reshape(at.size, diagonal.shape[1], -1)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                pivots = diagonal - sigma - weight * np.reciprocal(children).sum(axis=2)
            pivots[(children == 0).any(axis=2)] = -np.inf
            negative = np.count_nonzero(pivots < 0, axis=1)
            counts[:, lo : lo + step] += np.outer([1, copies], negative)
    return counts.reshape((2, *shifts.shape))


def _check_power_sums(op: SiteOperator, w: np.ndarray) -> None:
    """The spectrum check of operator_spectrum. Raise CertificateError
    unless w has op.dimension values whose first two power sums equal
    tr H = sum(potential) and ||H||_F^2 = sum(adjacency entries^2) +
    sum(potential^2), the k-th within TOL_SCALE * n * op.norm_bound^k, n
    times the k-th power of the norm bound."""
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


@functools.lru_cache(maxsize=64)
def _check_subtree_eigenvector(K: int, depth: int, E: float, psi: bytes) -> None:
    """Raise InvalidArgumentError unless psi, the float64 bytes of a vector
    on the complete K-ary tree of the given depth, is a unit eigenvector of
    its adjacency at E. Passing pairs are remembered: canopy_certificates
    meets the same few eigenpairs at every patch root."""
    vector = np.frombuffer(psi)
    if not abs(np.linalg.norm(vector) - 1.0) <= UNIT_NORM_TOL:
        raise InvalidArgumentError("psi must be unit norm")
    adjacency = _template_adjacency(K, depth)
    check_eigenvectors(adjacency, vector, E, InvalidArgumentError, "psi on the subtree")


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


def support_residuals(
    op: SiteOperator, support: np.ndarray, values: np.ndarray, eigenvalue
) -> np.ndarray:
    """max_i |(H v - E v)_i| for each vector v, shape (..., k): a stack of
    supports (..., s), k vectors per support with one entry per support
    vertex (..., k, s) and one E per support (...). A single support (s,)
    with vectors (k, s) and a scalar E is the empty stack.

    Keyed family * n + vertex, one sort gives the rows support + N(support)
    of every family, outside which (H - E)v vanishes. Each row sum adds its
    products in CSR storage order, as scipy's CSR matvec does, so every
    result equals the dense residual bit for bit.
    """
    n, indices = op.dimension, op.adjacency.indices
    support, values = np.asarray(support), np.asarray(values, dtype=float)
    lead, (k, s) = support.shape[:-1], values.shape[-2:]
    families = math.prod(lead)
    if not (s and families):
        return np.zeros(lead + (k,))
    first = np.arange(0, families * n, n)  # the key of each family's vertex 0
    keys = (support.reshape(families, s) + first[:, None]).ravel()
    order = keys.argsort()
    keys = keys[order]
    vals = values.reshape(families, k, s).transpose(1, 0, 2).reshape(k, keys.size)
    vals = vals[:, order]

    def at(query):  # v at the given keys, 0 off the supports
        pos = np.minimum(keys.searchsorted(query), keys.size - 1)
        return np.where(keys[pos] == query, vals[:, pos], 0.0)

    def padded(rows):  # the keys of each row's CSR entries, in storage order
        vertex = rows % n
        ptr = op.padded_rows[vertex]
        return (rows - vertex)[:, None] + indices[ptr], ptr, vertex

    adjacent, ptr, _ = padded(keys)
    rows = np.concatenate([keys, adjacent[ptr >= 0]])
    rows.sort()  # deduplicated below: np.union1d's overhead dominates a small family
    rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
    adjacent, ptr, vertex = padded(rows)
    products = op.adjacency.data[ptr] * np.where(ptr >= 0, at(adjacent), 0.0)
    acc = np.zeros(products.shape[:2])
    for j in range(products.shape[2]):
        acc += products[:, :, j]
    v = at(rows)
    energy = np.asarray(eigenvalue, dtype=float).reshape(-1)[rows // n]
    residual = np.abs((acc + op.potential[vertex] * v) - energy * v)
    starts = rows.searchsorted(first)
    return np.maximum.reduceat(residual, starts, axis=1).T.reshape(lead + (k,))


@dataclass(frozen=True)
class CertificateFamilies:
    """Family f = (i, j), row-major, puts the k rows of values[j] on the
    vertices supports[i] to claim claims[i, j], described by provenance(i,
    j, row); residuals[f] are its k residuals against the assembled operator
    and rejections[f] its CertificateError of _rejection, or None."""

    supports: list
    values: np.ndarray  # (m, k, s)
    claims: np.ndarray  # (len(supports), m)
    provenance: object
    residuals: np.ndarray  # (families, k)
    rejections: list


def _issue(op, supports, values, claims, energies, provenance) -> CertificateFamilies:
    """The families of the k rows of values[j], shape (m, k, s), on the
    vertices supports[i], claiming claims[i, j] within the residual
    tolerance of energies[j]. Norms and Gram deviations are taken once per
    j, residuals in blocks of at most RESIDUAL_BLOCK support entries."""
    m, k, s = values.shape
    families = len(supports) * m
    support_rows = np.array(supports, dtype=np.intp).reshape(-1, s)
    residuals = np.empty((families, k))
    step = max(1, RESIDUAL_BLOCK // max(s, 1))
    for lo in range(0, families, step):
        i, j = np.divmod(np.arange(lo, min(lo + step, families)), m)
        residuals[lo : lo + step] = support_residuals(
            op, support_rows[i], values[j], claims[i, j]
        )
    norms = np.sqrt((values * values).sum(axis=2)).tolist()
    gram = np.abs(values @ values.transpose(0, 2, 1) - np.eye(k))
    gram = gram.max(axis=(1, 2), initial=0.0).tolist()
    tolerances = [residual_tolerance(op, E) for E in energies.tolist()]
    flat = claims.ravel().tolist()
    rejections = [
        _rejection(norms[f % m], residual, tolerances[f % m], flat[f], gram[f % m])
        for f, residual in enumerate(residuals.tolist())
    ]
    return CertificateFamilies(supports, values, claims, provenance, residuals, rejections)


def _certificates(families: CertificateFamilies, single: bool) -> list:
    """Family by family, the certificates of families, each listing its
    nonzero entries, or the CertificateError that rejects it; with single,
    the one family's certificates, or its CertificateError raised."""
    m, k, _ = families.values.shape
    values, claims = families.values.tolist(), families.claims.tolist()
    residuals = families.residuals.tolist()
    outcomes = []
    for f, error in enumerate(families.rejections):
        i, j = divmod(f, m)
        support = families.supports[i]
        outcomes.append(error or [
            EigenvectorCertificate(
                {v: x for v, x in zip(support, values[j][a]) if x != 0.0},
                claims[i][j], support, residuals[f][a], families.provenance(i, j, a)
            )
            for a in range(k)
        ])
    if single and isinstance(outcomes[0], CertificateError):
        raise outcomes[0]
    return outcomes[0] if single else outcomes


def _rejection(norms, residuals, tolerance, eigenvalue, dev):
    """The CertificateError of a family, None if it passes: the first vector
    whose norm is off 1 or, after that, whose residual is over tolerance;
    then a Gram matrix off the identity by dev."""
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


def canopy_certificates(
    t: TruncatedCanopy,
    p: PatchSet,
    r,
    x,
    E,
    psi: np.ndarray,
    operator: SiteOperator | None = None,
) -> list:
    """K-1 orthonormal certificates for the eigenvalue E + omega_x, built by
    spreading the depth-(l-1) subtree eigenvector psi over the forward
    neighbors of the patch root x with zero-sum weights.

    psi is indexed by the BFS order of the complete K-ary depth-(l-1) tree
    and must be a unit eigenvector of its adjacency matrix at E.

    The vectors are eigenvectors only when t.depth[x] == p.l, where the
    copies of psi end at the leaves. Below a deeper root the copies end just
    above the depth-l roots of the lower patches, and psi's nonzero leaf
    values leak into them, so the residual check raises CertificateError.

    With a sequence of roots x, m eigenvalues E and psi the matrix of their
    eigenvectors as columns, every (root, eigenpair) family is issued in one
    pass; the result holds, root by root and eigenpair by eigenpair, each
    family's certificates or the CertificateError that rejects it. The
    certificates are built from canopy_families.
    """
    return _certificates(canopy_families(t, p, r, x, E, psi, operator), np.ndim(x) == 0)


def canopy_families(t, p, r, x, E, psi, operator=None) -> CertificateFamilies:
    """canopy_certificates' families, with no certificate object built."""
    l = p.l
    roots = np.asarray(x, dtype=np.intp).reshape(-1)
    outside = p.patch_of.take(roots, mode="clip") != roots  # a root is its own patch
    if outside.any():
        raise InvalidArgumentError(f"vertex {roots[outside][0]} is not a patch root")
    if l < 2:
        raise InvalidArgumentError("construction needs patch depth l >= 2")
    energies = np.asarray(E, dtype=float).reshape(-1)
    psi = np.asarray(psi, dtype=float)
    psi = psi[:, None] if psi.ndim == 1 else psi
    if psi.shape != (_template_adjacency(t.K, l - 1).shape[0], energies.size):
        raise InvalidArgumentError("psi has the wrong dimension")
    for E_j, column in zip(energies.tolist(), psi.T):
        _check_subtree_eigenvector(t.K, l - 1, E_j, column.tobytes())
    if operator is None:
        operator = assemble_canopy_operator(t, p, r)
    # canonical order-preserving isomorphism: BFS order to BFS order, one
    # copy of psi per forward neighbor, weighted by a zero-sum alpha row
    roots, energy_list = roots.tolist(), energies.tolist()
    supports = [
        sum((subtree(t, y, l - 1) for y in forward_neighbors(t, x)), ()) for x in roots
    ]
    rows = alpha_basis(t.K).rows
    spread = rows[:, :, None] * psi.T[:, None, None]  # (m, K-1, K, subtree size)
    claims = energies + np.array([r.values[x] for x in roots])[:, None]

    def provenance(i, j, a):
        x, E = roots[i], energy_list[j]
        return {"construction": "canopy", "patch_root": x, "E": E, "alpha_index": a}

    values = spread.reshape(energies.size, len(rows), -1)
    return _issue(operator, supports, values, claims, energies, provenance)


def cayley_certificates(
    cg: CayleyGraph,
    r,
    g,
    E0: float,
    psis,
    operator: SiteOperator | None = None,
) -> list:
    """One certificate per base-graph eigenvector psi_i at E0 vanishing on all
    anchors, each supported on the single fiber g and certifying E0 + omega_g.
    With a sequence of fibers g, every fiber is issued in one pass; the result
    holds, fiber by fiber, its certificates or the CertificateError that
    rejects it. The certificates are built from cayley_families."""
    return _certificates(cayley_families(cg, r, g, E0, psis, operator), np.ndim(g) == 0)


def cayley_families(cg, r, g, E0, psis, operator=None) -> CertificateFamilies:
    """cayley_certificates' families, with no certificate object built."""
    fibers = np.asarray(g).reshape(-1).tolist()
    boundary = [f for f in fibers if f in cg.boundary_fibers]
    if boundary:
        raise InvalidArgumentError(f"fiber {boundary[0]} is not interior")
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
    supports = [tuple(cg.fiber_vertices(f)) for f in fibers]
    claims = E0 + np.array([r.values[f] for f in fibers]).reshape(-1, 1)

    def provenance(i, j, a):
        fiber = repr(cg.group.elements[fibers[i]])
        return {"construction": "cayley", "fiber": fiber, "E0": float(E0), "i": a}

    energies = np.array([E0], dtype=float)
    return _issue(operator, supports, psis[None], claims, energies, provenance)


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
