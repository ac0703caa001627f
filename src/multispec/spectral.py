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
check_eigenvectors against the cached subtree template or a CSR adjacency
(graph_core.CSRMatrix); only an eigensolve densifies a graph matrix.

The canopy and Cayley constructions issue many families in one call (all
patch roots times all subtree eigenpairs, or all interior fibers), and a
single pair is the one-family case of the same path. Each psi is checked
and spread, with norms and Gram deviations, once. Residual passes go per
support, across all eigenpairs: the K-1 spreads of every subtree
eigenvector below one patch root share its support, so each support is
laid out (sorted, gathered and indexed) once for the vectors of all its
families, and the operator keeps its last stack's layout for calls that
repeat a root; the support-local arithmetic equals the dense H v - E v of
each bit for bit. A pass takes as many supports as keep their gathered
products within SCHUR_BLOCK_BYTES, the bound of the inertia passes too: the
325 families of K=4, L=5, l=2 fit in one. One test of every family's worst
residual and every eigenpair's spreads passes a whole stack, and only the
families that fail it are walked for their message. canopy_families and
cayley_families stop at these arrays, which the CLI reports read, and the
certificates are built from them.

operator_spectrum solves each canopy operator once, on its core, the
operator's quotient by its level cells (each vertex above depth l, and the
vertices at each depth below each depth-l patch root: 213 cells instead of
1,365 vertices for K=4, L=5, l=2; 94 instead of 364 for K=3, L=5; 364
instead of 3,280 for K=3, L=7, l=3), plus closed-form (K-1)-fold patch
blocks. The eig cap still bounds the full dimension, so K=3, L=8 is refused
although its core has 2,551 cells. The core is a tree: eigvalsh solves it
without vectors, its inertia counts enclose each value within eig_sym's
residual bound, and the merged values must match the operator's dimension,
trace and Frobenius norm. counts_below counts below given shifts on the
same tree and solves nothing; given a stack of potentials on the tree, it
counts every realization in one stacked elimination, with each one's
checks, so dos solves no spectrum. Every chain of the core carries its
root's omega_x, so its pivots are one recurrence in omega_x - s. eig_sym,
which self-checks its eigenvectors, serves the solves whose vectors are
used.

window_counts is the one window of both families: it counts the eigenvalues
with fl(t - tau) < lambda < fl(t + tau), two counts #{lambda < s} apart, by
bisection of a canopy operator's cached spectrum, and for a Cayley operator,
whose spectrum is never solved, by inertia, neg(H - s), on the anchor Schur
complement (Haynsworth), under the same eig cap, eliminated level by level
in the BFS spheres of the fibers, where it is block-tridiagonal. Each level
forms its own fibers' pivots, so a pass is sized by the widest level, not by
the group: the CLI's window edges at cyclic:1000 fit in one pass, which
eliminates each level once. The operator must be fibered over its Cayley
graph, and counts_below checks that every count brackets 0 and n and grows
with the shift.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .anderson import SiteOperator, assemble_canopy_operator, assemble_cayley_operator
from .canopy import (
    PatchSet,
    TruncatedCanopy,
    build_truncated_canopy,
    subtree,
    tree_adjacency,
    tree_size,
)
from .cayley import CayleyGraph
from .errors import CertificateError, InvalidArgumentError, TooLargeError
from .graph_core import GluedGraph, adjacency_matrix, adjacency_sparse, integer_array

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
SCHUR_BLOCK_BYTES = 2 << 20  # the arrays of one inertia or residual pass, to bound memory
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
    dimension, trace and Frobenius norm of the assembled operator. Any
    other operator raises InvalidArgumentError: count a Cayley operator's
    eigenvalues with window_counts or counts_below."""
    require_eig_cap(op.dimension, cap)
    if not isinstance(op.tiling, tuple):
        raise InvalidArgumentError(
            "operator_spectrum needs a canopy operator; count a Cayley "
            "operator's eigenvalues with window_counts or counts_below"
        )
    if op._eigenvalues is None:
        core, local = _canopy_blocks(op)
        w = np.sort(np.concatenate([core, local.ravel()]))
        _check_power_sums(op, w)
        w.flags.writeable = False
        op._eigenvalues = w
    return op._eigenvalues


def window_counts(op, targets, tau: float, cap: int = DEFAULT_EIG_CAP):
    """#{eigenvalues lambda of op : fl(t - tau) < lambda < fl(t + tau)} for
    each target t, the count below t + tau minus the count below the float
    after t - tau, or 0 when rounding leaves the window empty: by
    counts_below on a Cayley operator (op.tiling its CayleyGraph), or else
    in the canopy operator's cached operator_spectrum."""
    targets = np.asarray(targets, dtype=float).reshape(-1)
    shifts = np.concatenate([targets + tau, np.nextafter(targets - tau, np.inf)])
    if isinstance(op.tiling, CayleyGraph):
        below = counts_below(op, shifts, cap)
    else:
        below = np.searchsorted(operator_spectrum(op, cap), shifts)
    return np.maximum(below[: targets.size] - below[targets.size :], 0)


def counts_below(op, shifts, cap: int = DEFAULT_EIG_CAP, potentials=None):
    """#{eigenvalues lambda of op : lambda < s} for each shift s, by inertia
    on the anchor Schur complement of a Cayley operator (_counts_below), or
    else on the core tree of a canopy operator (_tree_counts_below), as
    op.tiling says; nothing is solved. potentials, a stack (R, n) on a
    canopy operator's tree, counts the R operators of op's adjacency and
    each potential instead, in one stacked elimination. The cap is checked
    on op.dimension first. Each operator's shifts -+(norm_bound + 1) must
    count 0 and n, and no count may fall as the shift grows; otherwise
    CertificateError."""
    require_eig_cap(op.dimension, cap)
    cayley = isinstance(op.tiling, CayleyGraph)
    if op.tiling is None:
        raise InvalidArgumentError("counts_below needs a canopy tiling or a Cayley graph")
    if cayley and potentials is not None:
        raise InvalidArgumentError("stacked potentials are canopy-only, not for a Cayley operator")
    stack = op.potential[None] if potentials is None else np.asarray(potentials, float)
    if stack.ndim != 2 or stack.shape[1] != op.dimension:
        raise InvalidArgumentError(f"potentials need shape (R, {op.dimension}), not {stack.shape}")
    brackets = op.adjacency_bound + np.abs(stack).max(axis=1, initial=0.0) + 1.0
    shifts = np.asarray(shifts, dtype=float).reshape(1, -1).repeat(len(stack), axis=0)
    shifts = np.column_stack([shifts, -brackets, brackets])
    if cayley:
        below = _counts_below(op, shifts[0])[None]
    else:
        below = _tree_counts_below(op, shifts, stack)[1]
    for row, s, bracket in zip(below, shifts, brackets.tolist()):
        if row[-2] != 0 or row[-1] != op.dimension:
            counts = f"inertia counts {row[-2]} and {row[-1]} at -+{bracket}"
            raise CertificateError(f"{counts}, not 0 and {op.dimension}")
        if np.any(np.diff(row[s.argsort(kind="stable")]) < 0):
            raise CertificateError("inertia counts decrease as the shift grows")
    return below[0, :-2] if potentials is None else below[:, :-2]


def _counts_below(op: SiteOperator, shifts: np.ndarray) -> np.ndarray:
    """#{lambda < s} = neg(H - s) for each shift s (Sylvester), split by
    Haynsworth's additivity into neg(P - s), P the non-anchor block, plus
    neg(S(s)), S its anchor Schur complement. op must be fibered over its
    tiling cg (a hand-built one may not be), checked in O(nnz): symmetric,
    its non-anchor rows I_G (x) the base's, its potential omega constant on
    each fiber; otherwise CertificateError.

    In P's eigenbasis (cg.template.interior_modes) mode k of fiber h is a
    pivot d = mu_k + omega_h - s, coupled to the anchors of h only, by row c
    of Q^T A_IA. A pivot with |d| >= PIVOT_TOL counts 1 if d < 0 and adds
    -c c^T / d to S; a smaller one stays in S as its own row. A base with no
    vertex besides its anchors has no modes, and S is all of H. Bisection of
    the sorted mu_k + omega_h finds the kept pivots and counts the negative
    ones of every shift (_kept_pivots); the corrections are formed one
    level's fibers at a time.

    S is block-tridiagonal in the BFS spheres of the fibers (_sphere_levels),
    and neg(S) sums the inertias of its block LDL^T pivots. Level j's block
    D_j, with the kept rows of its fibers and the rows carried into it, is
    diagonalised by a batched eigh. A direction (lambda, w), w its coupling
    to level j+1, counts 1 if lambda < 0 and adds -w w^T / lambda to D_(j+1),
    unless |lambda| < PIVOT_TOL * min(1, |w|^2), when it is carried into
    D_(j+1), undivided, as its own row. The last level is counted by
    eigvalsh. The kept and carried rows come first in D_j, and rows with
    diagonal 1 pad each shift's D_j to the level's largest. A pass runs each
    level once for as many shifts as keep the arrays of the widest level (its
    pivots, corrections and D_j) within SCHUR_BLOCK_BYTES."""
    cg = op.tiling
    interior, mu, coupling = cg.template.interior_modes
    fibers, nb, n = cg.group.size, cg.n_base, op.dimension
    v, base = op.adjacency.data, adjacency_sparse(cg.template.base)
    (r, c), (br, bc) = (np.array([m.rows, m.indices], np.int64) for m in (op.adjacency, base))
    keys, flip, omega = r * n + c, np.argsort(c * n + r), op.potential[::nb]
    inside = np.zeros(nb, dtype=bool)
    inside[interior] = True
    inner, mine = inside[br], inside[r % nb]
    tiled = (n + 1) * nb * np.arange(fibers)[:, None] + (br * n + bc)[inner]
    if (
        n != fibers * nb
        or not (np.array_equal(keys, (c * n + r)[flip]) and np.array_equal(v, v[flip]))
        or not np.array_equal(keys[mine], tiled.ravel())
        or not np.array_equal(v[mine], np.tile(base.data[inner], fibers))
        or np.any(op.potential != np.repeat(omega, nb))
    ):
        raise CertificateError("operator is not fibered over the Cayley graph")
    modes, links = coupling.shape
    cross = r // nb != c // nb  # only anchor-anchor entries join two fibers
    levels = _sphere_levels(r[cross] // nb, c[cross] // nb, fibers)
    order, sizes = np.concatenate(levels), np.array([f.size for f in levels])
    start = np.cumsum(sizes) - sizes  # each level's first place in order
    anchors = (order[:, None] * nb + cg.template.anchor_vertices()).ravel()
    blocks = _schur_blocks(op, anchors, links * sizes)
    # d + s of mode k at the fiber in place h of order, at h * modes + k
    pivots = (omega[order, None] + mu).ravel()
    rank, level_of = np.argsort(pivots, kind="stable"), np.repeat(np.arange(len(levels)), sizes)
    outer = (coupling[:, :, None] * coupling[:, None, :]).reshape(modes, links * links)
    widest = sizes.max()
    fiber, p, q = np.indices((widest, links, links)).reshape(3, -1)
    own_rows, own_cols = links * fiber + p, links * fiber + q  # each fiber's diagonal block
    step = max(1, SCHUR_BLOCK_BYTES // (8 * widest * max(modes, links**2, links**2 * widest)))
    below = np.empty(shifts.size, dtype=np.intp)
    for lo in range(0, shifts.size, step):
        s = shifts[lo : lo + step]
        count, kept_at, kept, kept_d = _kept_pivots(pivots, rank, s)
        h, k = np.divmod(kept, modes)
        level = level_of[h]
        by_level = np.argsort(level, kind="stable")  # and by shift within a level
        kept_at, h, k, kept_d, level = (x[by_level] for x in (kept_at, h, k, kept_d, level))
        bounds = level.searchsorted(np.arange(len(levels) + 1)).tolist()
        h -= start[level]  # the fiber's place in its level
        key = level * s.size + kept_at
        row = np.arange(key.size) - key.searchsorted(key)  # among its shift's kept rows
        most = np.zeros(len(levels), dtype=np.intp)
        np.maximum.at(most, level, row + 1)
        cols, kept_c = links * h[:, None] + np.arange(links), coupling[k]
        lam, update = np.zeros((s.size, 0)), 0.0
        carried, w = lam != 0, np.zeros((s.size, 0, links * sizes[0]))  # nothing into level 0
        for j, (block, f, size) in enumerate(zip(blocks, start.tolist(), sizes.tolist())):
            a, e, here = links * size, int(most[j]), slice(bounds[j], bounds[j + 1])
            d = pivots[modes * f : modes * (f + size)].reshape(size, modes) - s[:, None, None]
            d[kept_at[here], h[here], k[here]] = np.inf  # 1 / d is 0 at a kept pivot
            correction = np.reciprocal(d, out=d).reshape(s.size * size, modes) @ outer
            carrying = carried.any()
            if carrying:  # directions too small to divide by, each a row of its own
                carried_at, carried_row = np.nonzero(carried)
                carried_rank = e + np.arange(carried_at.size) - carried_at.searchsorted(carried_at)
                e = max(e, int(carried_rank.max()) + 1)  # after every shift's kept rows
            D = np.zeros((s.size, e + a, e + a))  # eigh and eigvalsh read its lower triangle
            np.subtract(block[:, :a], update, out=D[:, e:, e:])
            diagonal = D.reshape(s.size, -1)[:, :: e + a + 1]
            diagonal[:, :e] = 1.0  # padding, unless a row is placed there
            diagonal[:, e:] -= s[:, None]
            own = slice(a * links)
            D[:, e + own_rows[own], e + own_cols[own]] -= correction.reshape(s.size, -1)
            at, place = kept_at[here], row[here]
            D[at, place, place] = kept_d[here]
            D[at[:, None], e + cols[here], place[:, None]] = kept_c[here]
            if carrying:
                D[carried_at, carried_rank, carried_rank] = lam[carried_at, carried_row]
                D[carried_at, e:, carried_rank] = w[carried_at, carried_row]
            if j == len(levels) - 1:
                count += (np.linalg.eigvalsh(D) < 0).sum(axis=1)
                break
            lam, vectors = np.linalg.eigh(D)
            w = vectors[:, e:].transpose(0, 2, 1) @ block[:, a:]  # to the next level
            carried = np.abs(lam) / PIVOT_TOL < np.minimum(1.0, np.einsum("sij,sij->si", w, w))
            inverse = np.divide(1.0, lam, out=np.zeros_like(lam), where=~carried & (lam != 0))
            count += (inverse < 0).sum(axis=1)
            update = (w.transpose(0, 2, 1) * inverse[:, None]) @ w
        below[lo : lo + step] = count
    return below


def _schur_blocks(op: SiteOperator, anchors: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """Level j's rows of S = A_AA + diag(potential), the anchors listed level
    by level with sizes[j] in level j: its own columns, then the next
    level's. Read from op's stored entries in one pass, as views of one band
    array; an entry in a previous level's column is the transpose of one
    kept there."""
    first = np.cumsum(sizes) - sizes
    at, own = np.full(op.dimension, -1), np.repeat(first, sizes)  # place, level's first place
    at[anchors] = np.arange(anchors.size)
    i = at[op.adjacency.rows]
    col = at[op.adjacency.indices] - own[i]
    stored = (i >= 0) & (col >= 0)  # col < 0 for a non-anchor column too
    wide = sizes + np.append(sizes[1:], 0)
    band = np.zeros((anchors.size, wide.max()))
    band[i[stored], col[stored]] = op.adjacency.data[stored]
    band[np.arange(anchors.size), np.arange(anchors.size) - own] += op.potential[anchors]
    return [band[f : f + a, :w] for f, a, w in zip(first.tolist(), sizes.tolist(), wide.tolist())]


def _kept_pivots(pivots: np.ndarray, rank: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, ...]:
    """For the pivots d = p - s of each p in pivots (rank sorts them) at each
    shift s: the count of d <= -PIVOT_TOL per shift, and the kept ones,
    |d| < PIVOT_TOL, as (shift, index into pivots, d) in shift order. Both
    come from bisection: fl(p - s) < 0 exactly when p < s, and rounding to
    nearest puts every kept p in [fl(s - 2 PIVOT_TOL), fl(s + 2 PIVOT_TOL)]."""
    ascending = pivots[rank]
    low = ascending.searchsorted(s - 2 * PIVOT_TOL)
    near = ascending.searchsorted(s + 2 * PIVOT_TOL, "right") - low
    at = np.repeat(np.arange(s.size), near)
    index = rank[np.arange(at.size) + np.repeat(low - np.cumsum(near) + near, near)]
    d = pivots[index] - s[at]
    kept = np.abs(d) < PIVOT_TOL
    at, index, d = at[kept], index[kept], d[kept]
    return ascending.searchsorted(s) - np.bincount(at[d < 0], minlength=s.size), at, index, d


def _sphere_levels(rows: np.ndarray, cols: np.ndarray, fibers: int) -> list[np.ndarray]:
    """The fibers by BFS sphere from fiber 0, and from the first fiber not yet
    reached for each further component, in the graph that joins fibers rows[i]
    and cols[i], each sphere ascending. Its edges then join only the same or
    adjacent spheres."""
    neighbours = [[] for _ in range(fibers)]
    for a, b in zip(rows.tolist(), cols.tolist()):
        neighbours[b].append(a)
    seen, levels = [False] * fibers, []
    for root in range(fibers):
        sphere = [] if seen[root] else [root]
        seen[root] = True
        while sphere:
            levels.append(np.array(sphere))
            ahead = []
            for u in sphere:
                for x in neighbours[u]:
                    if not seen[x]:
                        seen[x] = True
                        ahead.append(x)
            sphere = sorted(ahead)
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
    K-1 invariant copies of R_(d-1) + omega_x (see _patch_block_spectrum).
    The rest is spanned by the indicators of the level cells, an equitable
    partition, and the core is H's quotient by it (C. Godsil, Algebraic
    Combinatorics, 1993, ch. 5). A vertex above depth l is a cell of its
    own, and the vertices at one depth below one depth-l root are one, l+1
    per root from the root down. With B the adjacency weight between cells
    Ci and Cj over the stored entries, the core holds sqrt(B^2 / (|Ci| |Cj|))
    (sqrt(K) down a root's levels, 1 elsewhere) and each cell's potential on
    the diagonal: a tree. eigvalsh solves it, and its inertia counts must
    enclose each value w_i within delta = _solver_bound(core):
    #{lambda < w_i - delta} <= i < #{lambda < w_i + delta}; otherwise
    CertificateError.
    """
    t, p = op.tiling
    K, l = t.K, p.l
    deep = int(np.count_nonzero(t.depth > l))  # a BFS prefix; the depth-l roots follow
    level = deep + (l + 1) * (p.patch_of - deep) + l - t.depth
    cell = np.where(t.depth > l, np.arange(t.vertex_count), level)
    count = np.bincount(cell)
    size = count.size
    i, j = cell[op.adjacency.rows], cell[op.adjacency.indices]
    weights = np.bincount(i * size + j, weights=op.adjacency.data, minlength=size * size)
    core = weights.reshape(size, size)
    core[i, j] = np.sqrt(core[i, j] ** 2 / (count[i] * count[j]))
    core[cell, cell] = op.potential
    values, delta = np.linalg.eigvalsh(core), _solver_bound(core)
    shifts = np.concatenate([values - delta, values + delta])[None]
    below = _tree_counts_below(op, shifts, op.potential[None])[0, 0]
    index = np.arange(size)
    if not (np.all(below[:size] <= index) and np.all(below[size:] > index)):
        raise CertificateError(f"core eigenvalues not enclosed within {delta:.3e}")
    return values, op.potential[t.depth == l, None] + _patch_block_spectrum(K, l)


def _tree_counts_below(op: SiteOperator, shifts: np.ndarray, potentials) -> np.ndarray:
    """#{lambda < s} for each shift s = shifts[i, j], of the core of
    _canopy_blocks (row 0) and of the canopy operator (row 1) of op's tree
    with the potential potentials[i]: by Sylvester's law, the negative
    pivots a(v) = H_vv - s - sum of w_c^2 / a(c) over v's children c of a
    leaf-to-root elimination of the core tree, which makes no fill-in. A
    vertex with an exactly zero child pivot takes a negative pivot and passes
    nothing up (G. Jacobs, V. Trevisan, Linear Algebra Appl. 434 (2011)
    81-88): a(v) = -inf. The chains go from level l (their leaves) to 0, then
    the deep BFS prefix level by level, K children per vertex in order.
    Every chain level carries its root's omega_x and w^2 = K, so a chain's
    pivots are one recurrence in z = omega_x - s: a_0 = z and a_(i+1) =
    z - K / a_i, with a_(i+1) = -inf where a_i == 0. A patch block
    R_(d-1) + omega_x is the bottom d levels of x's chain, so the pivot a_i
    counts once in the core and K^(l-i) times in op. The (potential, shift)
    pairs of all rows stack into one elimination, and a pass takes as many
    as keep the chains' l+1 levels of pivots within SCHUR_BLOCK_BYTES,
    splitting a row where the budget ends."""
    t, p = op.tiling
    K, l = t.K, p.l
    diagonals = [potentials[:, t.depth == d] for d in range(l, t.L + 1)]  # BFS order
    realization, column = np.divmod(np.arange(shifts.size), shifts.shape[1])
    counts = np.zeros((2, shifts.size), dtype=np.intp)
    copies = np.stack([np.ones(l + 1, np.intp), K ** np.arange(l, -1, -1)])
    roots = diagonals[0].shape[1]
    step = max(1, SCHUR_BLOCK_BYTES // (8 * (l + 1) * roots))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, shifts.size, step):
            at = realization[lo : lo + step]
            sigma = shifts[at, column[lo : lo + step], None]
            chain = np.empty((l + 1, at.size, roots))  # a_i, computed in place
            z = np.take(diagonals[0], at, axis=0, out=chain[0])
            z -= sigma  # the leaves have no children
            for a, after in zip(chain, chain[1:]):
                np.subtract(z, np.multiply(K, np.reciprocal(a, out=after), out=after), out=after)
                np.copyto(after, -np.inf, where=a == 0)
            counts[:, lo : lo + step] = copies @ np.count_nonzero(chain < 0, axis=2)
            pivots = chain[l]
            for diagonal in diagonals[1:]:  # once in the core and in op
                children = pivots.reshape(at.size, diagonal.shape[1], -1)
                zero = children == 0
                inverse = np.reciprocal(children, out=children).sum(axis=2)  # they are counted
                pivots = diagonal[at] - sigma - inverse
                if zero.any():  # rare: only an exact zero pivot
                    pivots[zero.any(axis=2)] = -np.inf
                counts[:, lo : lo + step] += np.count_nonzero(pivots < 0, axis=1)
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


def _cluster_bounds(eigenvalues, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The values of an ascending sequence as an array, and where each of
    its clusters starts and ends: a value more than tau above the previous
    one starts a cluster, and every other value joins the current one."""
    if tau <= 0:
        raise InvalidArgumentError("cluster tolerance must be positive")
    values = np.asarray(eigenvalues, dtype=float).reshape(-1)
    gaps = np.diff(values)
    if np.any(gaps < 0):
        raise InvalidArgumentError("eigenvalues must be sorted ascending")
    starts = np.flatnonzero(gaps > tau) + 1
    return values, np.concatenate([[0], starts, [values.size]]) if values.size else starts


def cluster_multiplicities(eigenvalues, tau: float) -> list[tuple[float, int]]:
    """The (mean, size) of each cluster of an ascending sequence, in order:
    consecutive values within tau of the previous one join the current
    cluster (_cluster_bounds)."""
    values, bounds = _cluster_bounds(eigenvalues, tau)
    values, bounds = values.tolist(), bounds.tolist()
    return [(sum(values[a:b]) / (b - a), b - a) for a, b in zip(bounds, bounds[1:])]


def clusters_ge_2(eigenvalues, tau: float) -> int:
    """How many clusters of cluster_multiplicities hold two values or more."""
    return int(np.count_nonzero(np.diff(_cluster_bounds(eigenvalues, tau)[1]) >= 2))


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
def _check_subtree_eigenvector(K: int, depth: int, E: float, psi: bytes) -> tuple:
    """Raise InvalidArgumentError unless psi, the float64 bytes of a vector
    on the complete K-ary tree of the given depth, is a unit eigenvector of
    its adjacency at E; return its K-1 read-only spreads (a copy per forward
    neighbor, weighted by an alpha_basis row) and their _spread_checks,
    which canopy_certificates needs at every patch root."""
    vector = np.frombuffer(psi)
    if not abs(np.linalg.norm(vector) - 1.0) <= UNIT_NORM_TOL:
        raise InvalidArgumentError("psi must be unit norm")
    adjacency = _template_adjacency(K, depth)
    check_eigenvectors(adjacency, vector, E, InvalidArgumentError, "psi on the subtree")
    spread = (alpha_basis(K).rows[:, :, None] * vector).reshape(1, K - 1, -1)
    spread.flags.writeable = False
    return spread[0], _spread_checks(spread)[0]


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
    vertex (..., k, s), and one E per support (...) or per vector (..., k).
    A single support (s,) with vectors (k, s) and a scalar E is the empty
    stack. _issue keeps the _residual_layout of its supports for reuse.
    """
    support, values = np.asarray(support), np.asarray(values, dtype=float)
    lead, (k, s) = support.shape[:-1], values.shape[-2:]
    families = math.prod(lead)
    if not (s and families):
        return np.zeros(lead + (k,))
    layout = _residual_layout(op, support.reshape(families, s))
    return _residuals(op, layout, values.reshape(families, k, s), eigenvalue).reshape(lead + (k,))


def _residual_layout(op: SiteOperator, supports: np.ndarray):
    """Where _residuals reads for a nonempty stack of supports (families, s):
    keyed family * n + vertex, one sort gives the rows support + N(support),
    outside which (H - E)v vanishes. Per CSR entry slot j of the rows, the
    weights (w, rows, 1) and the flat stack index each entry reads (w, rows),
    then each row's potential, family and own index, and each family's first
    row; a padding slot, or an entry off the supports, reads index
    families * s."""
    n, indices = op.dimension, op.adjacency.indices
    first = np.arange(0, len(supports) * n, n)  # the key of each family's vertex 0
    keys = (supports + first[:, None]).ravel()
    order = keys.argsort()
    keys = keys.take(order)  # take: a small family's gathers cost less than with []

    def padded(rows):  # the keys of each row's CSR entries, (slot, row) in storage order
        vertex = rows % n
        ptr = op.adjacency.padded_rows.take(vertex, axis=0).T
        return rows - vertex + indices.take(ptr), ptr, vertex

    def placed(query):  # each key's flat index in the stack, keys.size off the supports
        pos = np.minimum(keys.searchsorted(query), keys.size - 1)
        return np.where(keys.take(pos) == query, order.take(pos), keys.size)

    adjacent, ptr, _ = padded(keys)
    rows = np.concatenate([keys, adjacent[ptr >= 0]])
    rows.sort()  # deduplicated below: np.union1d's overhead dominates a small family
    rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
    adjacent, ptr, vertex = padded(rows)
    at = np.where(ptr >= 0, placed(adjacent), keys.size)
    weights = op.adjacency.data.take(ptr)[:, :, None]  # a padding slot reads v = 0
    potential = op.potential.take(vertex)[:, None]
    return weights, at, potential, rows // n, placed(rows), rows.searchsorted(first)


def _residuals(op: SiteOperator, layout, values: np.ndarray, eigenvalue) -> np.ndarray:
    """support_residuals on a _residual_layout, values (families, k, s), or
    (1, k, s) for the same vectors on every support. Each row sum adds its
    products in CSR storage order, as the CSRMatrix product does, so every
    result equals the residual of op.adjacency @ v bit for bit. The (rows, k)
    arrays are computed in place, a few buffers a pass."""
    weights, at, potential, family, own, starts = layout
    families, (k, s) = starts.size, values.shape[1:]
    vals = np.zeros((families * s + 1, k))  # the last row: v off the supports
    vals[:-1].reshape(families, s, k)[...] = values.transpose(0, 2, 1)
    acc, term = np.zeros((own.size, k)), np.empty((own.size, k))
    for weight, index in zip(weights, at):
        acc += np.multiply(weight, vals.take(index, axis=0, out=term), out=term)
    v = vals.take(own, axis=0)
    acc += np.multiply(potential, v, out=term)
    energy = np.asarray(eigenvalue, dtype=float).reshape(families, -1).take(family, axis=0)
    acc -= np.multiply(energy, v, out=v)
    return np.maximum.reduceat(np.abs(acc, out=acc), starts, axis=0)


@dataclass(frozen=True)
class CertificateFamilies:
    """Family f = (i, j), row-major, puts the k rows of values[j] on the
    vertices supports[i] to claim claims[i, j], described by provenance(i,
    j, row); residuals[f] are its k residuals against the assembled operator
    and rejections[f] its CertificateError of _rejection, or None."""

    supports: np.ndarray  # (len(claims), s)
    values: np.ndarray  # (m, k, s)
    claims: np.ndarray  # (len(supports), m)
    provenance: object
    residuals: np.ndarray  # (families, k)
    rejections: list


def _issue(op, owners, sites, build, values, checks, energies, provenance) -> CertificateFamilies:
    """The families of the k rows of values[j], shape (m, k, s), with checks[j]
    of _spread_checks, on supports[i] claiming energies[j] + couplings[i], as
    build() gives both at the sites of the inputs owners, which op keeps with
    the layouts of the residual passes for a call with equal owners, sites
    and passes. A pass takes as many supports (one at least) as keep the
    products its m * k vectors gather, 8 m k s w bytes a support for CSR
    rows w entries wide, within SCHUR_BLOCK_BYTES."""
    m, k, s = values.shape
    width = op.adjacency.padded_rows.shape[1]
    step = max(1, SCHUR_BLOCK_BYTES // max(8 * m * k * s * width, 1))
    key = (sites.dtype.str, sites.tobytes(), step, *owners)  # t, p and cg equal only themselves
    if op._families is None or op._families[0] != key:
        supports, couplings = build()
        supports.flags.writeable = couplings.flags.writeable = False
        passes = range(0, len(supports), step)
        layouts = [_residual_layout(op, supports[lo : lo + step]) for lo in passes]
        op._families = (key, supports, couplings, layouts)
    _, supports, couplings, layouts = op._families
    claims = energies + couplings[:, None]
    residuals = np.empty((len(supports) * m, k))
    by_support = residuals.reshape(len(supports), m * k)  # a view, row i = families (i, *)
    for lo, layout in zip(range(0, len(supports), step), layouts):
        block = claims[lo : lo + step].repeat(k, axis=1)
        by_support[lo : lo + step] = _residuals(op, layout, values.reshape(1, m * k, s), block)
    tolerances = [residual_tolerance(op, E) for E in energies.tolist()]
    rejections = _rejection(residuals.reshape(len(supports), m, k), tolerances, claims, checks)
    return CertificateFamilies(supports, values, claims, provenance, residuals, rejections)


def _spread_checks(values: np.ndarray) -> list:
    """(row norms, Gram deviation) of each values[j], values (m, k, s)."""
    norms = np.sqrt((values * values).sum(axis=2)).tolist()
    gram = np.abs(values @ values.transpose(0, 2, 1) - np.eye(values.shape[1]))
    return list(zip(norms, gram.max(axis=(1, 2), initial=0.0).tolist()))


def _certificates(families: CertificateFamilies, single: bool) -> list:
    """Family by family, the certificates of families, each listing its
    nonzero entries, or the CertificateError that rejects it; with single,
    the one family's certificates, or its CertificateError raised."""
    m, k, _ = families.values.shape
    values, claims = families.values.tolist(), families.claims.tolist()
    residuals, supports = families.residuals.tolist(), families.supports.tolist()
    outcomes = []
    for f, error in enumerate(families.rejections):
        i, j = divmod(f, m)
        support = tuple(supports[i])
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


def _rejection(residuals, tolerances, claims, checks) -> list:
    """The CertificateError of each family (i, j), row-major, or None if it
    passes: residuals (supports, m, k) of its k vectors, tolerances[j],
    claims[i, j], and checks[j] = (norms, Gram deviation) of eigenpair j.
    One test passes every family whose worst residual is within its
    tolerance (a NaN is not) and whose eigenpair's norms are 1 and Gram
    deviation within ORTHO_TOL; a stack whose worst residual is within every
    tolerance passes whole. Each other family gets its first vector whose
    norm is off 1 or, after that, whose residual is over tolerance; then the
    Gram matrix off the identity by its deviation."""
    m, k = residuals.shape[1:]
    sound = [all(abs(x - 1.0) <= UNIT_NORM_TOL for x in n) and d <= ORTHO_TOL for n, d in checks]
    out = [None] * (residuals.shape[0] * m)
    if all(sound) and residuals.max(initial=-np.inf) <= min(tolerances, default=np.inf):
        return out
    passed = (residuals.max(axis=2, initial=-np.inf) <= np.array(tolerances)) & np.array(sound)
    failing = np.flatnonzero(~passed).tolist()
    walked = zip(residuals.reshape(len(out), k)[failing].tolist(), claims.ravel()[failing].tolist())
    for f, (vectors, eigenvalue) in zip(failing, walked):
        (norms, dev), tolerance = checks[f % m], tolerances[f % m]
        for norm, residual in zip(norms, vectors):
            if not abs(norm - 1.0) <= UNIT_NORM_TOL:
                out[f] = CertificateError(f"certificate vector norm {norm} is not 1")
                break
            if not residual <= tolerance:
                out[f] = CertificateError(
                    f"certificate residual {residual:.3e} exceeds tolerance "
                    f"{tolerance:.3e} (claimed eigenvalue {eigenvalue})"
                )
                break
        else:
            out[f] = CertificateError(f"certificate Gram deviates from identity by {dev:.3e}")
    return out


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
    pairs = zip(energies.tolist(), psi.T)
    spreads = [_check_subtree_eigenvector(t.K, l - 1, E_j, c.tobytes()) for E_j, c in pairs]
    if operator is None:
        operator = assemble_canopy_operator(t, p, r)
    # one copy of psi per forward neighbor y = K x + 1 .. K x + K, in BFS order
    K, size = t.K, tree_size(t.K, l - 1)
    values = np.array([spread for spread, _ in spreads]).reshape(energies.size, K - 1, K * size)
    checks = [check for _, check in spreads]

    def stack():
        y = K * roots[:, None] + np.arange(1, K + 1)
        supports = subtree(t, y, l - 1).reshape(roots.size, K * size)
        return supports, r.couplings_at(roots, "patch roots")

    roots_list, energy_list = roots.tolist(), energies.tolist()

    def provenance(i, j, a):
        x, E = roots_list[i], energy_list[j]
        return {"construction": "canopy", "patch_root": x, "E": E, "alpha_index": a}

    return _issue(operator, (t, p, r), roots, stack, values, checks, energies, provenance)


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
    """cayley_certificates' families, with no certificate object built. The
    fibers g must be integers (graph_core.integer_array)."""
    sites = integer_array(g, "fibers").reshape(-1)
    fibers = sites.tolist()
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
        adjacency_sparse(cg.template.base), psis, E0, InvalidArgumentError, "base eigenvector"
    )
    if operator is None:
        operator = assemble_cayley_operator(cg, r)

    def stack():
        supports = np.array([cg.fiber_vertices(f) for f in fibers], dtype=np.intp)
        return supports.reshape(len(fibers), cg.n_base), r.couplings_at(fibers, "fibers")

    def provenance(i, j, a):
        fiber = repr(cg.group.elements[fibers[i]])
        return {"construction": "cayley", "fiber": fiber, "E0": float(E0), "i": a}

    values, energies = psis[None], np.array([E0], dtype=float)
    checks = _spread_checks(values)
    return _issue(operator, (cg, r), sites, stack, values, checks, energies, provenance)


class KernelBasis(list):
    """junction_kernel_basis's vectors, with the residuals of their check."""

    residuals: np.ndarray


def junction_kernel_basis(glued: GluedGraph, E0: float) -> KernelBasis:
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
    basis = KernelBasis(vectors)
    basis.residuals = check_eigenvectors(
        adjacency_sparse(glued.graph), vectors, E0, CertificateError, "kernel vector"
    )
    if np.any(vectors[:, list(glued.junctions)]):
        raise CertificateError("kernel vector is nonzero at a junction")
    return basis
