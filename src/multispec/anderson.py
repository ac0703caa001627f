"""Disorder sampling and assembly of the random operators.

The canopy operator adds one i.i.d. coupling per patch (constant on the
whole depth-l subtree); the Cayley operator adds one coupling per fiber.
Sampling uses numpy's PCG64 generator seeded explicitly and drawn in the
canonical site order, so realizations are bit-reproducible.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .canopy import PatchSet, TruncatedCanopy, tree_adjacency
from .cayley import CayleyGraph, GroupSpec, require_finite
from .errors import DegenerateDisorderError, InvalidArgumentError
from .graph_core import adjacency_sparse

UNIFORM = "uniform"
POINT_MASS = "point_mass"
TWO_POINT = "two_point"
PERMUTATION_BLOCK = 1 << 15  # permuted entries per stacked permutation pass, to bound memory


@dataclass(frozen=True)
class DisorderSpec:
    """I.i.d. coupling distribution with bounded support plus a seed."""

    distribution: str = UNIFORM
    params: tuple[float, ...] = (0.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.distribution == UNIFORM:
            a, b = self.params
            if not a < b:
                raise InvalidArgumentError("uniform needs a < b")
        elif self.distribution == POINT_MASS:
            if len(self.params) != 1:
                raise InvalidArgumentError("point mass takes one parameter")
        elif self.distribution == TWO_POINT:
            if len(self.params) != 2:
                raise InvalidArgumentError("two-point takes two values")
        else:
            raise InvalidArgumentError(
                f"unknown distribution {self.distribution!r}"
            )


@dataclass(frozen=True)
class DisorderRealization:
    values: dict[int, float]
    spec: DisorderSpec

    def max_abs(self) -> float:
        return max((abs(v) for v in self.values.values()), default=0.0)

    def is_generic(self) -> bool:
        vals = list(self.values.values())
        return len(set(vals)) == len(vals)


def require_generic(r: DisorderRealization):
    """Raise unless all coupling values are pairwise distinct (the a.s. event
    the automorphism-filtering argument needs)."""
    if not r.is_generic():
        raise DegenerateDisorderError(
            "coupling values collide; re-seed for generic disorder"
        )


def sample_disorder(spec: DisorderSpec, sites) -> DisorderRealization:
    """Draw one i.i.d. value per site, in the given (canonical) site order."""
    sites = list(sites)
    rng = np.random.default_rng(spec.seed)
    if spec.distribution == UNIFORM:
        a, b = spec.params
        draws = rng.uniform(a, b, size=len(sites))
    elif spec.distribution == POINT_MASS:
        draws = np.full(len(sites), spec.params[0])
    else:  # two-point, equal weights
        draws = rng.choice(np.array(spec.params), size=len(sites))
    return DisorderRealization(dict(zip(sites, draws.tolist())), spec)


class SiteOperator:
    """Adjacency plus a diagonal potential, kept split so the potential
    stays exact under permutation checks.

    The operator is immutable after assembly: the potential is a read-only
    view, neither attribute can be rebound, and the adjacency must not be
    edited in place. spectral.operator_spectrum therefore solves the
    spectrum once and caches it on the instance, and norm_bound is
    computed once.

    tiling is the (TruncatedCanopy, PatchSet) a canopy operator was
    assembled from, and None for every other operator; it lets
    spectral.operator_spectrum solve the symmetry-reduced core, and no
    other operator is solved.
    """

    def __init__(
        self,
        adjacency: sp.csr_matrix,
        potential: np.ndarray,
        provenance,
        tiling: tuple[TruncatedCanopy, PatchSet] | None = None,
    ):
        if adjacency.shape[0] != adjacency.shape[1]:
            raise InvalidArgumentError("adjacency must be square")
        if adjacency.shape[0] != potential.shape[0]:
            raise InvalidArgumentError("potential length mismatch")
        potential = potential.view()
        potential.flags.writeable = False
        self._adjacency = adjacency
        self._potential = potential
        self.provenance = provenance
        self.tiling = tiling
        self._eigenvalues: np.ndarray | None = None  # see operator_spectrum

    @property
    def adjacency(self) -> sp.csr_matrix:
        return self._adjacency

    @property
    def potential(self) -> np.ndarray:
        return self._potential

    @property
    def dimension(self) -> int:
        return self.potential.shape[0]

    @functools.cached_property
    def adjacency_bound(self) -> float:
        """The largest row sum of |adjacency|; computed on first use."""
        row_sums = abs(self.adjacency) @ np.ones(self.dimension)
        return float(row_sums.max(initial=0.0))

    @functools.cached_property
    def norm_bound(self) -> float:
        """adjacency_bound plus max|potential|, a bound on the operator
        norm; computed on first use."""
        return self.adjacency_bound + float(np.abs(self.potential).max(initial=0.0))

    @functools.cached_property
    def padded_rows(self) -> np.ndarray:
        """The CSR storage positions of each row's entries as an (n, max
        degree) table padded with -1; computed on first use."""
        indptr = self.adjacency.indptr
        degree = np.diff(indptr)
        step = np.arange(degree.max(initial=0))
        table = np.where(step < degree[:, None], indptr[:-1, None] + step, -1)
        return table.astype(indptr.dtype)

    def structure_hash(self) -> str:
        coo = self.adjacency.tocoo()
        payload = (
            coo.row.tobytes() + coo.col.tobytes() + self.potential.tobytes()
        )
        return hashlib.sha256(payload).hexdigest()[:16]


def assemble_canopy_operator(
    t: TruncatedCanopy, p: PatchSet, r: DisorderRealization
) -> SiteOperator:
    missing = [x for x in p.roots if x not in r.values]
    if missing:
        raise InvalidArgumentError(f"realization misses patch roots {missing[:5]}")
    coupling = np.zeros(t.vertex_count)  # indexed by patch root
    coupling[list(p.roots)] = [r.values[x] for x in p.roots]
    provenance = {
        "structure": "canopy",
        "K": t.K,
        "L": t.L,
        "l": p.l,
        "seed": r.spec.seed,
        "distribution": r.spec.distribution,
    }
    return SiteOperator(tree_adjacency(t), coupling[p.patch_of], provenance, (t, p))


def _fiber_potential(cg: CayleyGraph, r: DisorderRealization) -> np.ndarray:
    """The coupling of each vertex's fiber, vertex by vertex."""
    missing = [g for g in range(cg.group.size) if g not in r.values]
    if missing:
        raise InvalidArgumentError(f"realization misses fibers {missing[:5]}")
    return np.repeat([r.values[g] for g in range(cg.group.size)], cg.n_base)


def assemble_cayley_operator(cg: CayleyGraph, r: DisorderRealization) -> SiteOperator:
    potential = _fiber_potential(cg, r)
    provenance = {
        "structure": "cayley",
        "group": cg.group.kind,
        "group_size": cg.group.size,
        "seed": r.spec.seed,
        "distribution": r.spec.distribution,
    }
    return SiteOperator(adjacency_sparse(cg.graph), potential, provenance)


def shift_disorder(
    r: DisorderRealization, g: int, group: GroupSpec
) -> DisorderRealization:
    """Left shift of the coupling field: the new value at h is the old value
    at g*h, read from the group's multiplication table."""
    require_finite(group, "shift_disorder")
    shifted = map(r.values.__getitem__, group.table[g].tolist())
    return DisorderRealization(dict(enumerate(shifted)), r.spec)


def covariance_check(
    cg: CayleyGraph,
    r: DisorderRealization,
    g,
    operator: SiteOperator | None = None,
):
    """Exact check of the covariance identity: conjugating the operator by
    the fiber translation (v,h) -> (v, g*h) equals assembling with the
    shifted couplings. Returns (holds exactly, max entry deviation), the
    deviation from permuted_deviation, as both operators share the adjacency
    of cg.graph. operator, when given, is the assembled operator of (cg, r),
    so a caller checking many elements assembles it once.

    With a sequence of elements g, every element is checked in stacked
    passes of at most PERMUTATION_BLOCK permuted entries, and the result
    lists (holds, deviation) element by element.
    """
    require_finite(cg.group, "covariance_check")
    op = assemble_cayley_operator(cg, r) if operator is None else operator
    elements, nb = np.asarray(g).reshape(-1).tolist(), cg.n_base
    step, deviations = permutation_step(op), []
    for lo in range(0, len(elements), step):
        block = elements[lo : lo + step]
        shifted = [_fiber_potential(cg, shift_disorder(r, e, cg.group)) for e in block]
        # permutation phi(v,h) = (v, g*h); (U_g M U_g*)[a,b] = M[phi(a), phi(b)]
        gh = cg.group.table[block]
        phi = (gh[:, :, None] * nb + np.arange(nb)).reshape(len(block), -1)
        deviations += permuted_deviation(op, phi, np.array(shifted)).tolist()
    checks = [(dev == 0.0, dev) for dev in deviations]
    return checks[0] if np.ndim(g) == 0 else checks


def permutation_step(op: SiteOperator) -> int:
    """How many permutations of op one stacked pass checks, so that a pass
    holds at most PERMUTATION_BLOCK permuted entries (at least one)."""
    return max(1, PERMUTATION_BLOCK // max(op.dimension, op.adjacency.nnz))


def permuted_deviation(op: SiteOperator, phi: np.ndarray, potential: np.ndarray):
    """max |(U H U*)[a, b] - H'[a, b]| for the permutation unitary
    (U u)(v) = u(phi(v)), where H' has op's adjacency and the given
    potential: (U H U*)[a, b] = H[phi(a), phi(b)]. A stack of permutations
    phi (k, n) with potentials (k, n), or one potential (n,) for all, gives
    k deviations; a single phi (n,) gives a float.

    The adjacency has no self-loops, so the permuted adjacency and the
    permuted potential are compared separately, in O(nnz) per permutation:
    each stored (a, b) is looked up at (phi(a), phi(b)) among the sorted
    keys row * n + col, and stored entries no lookup hits are compared with
    0. The deviation is the one a dense comparison gives. A canonical CSR
    stores its keys in ascending order; any other is sorted first."""
    n, a = op.dimension, op.adjacency
    a = a if a.has_canonical_format else a.sorted_indices()
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(a.indptr))
    # a sentinel above every key keeps each lookup position in range
    keys, values = np.append(rows * n + a.indices, n * n), np.append(a.data, 0.0)
    perms = np.asarray(phi, dtype=np.int64).reshape(-1, n)
    target = perms[:, rows] * n + perms[:, a.indices]
    pos = keys.searchsorted(target)
    found = keys[pos] == target
    stored = values[:-1]
    deviation = np.abs(np.where(found, values[pos] - stored, stored))
    deviation = deviation.max(axis=1, initial=0.0)
    if not found.all():  # else phi maps the stored entries onto themselves
        hit = np.zeros((len(perms), keys.size), dtype=bool)
        hit[np.nonzero(found)[0], pos[found]] = True
        missed = np.where(hit, 0.0, np.abs(values)).max(axis=1, initial=0.0)
        deviation = np.maximum(deviation, missed)
    potential = np.abs(op.potential[perms] - potential)
    deviation = np.maximum(deviation, potential.max(axis=1, initial=0.0))
    return deviation if np.ndim(phi) > 1 else float(deviation[0])
