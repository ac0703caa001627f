"""Disorder sampling and assembly of the random operators.

The canopy operator adds one i.i.d. coupling per patch (constant on the
whole depth-l subtree); the Cayley operator adds one coupling per fiber.
Sampling uses numpy's PCG64 generator seeded explicitly and drawn in the
canonical site order, so realizations are bit-reproducible.

The covariance check U_g H_omega U_g* = H_(tau_g omega) compares the
adjacency on the translations of a generating set only, which the group
law extends to every element, and the potential with the fiber couplings
once for all elements.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .canopy import PatchSet, TruncatedCanopy, tree_adjacency
from .cayley import CayleyGraph, GroupSpec, require_finite
from .errors import DegenerateDisorderError, InvalidArgumentError
from .graph_core import CSRMatrix, adjacency_sparse

UNIFORM = "uniform"
POINT_MASS = "point_mass"
TWO_POINT = "two_point"
PARAMETER_COUNTS = {UNIFORM: 2, POINT_MASS: 1, TWO_POINT: 2}
PERMUTATION_BLOCK = 1 << 15  # permuted entries per stacked permutation pass, to bound memory


@dataclass(frozen=True)
class DisorderSpec:
    """I.i.d. coupling distribution with bounded support plus a seed."""

    distribution: str = UNIFORM
    params: tuple[float, ...] = (0.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed!r}")
        if self.distribution not in PARAMETER_COUNTS:
            raise InvalidArgumentError(f"unknown distribution {self.distribution!r}")
        try:
            params = [float(x) for x in self.params]
        except (TypeError, ValueError):
            raise InvalidArgumentError("parameters must be numbers") from None
        if len(params) != PARAMETER_COUNTS[self.distribution]:
            raise InvalidArgumentError(
                f"{self.distribution} takes {PARAMETER_COUNTS[self.distribution]} parameters"
            )
        if not all(map(math.isfinite, params)):
            raise InvalidArgumentError(f"parameters must be finite, got {self.params!r}")
        if self.distribution == UNIFORM:
            a, b = params
            if not a < b:
                raise InvalidArgumentError("uniform needs a < b")
            if not math.isfinite(b - a):
                raise InvalidArgumentError("uniform needs a finite width b - a")


@dataclass(frozen=True, eq=False)
class DisorderRealization:
    """One coupling per site: sites (distinct integers) and couplings
    (finite floats), two read-only arrays in site order."""

    sites: np.ndarray
    couplings: np.ndarray
    spec: DisorderSpec

    def __post_init__(self):
        sites = np.asarray(self.sites)
        if sites.size and sites.dtype.kind not in "iu":
            raise InvalidArgumentError("sites must be integers")
        sites = np.array(sites, dtype=np.intp).reshape(-1)
        couplings = np.array(self.couplings, dtype=float).reshape(-1)
        if sites.size != couplings.size:
            raise InvalidArgumentError("need one coupling per site")
        if _repeats(sites):
            raise InvalidArgumentError("sites must be distinct")
        if not np.isfinite(couplings).all():
            raise InvalidArgumentError("couplings must be finite")
        sites.flags.writeable = couplings.flags.writeable = False
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "couplings", couplings)

    def __eq__(self, other):
        if not isinstance(other, DisorderRealization):
            return NotImplemented
        return (self.spec == other.spec and np.array_equal(self.sites, other.sites)
                and np.array_equal(self.couplings, other.couplings))

    @functools.cached_property
    def values(self) -> Mapping[int, float]:
        """site -> coupling as a read-only mapping, in site order."""
        return MappingProxyType(dict(zip(self.sites.tolist(), self.couplings.tolist())))

    @functools.cached_property
    def _sorted_sites(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.sites)
        return order, self.sites[order]

    def couplings_at(self, sites, what: str = "sites") -> np.ndarray:
        """The coupling of each given site, read-only when the sites are the
        realization's own in its order; InvalidArgumentError names the
        first five sites it has no coupling for."""
        sites = np.asarray(sites, dtype=np.intp).reshape(-1)
        if np.array_equal(sites, self.sites):
            return self.couplings
        order, ordered = self._sorted_sites
        pos = np.searchsorted(ordered, sites)  # == size past the last site: clipped
        found = ordered.take(pos, mode="clip") == sites if ordered.size else pos < 0
        if not found.all():
            raise InvalidArgumentError(
                f"realization misses {what} {sites[~found][:5].tolist()}"
            )
        return self.couplings[order[pos]]

    def max_abs(self) -> float:
        return float(np.abs(self.couplings).max(initial=0.0))

    def is_generic(self) -> bool:
        return not _repeats(self.couplings)


def _repeats(a: np.ndarray) -> bool:
    """Whether two entries of a are equal, by one sort (np.unique's first
    call costs about 2 MB of peak memory more)."""
    ordered = np.sort(a)
    return bool((ordered[1:] == ordered[:-1]).any())


def require_generic(r: DisorderRealization):
    """Raise unless all coupling values are pairwise distinct (the a.s. event
    the automorphism-filtering argument needs)."""
    if not r.is_generic():
        raise DegenerateDisorderError(
            "coupling values collide; re-seed for generic disorder"
        )


def sample_disorder(spec: DisorderSpec, sites) -> DisorderRealization:
    """Draw one i.i.d. value per site, in the given (canonical) site order;
    a repeated site raises InvalidArgumentError."""
    sites = list(sites)
    rng = np.random.default_rng(spec.seed)
    if spec.distribution == UNIFORM:
        a, b = spec.params
        draws = rng.uniform(a, b, size=len(sites))
    elif spec.distribution == POINT_MASS:
        draws = np.full(len(sites), spec.params[0])
    else:  # two-point, equal weights
        draws = rng.choice(np.array(spec.params), size=len(sites))
    return DisorderRealization(sites, draws, spec)


class SiteOperator:
    """Adjacency plus a diagonal potential, kept split so the potential
    stays exact under permutation checks.

    The operator is immutable after assembly: the potential is a read-only
    view, neither attribute can be rebound, and the adjacency must not be
    edited in place. spectral.operator_spectrum therefore solves the
    spectrum once and caches it on the instance, and norm_bound is
    computed once; spectral._issue keeps its last certificate stack's layout.

    tiling is the (TruncatedCanopy, PatchSet) or the CayleyGraph an operator
    was assembled from, and None for a hand-built one; spectral reads it to
    solve a canopy operator's reduced core or count by inertia, and no
    untiled operator is solved. realization is the DisorderRealization it
    was assembled from, or None, so dos.certified_band_count can match an
    operator to its realization by identity.
    """

    def __init__(
        self,
        adjacency: CSRMatrix,
        potential: np.ndarray,
        provenance,
        tiling: tuple[TruncatedCanopy, PatchSet] | CayleyGraph | None = None,
        realization: DisorderRealization | None = None,
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
        self.realization = realization
        self._eigenvalues: np.ndarray | None = None  # see operator_spectrum
        self._claims: np.ndarray | None = None  # see dos.certified_band_count
        self._families: tuple | None = None  # see spectral._issue

    @property
    def adjacency(self) -> CSRMatrix:
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
        row_sums = np.bincount(self.adjacency.rows, np.abs(self.adjacency.data), self.dimension)
        return float(row_sums.max(initial=0.0))

    @functools.cached_property
    def norm_bound(self) -> float:
        """adjacency_bound plus max|potential|, a bound on the operator
        norm; computed on first use."""
        return self.adjacency_bound + float(np.abs(self.potential).max(initial=0.0))

    def structure_hash(self) -> str:
        a = self.adjacency  # row and column ids in the index dtype, as scipy's tocoo
        payload = a.rows.astype(a.indices.dtype).tobytes() + a.indices.tobytes()
        return hashlib.sha256(payload + self.potential.tobytes()).hexdigest()[:16]


def assemble_canopy_operator(
    t: TruncatedCanopy, p: PatchSet, r: DisorderRealization
) -> SiteOperator:
    roots = np.asarray(p.roots, dtype=np.intp)
    coupling = np.zeros(t.vertex_count)  # indexed by patch root
    coupling[roots] = r.couplings_at(roots, "patch roots")
    provenance = {
        "structure": "canopy",
        "K": t.K,
        "L": t.L,
        "l": p.l,
        "seed": r.spec.seed,
        "distribution": r.spec.distribution,
    }
    return SiteOperator(tree_adjacency(t), coupling[p.patch_of], provenance, (t, p), r)


def _fiber_couplings(cg: CayleyGraph, r: DisorderRealization) -> np.ndarray:
    """The coupling of each fiber, fiber by fiber."""
    return r.couplings_at(np.arange(cg.group.size), "fibers")


def assemble_cayley_operator(cg: CayleyGraph, r: DisorderRealization) -> SiteOperator:
    potential = np.repeat(_fiber_couplings(cg, r), cg.n_base)
    provenance = {
        "structure": "cayley",
        "group": cg.group.kind,
        "group_size": cg.group.size,
        "seed": r.spec.seed,
        "distribution": r.spec.distribution,
    }
    return SiteOperator(adjacency_sparse(cg.graph), potential, provenance, cg, r)


def covariance_check(
    cg: CayleyGraph,
    r: DisorderRealization,
    g,
    operator: SiteOperator | None = None,
):
    """Exact check of the covariance identity: conjugating the operator by
    the fiber translation (v,h) -> (v, g*h) equals assembling with the
    shifted couplings, the value at h being the old value at g*h. Returns
    (holds exactly, max entry deviation), the one a dense comparison gives,
    as both operators share the adjacency of cg.graph. operator,
    when given, is the assembled operator of (cg, r), so a caller checking
    many elements assembles it once. With a sequence of elements g, the
    result lists (holds, deviation) element by element.

    The deviation is the larger of an adjacency part and a potential part.
    g -> U_g is a group action, so an adjacency that U_t fixes for each t of
    a generating set (_generating_set) is fixed by every U_g, and its part
    is 0. Only when some U_t moves it is each element's permuted adjacency
    compared by adjacency_deviation, each pass building its translations
    from the group table. The potential part compares fiber g*h of
    op.potential with the coupling of fiber g*h; as h -> g*h permutes the
    fibers, it is the same number for every element: each vertex's
    potential against its fiber's coupling.
    """
    group = cg.group
    require_finite(group, "covariance_check")
    op = assemble_cayley_operator(cg, r) if operator is None else operator
    elements = np.asarray(g, dtype=np.intp).reshape(-1)
    fibers = op.potential.reshape(group.size, cg.n_base)
    potential = np.abs(fibers - _fiber_couplings(cg, r)[:, None]).max(initial=0.0)
    nb = cg.n_base

    def translated(elements):  # the adjacency part under each (v, h) -> (v, g*h)
        return adjacency_deviation(op.adjacency, len(elements), lambda lo, hi: (
            group.table[elements[lo:hi], :, None] * nb + np.arange(nb)).reshape(hi - lo, -1))

    adjacency = np.zeros(elements.size)
    if translated(np.array(_generating_set(group))).any():  # some U_t moves it
        adjacency = translated(elements)
    checks = [(dev == 0.0, dev) for dev in np.maximum(adjacency, potential).tolist()]
    return checks[0] if np.ndim(g) == 0 else checks


def _generating_set(group: GroupSpec) -> list[int]:
    """group's generators, extended greedily by the first element outside
    the subgroup they generate until they generate the whole finite group."""
    gens, table = list(group.generator_indices), group.table
    while True:
        reached, stack = {group.identity}, [group.identity]
        rows = table[:, gens].tolist()
        while stack:  # right products: in a finite group they reach <gens>
            for h in rows[stack.pop()]:
                if h not in reached:
                    reached.add(h)
                    stack.append(h)
        if len(reached) == group.size:
            return gens
        gens.append(next(h for h in range(group.size) if h not in reached))


def adjacency_deviation(a: CSRMatrix, count: int, rows) -> np.ndarray:
    """max |A[phi(a), phi(b)] - A[a, b]| over all (a, b) for each of count
    permutations phi, where rows(lo, hi) returns permutations lo..hi-1 as a
    (hi - lo, n) array. The permutations come in passes of at most
    PERMUTATION_BLOCK permuted entries, or of one permutation where that is
    more. Each stored (a, b) is found at (phi(a), phi(b)) by CSRMatrix.find,
    and stored entries no lookup hits are compared with 0: the deviation is
    the one a dense comparison gives."""
    out, step = np.empty(count), max(1, PERMUTATION_BLOCK // max(1, a.shape[0], a.nnz))
    for lo in range(0, count, step):
        perms = rows(lo, min(lo + step, count))
        pos = a.find(perms[:, a.rows], perms[:, a.indices])
        found = pos >= 0
        deviation = np.abs(np.where(found, a.data[pos] - a.data, a.data))
        deviation = deviation.max(axis=1, initial=0.0)
        if not found.all():  # else phi maps the stored entries onto themselves
            hit = np.zeros((len(perms), a.nnz), dtype=bool)
            hit[np.nonzero(found)[0], pos[found]] = True
            missed = np.where(hit, 0.0, np.abs(a.data)).max(axis=1, initial=0.0)
            deviation = np.maximum(deviation, missed)
        out[lo : lo + step] = deviation
    return out
