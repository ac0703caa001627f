"""Disorder sampling and assembly of the random operators.

The canopy operator adds one i.i.d. coupling per patch (constant on the
whole depth-l subtree); the Cayley operator adds one coupling per fiber.
Sampling uses numpy's PCG64 generator seeded explicitly and drawn in the
canonical site order, so realizations are bit-reproducible.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .canopy import PatchSet, TruncatedCanopy
from .cayley import CayleyGraph, GroupSpec, require_finite
from .errors import DegenerateDisorderError, InvalidArgumentError
from .graph_core import adjacency_sparse

UNIFORM = "uniform"
POINT_MASS = "point_mass"
TWO_POINT = "two_point"


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

    def max_abs(self) -> float:
        return max(abs(p) for p in self.params)


@dataclass(frozen=True)
class DisorderRealization:
    values: dict[int, float]
    spec: DisorderSpec

    def max_abs(self) -> float:
        return self._max_abs

    @functools.cached_property
    def _max_abs(self) -> float:
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
    spectrum once and caches it on the instance.
    """

    def __init__(self, adjacency: sp.csr_matrix, potential: np.ndarray, provenance):
        if adjacency.shape[0] != adjacency.shape[1]:
            raise InvalidArgumentError("adjacency must be square")
        if adjacency.shape[0] != potential.shape[0]:
            raise InvalidArgumentError("potential length mismatch")
        potential = potential.view()
        potential.flags.writeable = False
        self._adjacency = adjacency
        self._potential = potential
        self.provenance = provenance
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

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.adjacency @ v + self.potential * v

    def to_dense(self) -> np.ndarray:
        return self.adjacency.toarray() + np.diag(self.potential)

    def structure_hash(self) -> str:
        coo = self.adjacency.tocoo()
        payload = (
            coo.row.tobytes() + coo.col.tobytes() + self.potential.tobytes()
        )
        return hashlib.sha256(payload).hexdigest()[:16]

    def export_coordinate_text(self) -> str:
        coo = sp.triu(self.adjacency).tocoo()
        lines = [f"{i} {j} {v}" for i, j, v in zip(coo.row, coo.col, coo.data)]
        lines += [f"{i} {i} {v}" for i, v in enumerate(self.potential)]
        return "\n".join(lines) + "\n"

    def export_metadata(self) -> str:
        return json.dumps(
            {"provenance": self.provenance, "hash": self.structure_hash()}
        )


def assemble_canopy_operator(
    t: TruncatedCanopy, p: PatchSet, r: DisorderRealization
) -> SiteOperator:
    missing = [x for x in p.roots if x not in r.values]
    if missing:
        raise InvalidArgumentError(f"realization misses patch roots {missing[:5]}")
    potential = np.array([r.values[p.patch_of[v]] for v in range(t.vertex_count)])
    provenance = {
        "structure": "canopy",
        "K": t.K,
        "L": t.L,
        "l": p.l,
        "seed": r.spec.seed,
        "distribution": r.spec.distribution,
    }
    return SiteOperator(adjacency_sparse(t.graph), potential, provenance)


def _fiber_potential(cg: CayleyGraph, r: DisorderRealization) -> np.ndarray:
    """The coupling of each vertex's fiber, vertex by vertex."""
    missing = [g for g in range(cg.group.size) if g not in r.values]
    if missing:
        raise InvalidArgumentError(f"realization misses fibers {missing[:5]}")
    per_fiber = np.array([r.values[g] for g in range(cg.group.size)])
    return per_fiber[np.asarray(cg.fiber, dtype=np.intp)]


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
    at g*h."""
    require_finite(group, "shift_disorder")
    shifted = {h: r.values[group.mul(g, h)] for h in range(group.size)}
    return DisorderRealization(shifted, r.spec)


def covariance_check(
    cg: CayleyGraph, r: DisorderRealization, g: int
) -> tuple[bool, float]:
    """Exact check of the covariance identity: conjugating the operator by
    the fiber translation (v,h) -> (v, g*h) equals assembling with the
    shifted couplings. Returns (holds exactly, max entry deviation).

    Both operators share the adjacency of cg.graph, which has no self-loops,
    so the permuted adjacency and the permuted potential are compared
    separately, in O(nnz), with the same deviation a dense comparison gives.
    """
    require_finite(cg.group, "covariance_check")
    op = assemble_cayley_operator(cg, r)
    shifted_potential = _fiber_potential(cg, shift_disorder(r, g, cg.group))
    nb = cg.n_base
    # permutation phi(v,h) = (v, g*h); (U_g M U_g*)[a,b] = M[phi(a), phi(b)]
    gh = np.array([cg.group.mul(g, h) for h in range(cg.group.size)])
    phi = (gh[:, None] * nb + np.arange(nb)).ravel()
    adjacency_diff = op.adjacency[phi][:, phi] - op.adjacency
    dev = max(
        float(np.max(np.abs(adjacency_diff.data), initial=0.0)),
        float(np.max(np.abs(op.potential[phi] - shifted_potential), initial=0.0)),
    )
    return dev == 0.0, dev
