"""Finite-volume density-of-states histograms and certified lower bounds on
eigenvalue counts in shifted bands."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .anderson import DisorderSpec, assemble_canopy_operator, sample_disorder
from .canopy import PatchSet, TruncatedCanopy
from .errors import CertificateError, InvalidArgumentError, TooLargeError
from .spectral import DEFAULT_EIG_CAP, counts_below, operator_spectrum, require_eig_cap
from .spectral import subtree_eigenpairs

STACK_CAP = 1 << 24  # stacked entries: 128 MiB per stack of float64


def require_stack_cap(vertex_count: int, bins: int, n_realizations: int) -> None:
    """Raise TooLargeError when eigenvalue_histogram would stack more than
    STACK_CAP potentials and shifts, n_realizations x (vertex_count + bins +
    3); callers check before allocating either."""
    entries = n_realizations * (vertex_count + bins + 3)
    if entries > STACK_CAP:
        raise TooLargeError(f"{entries} stacked entries exceed stack cap {STACK_CAP}")


@dataclass(frozen=True)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray  # raw eigenvalue counts, summed over realizations
    normalized: np.ndarray  # per vertex per realization
    n_realizations: int
    dimension: int

    def to_csv(self) -> str:
        lines = ["bin_lo,bin_hi,count,normalized"]
        for lo, hi, c, nrm in zip(
            self.bin_edges[:-1], self.bin_edges[1:], self.counts, self.normalized
        ):
            lines.append(f"{lo},{hi},{c},{nrm}")
        return "\n".join(lines) + "\n"


def eigenvalue_histogram(
    t: TruncatedCanopy,
    p: PatchSet,
    spec: DisorderSpec,
    bin_edges,
    n_realizations: int,
    cap: int = DEFAULT_EIG_CAP,
) -> Histogram:
    """Count the eigenvalues of n_realizations independent operators (seeds
    spec.seed + 0 .. + n-1) in the given bins by spectral.counts_below, with
    cap bounding the dimension and require_stack_cap the stacks; nothing is
    solved. A bin holds [lo, hi) exactly, as in np.histogram, so a tie goes
    to the upper bin; the last holds [lo, hi], counted below the float after
    hi. The realizations share the tree, so only the first is assembled, and
    one stacked elimination counts the potentials of all.
    """
    if n_realizations < 1:
        raise InvalidArgumentError("need at least one realization")
    bin_edges = np.asarray(bin_edges, dtype=float)
    if bin_edges.ndim != 1 or bin_edges.size < 2 or not np.all(np.diff(bin_edges) > 0):
        raise InvalidArgumentError("bin edges must be ascending with >= 2 entries")
    require_eig_cap(t.vertex_count, cap)
    require_stack_cap(t.vertex_count, bin_edges.size - 1, n_realizations)
    operator = assemble_canopy_operator(t, p, sample_disorder(spec, p.roots))
    coupling = np.zeros((n_realizations, t.vertex_count))  # indexed by patch root
    for i in range(1, n_realizations):
        r = sample_disorder(replace(spec, seed=spec.seed + i), p.roots)
        coupling[i, r.sites] = r.couplings
    potentials = coupling[:, p.patch_of]
    potentials[0] = operator.potential
    shifts = np.append(bin_edges[:-1], np.nextafter(bin_edges[-1], np.inf))
    below = counts_below(operator, shifts, cap, potentials=potentials)
    counts = np.diff(below, axis=1).sum(axis=0).astype(float)
    normalized = counts / (t.vertex_count * n_realizations)
    return Histogram(bin_edges, counts, normalized, n_realizations, t.vertex_count)


@dataclass(frozen=True)
class BandCount:
    band: tuple[float, float]
    certified_count: int
    observed_count: int


def certified_band_count(
    t: TruncatedCanopy,
    p: PatchSet,
    r,
    band: tuple[float, float],
    operator=None,
    enforce: bool = True,
    cap: int = DEFAULT_EIG_CAP,
) -> BandCount:
    """Certified lower bound (K-1) * #{(x, E) : E + omega_x in band} against
    the observed eigenvalue count of the assembled operator, E running over
    the depth-(l-1) subtree spectrum with multiplicity.

    The count is a lower bound only in its depth-l part: roots deeper than l
    are counted by the same formula, but canopy_certificates issues nothing
    for them. With enforce=True a certified count exceeding the observed
    count raises, which catches that excess.

    Both counts bisect ascending arrays cached on the operator, its claims
    E + omega_x (_sorted_claims) and its spectrum (spectral.operator_spectrum),
    so repeated queries sum and solve once. An operator that was not
    assembled from (t, p, r) raises InvalidArgumentError: it is matched by
    identity when assemble_canopy_operator built it from r, t and p, and
    otherwise by (K, L, l) and its potential at the patch roots.
    """
    a, b = band
    if not a <= b:
        raise InvalidArgumentError("band must satisfy a <= b")
    if operator is None:
        operator = assemble_canopy_operator(t, p, r)
    elif not (operator.realization is r and operator.tiling == (t, p)):
        _require_assembled_from(operator, t, p, r)
    certified = (t.K - 1) * _count_in(_sorted_claims(operator), a, b)
    observed = _count_in(operator_spectrum(operator, cap), a, b)
    if enforce and certified > observed:
        raise CertificateError(
            f"certified count {certified} exceeds observed {observed} "
            f"in band [{a}, {b}]"
        )
    return BandCount((a, b), certified, observed)


def _count_in(ascending: np.ndarray, a: float, b: float) -> int:
    """#{w in ascending : a <= w <= b}, the count up to b minus the count below a."""
    return int(np.searchsorted(ascending, b, "right") - np.searchsorted(ascending, a, "left"))


def _require_assembled_from(op, t: TruncatedCanopy, p: PatchSet, r) -> None:
    """Raise InvalidArgumentError unless op is a canopy operator of the same
    (K, L, l) whose potential at the patch roots is r's couplings there."""
    roots = np.asarray(p.roots, dtype=np.intp)
    if not (
        isinstance(op.tiling, tuple)
        and (op.tiling[0].K, op.tiling[0].L, op.tiling[1].l) == (t.K, t.L, p.l)
        and np.array_equal(op.potential[roots], r.couplings_at(roots, "patch roots"))
    ):
        raise InvalidArgumentError(
            "operator was not assembled from this canopy, tiling and realization"
        )


def _sorted_claims(op) -> np.ndarray:
    """A canopy operator's claims E + omega_x, one per patch root x and
    depth-(l-1) subtree eigenvalue E with multiplicity, ascending and
    read-only; summed and sorted on the first call and cached on op."""
    if op._claims is None:
        t, p = op.tiling
        spectrum = subtree_eigenpairs(t.K, p.l - 1).eigenvalues
        omega = op.potential[np.asarray(p.roots, dtype=np.intp)]
        claims = np.sort((spectrum + omega[:, None]).ravel())
        claims.flags.writeable = False
        op._claims = claims
    return op._claims
