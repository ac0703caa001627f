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
        coupling[i, list(r.values)] = list(r.values.values())
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

    The observed count reads the operator's cached spectrum (see
    spectral.operator_spectrum), so repeated queries solve it once.
    """
    a, b = band
    if not a <= b:
        raise InvalidArgumentError("band must satisfy a <= b")
    if operator is None:
        operator = assemble_canopy_operator(t, p, r)
    spectrum = subtree_eigenpairs(t.K, p.l - 1).eigenvalues
    shifted = spectrum + np.array([r.values[x] for x in p.roots])[:, None]
    certified = (t.K - 1) * int(np.sum((shifted >= a) & (shifted <= b)))
    eigs = operator_spectrum(operator, cap)
    observed = int(np.sum((eigs >= a) & (eigs <= b)))
    if enforce and certified > observed:
        raise CertificateError(
            f"certified count {certified} exceeds observed {observed} "
            f"in band [{a}, {b}]"
        )
    return BandCount((a, b), certified, observed)
