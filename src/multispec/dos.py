"""Finite-volume density-of-states histograms and certified lower bounds on
eigenvalue counts in shifted bands."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .anderson import DisorderSpec, assemble_canopy_operator, sample_disorder
from .canopy import PatchSet, TruncatedCanopy
from .errors import CertificateError, InvalidArgumentError
from .spectral import DEFAULT_EIG_CAP, operator_spectrum, subtree_eigenpairs


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "bin_edges": self.bin_edges.tolist(),
                "counts": self.counts.tolist(),
                "normalized": self.normalized.tolist(),
                "n_realizations": self.n_realizations,
                "dimension": self.dimension,
            }
        )


def eigenvalue_histogram(
    t: TruncatedCanopy,
    p: PatchSet,
    spec: DisorderSpec,
    bin_edges,
    n_realizations: int,
    cap: int = DEFAULT_EIG_CAP,
) -> Histogram:
    """Accumulate the spectra of n_realizations independent operators
    (seeds spec.seed + 0 .. + n-1) into the given bins; cap bounds the
    dimension of each dense solve."""
    if n_realizations < 1:
        raise InvalidArgumentError("need at least one realization")
    bin_edges = np.asarray(bin_edges, dtype=float)
    if bin_edges.ndim != 1 or bin_edges.size < 2 or np.any(np.diff(bin_edges) <= 0):
        raise InvalidArgumentError("bin edges must be ascending with >= 2 entries")
    counts = np.zeros(bin_edges.size - 1)
    for i in range(n_realizations):
        r = sample_disorder(replace(spec, seed=spec.seed + i), p.roots)
        op = assemble_canopy_operator(t, p, r)
        counts += np.histogram(operator_spectrum(op, cap), bins=bin_edges)[0]
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

    With enforce=True a certified count exceeding the observed count raises,
    since the certificates are supposed to bound multiplicity from below.
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
