"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 bench/run.py --write-benchmark-json``), and ``--self-test``
checks that the two agree.
"""

from __future__ import annotations

RUN_SECONDS = 20

WORKLOADS = {
    "canopy_verify": (
        "CLI canopy-verify K4 L5 (one dense eigensolve per operator), a K3 "
        "self-test and a 20-realization dos: distinct operators, so a "
        "spectrum cache has nothing to reuse"
    ),
    "band_sweep": (
        "criterion 7's library pattern on K3 L5: 85 certified_band_count "
        "queries per operator, each re-solving the same spectrum"
    ),
    "cayley_verify": (
        "CLI cayley-verify on cyclic:40 and product:6,6 plus aut cyclic:6: "
        "dense covariance_check per group element, automorphism search"
    ),
    "canopy_large": (
        "library pipeline on K4 L8 (87,381 vertices, above the eig cap): "
        "O(n) dense certificate vectors per call, no eigensolve"
    ),
}

# (name, unit, better, bound as a share of the parent's median). On a shared
# 2-core machine, identical code ran 15-37% faster in some phases than in
# others, each longer than a run, so the timing bounds sit at the 0.25 cap.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# layer (module) -> public functions the traced run wraps in that layer
LAYER_FUNCTIONS = {
    "graph_core": ("adjacency_sparse", "adjacency_matrix"),
    "canopy": ("build_truncated_canopy", "potential_roots", "subtree"),
    "cayley": ("build_group", "build_cayley_graph"),
    "anderson": (
        "sample_disorder",
        "assemble_canopy_operator",
        "assemble_cayley_operator",
        "covariance_check",
    ),
    "spectral": (
        "eig_sym",
        "subtree_eigenpairs",
        "canopy_certificates",
        "cayley_certificates",
        "junction_kernel_basis",
        "cluster_multiplicities",
    ),
    "automorphism": (
        "automorphisms",
        "anderson_automorphisms",
        "brute_anderson_automorphisms",
        "conjugation_deviation",
    ),
    "dos": ("certified_band_count", "eigenvalue_histogram"),
    "cli": ("run",),
}

# (name, unit, better); every per-layer value is per traced round
DERIVED_LAYER_METRICS = (
    ("spectral.eig_sym.dim_max", "count", "lower"),
    ("spectral.eig_sym.flops_est", "flop", "lower"),
    ("spectral.eig_sym.repeat_share", "share", "lower"),
    ("anderson.covariance_check.dense_bytes", "B", "lower"),
    ("spectral.canopy_certificates.accept_share", "share", "higher"),
    ("trace_overhead_share", "share", "lower"),
)


def per_layer() -> list[tuple[str, str, str]]:
    out = []
    for layer, names in LAYER_FUNCTIONS.items():
        for fn in names:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.self_s", "s", "lower"))
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYER_FUNCTIONS]
    return out + list(DERIVED_LAYER_METRICS)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }
