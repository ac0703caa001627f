"""Command-line surface: reproducible experiments emitting JSON/CSV reports.

Exit codes: 0 success, 1 invalid configuration, 2 verification failure
(some residual/tolerance assertion failed), 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import canopy as canopy_mod
from . import cayley as cayley_mod
from . import dos as dos_mod
from . import graph_core, spectral
from .anderson import (
    DisorderSpec,
    assemble_canopy_operator,
    assemble_cayley_operator,
    covariance_check,
    sample_disorder,
)
from .automorphism import (
    anderson_automorphisms,
    automorphisms,
    brute_anderson_automorphisms,
)
from .errors import (
    CertificateError,
    InvalidArgumentError,
    MultispecError,
    TooLargeError,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFICATION = 2
EXIT_TOO_LARGE = 3


def _vertex_cap() -> int:
    return int(os.environ.get("MULTISPEC_VERTEX_CAP", canopy_mod.DEFAULT_VERTEX_CAP))


def _eig_cap() -> int:
    return int(os.environ.get("MULTISPEC_EIG_CAP", spectral.DEFAULT_EIG_CAP))


def _config(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, default=str)
    if getattr(args, "out", None):
        if getattr(args, "format", "json") == "csv" and "csv" in report:
            payload = report["csv"]
        else:
            payload = text
        with open(args.out, "w") as fh:
            fh.write(payload)
    summary = report.get("summary", "")
    print(summary if summary else text)


def _prime_paths_template(pieces: int, scale: int, group):
    glued = graph_core.prime_paths_graph(pieces, scale)
    n = len(group.generators)
    anchors = {}
    for i in range(1, n + 1):
        anchors[-i] = glued.junctions[0]
        anchors[i] = glued.junctions[1]
    template = cayley_mod.CayleyTemplate(
        glued.graph, anchors, {i: (1 if i < 0 else 2) for i in anchors}
    )
    return glued, template


def cmd_canopy_verify(args) -> int:
    t = canopy_mod.build_truncated_canopy(args.K, args.L, vertex_cap=_vertex_cap())
    p = canopy_mod.potential_roots(t, args.l)
    spec = DisorderSpec(seed=args.seed)
    r = sample_disorder(spec, p.roots)
    op = assemble_canopy_operator(t, p, r)
    eigenvalues = spectral.operator_spectrum(op, cap=_eig_cap())
    sub = spectral.subtree_eigenpairs(t.K, args.l - 1)
    results = []
    failures = []
    all_certs = []
    for x in p.roots:
        for k in range(sub.eigenvalues.size):
            E = float(sub.eigenvalues[k])
            psi = sub.eigenvectors[:, k]
            target = E + r.values[x]
            nearby = int(np.sum(np.abs(eigenvalues - target) < 1e-7))
            entry = {
                "patch_root": x,
                "E": E,
                "claimed": target,
                "eig_matches": nearby,
            }
            try:
                certs = spectral.canopy_certificates(t, p, r, x, E, psi, operator=op)
                all_certs.extend(certs)
                entry["residuals"] = [c.residual for c in certs]
                entry["status"] = "pass" if nearby >= t.K - 1 else "fail"
                if nearby < t.K - 1:
                    failures.append(f"root {x} E {E}: only {nearby} matches")
            except CertificateError as exc:
                entry["status"] = "fail"
                entry["error"] = str(exc)
                failures.append(f"root {x} E {E}: {exc}")
            results.append(entry)
    clusters = spectral.cluster_multiplicities(eigenvalues.tolist(), args.tau)
    if args.self_test and all_certs:
        # perturb the first certificate on its own support and run the
        # residual check the certificates passed
        cert = all_certs[0]
        values = np.array([cert.vector.get(i, 0.0) for i in cert.support])
        values[0] += 1e-3
        values /= np.linalg.norm(values)
        residual = float(
            spectral.support_residuals(
                op, np.array(cert.support), values[None, :], cert.eigenvalue
            )[0]
        )
        tolerance = spectral.canopy_tolerance(cert.provenance["E"], t.K, r.max_abs())
        if residual > tolerance:
            failures.append(
                f"self-test: perturbed certificate residual {residual:.3e} "
                f"exceeds tolerance {tolerance:.3e} (negative control tripped)"
            )
        else:
            failures.append(
                "self-test: perturbation was NOT detected; residual check is blind"
            )
    band = dos_mod.certified_band_count(
        t, p, r, (-np.inf, np.inf), operator=op, enforce=False, cap=_eig_cap()
    )
    report = {
        "config": _config(args) | {"distribution": "uniform[0,1]"},
        "certificates_issued": len(all_certs),
        "per_pair": results,
        "clusters_ge_2": sum(1 for _, c in clusters if c >= 2),
        "certified_total": band.certified_count,
        "observed_total": band.observed_count,
        "failures": failures,
        "summary": (
            f"canopy-verify K={args.K} L={args.L} l={args.l}: "
            f"{len(all_certs)} certificates, {len(failures)} failures"
        ),
    }
    _emit(report, args)
    return EXIT_VERIFICATION if failures else EXIT_OK


def cmd_cayley_verify(args) -> int:
    group = cayley_mod.build_group(args.group)
    glued, template = _prime_paths_template(args.pieces, args.scale, group)
    kernel = spectral.junction_kernel_basis(glued, args.E0)
    if not kernel:
        raise CertificateError("junction kernel at E0 is trivial")
    cg = cayley_mod.build_cayley_graph(template, group, vertex_cap=_vertex_cap())
    spec = DisorderSpec(seed=args.seed)
    r = sample_disorder(spec, range(group.size))
    op = assemble_cayley_operator(cg, r)
    eigenvalues = spectral.operator_spectrum(op, cap=_eig_cap())
    failures = []
    per_fiber = []
    for g in cg.interior_fibers():
        target = args.E0 + r.values[g]
        nearby = int(np.sum(np.abs(eigenvalues - target) < args.tau))
        try:
            # kernel vectors live on the glued graph, which is the Cayley base
            certs = spectral.cayley_certificates(
                cg, r, g, args.E0, kernel, operator=op
            )
            per_fiber.append(
                {
                    "fiber": g,
                    "claimed": target,
                    "residuals": [c.residual for c in certs],
                    "eig_matches": nearby,
                }
            )
            if nearby < len(certs):
                failures.append(f"fiber {g}: only {nearby} matching eigenvalues")
        except CertificateError as exc:
            failures.append(f"fiber {g}: {exc}")
    covariance = []
    if group.finite:
        for g in range(group.size):
            holds, dev = covariance_check(cg, r, g)
            covariance.append({"g": g, "holds": holds, "deviation": dev})
            if not holds:
                failures.append(f"covariance broken at g={g} (dev {dev})")
    report = {
        "config": _config(args),
        "kernel_dimension": len(kernel),
        "per_fiber": per_fiber,
        "covariance": covariance,
        "failures": failures,
        "summary": (
            f"cayley-verify pieces={args.pieces} group={args.group}: "
            f"kernel dim {len(kernel)}, {len(failures)} failures"
        ),
    }
    _emit(report, args)
    return EXIT_VERIFICATION if failures else EXIT_OK


def cmd_aut(args) -> int:
    group = cayley_mod.build_group(args.group)
    glued, template = _prime_paths_template(args.pieces, args.scale, group)
    stab = automorphisms(glued.graph, fixed=glued.junctions)
    cg = cayley_mod.build_cayley_graph(template, group, vertex_cap=_vertex_cap())
    spec = DisorderSpec(seed=args.seed)
    r = sample_disorder(spec, range(group.size))
    structural = anderson_automorphisms(cg, r)
    brute_order = None
    if cg.vertex_count <= 200:
        brute = brute_anderson_automorphisms(cg, r)
        brute_order = brute.order
        if brute.order != structural.order:
            raise CertificateError(
                f"brute order {brute.order} != structural {structural.order}"
            )
    report = {
        "config": _config(args),
        "anchor_stabilizer_order": stab.order,
        "aut_and_order": structural.order,
        "brute_order": brute_order,
        "summary": (
            f"aut pieces={args.pieces} group={args.group}: "
            f"Aut(H|anchors) order {stab.order}, Aut_And order {structural.order}"
            + (f", brute {brute_order}" if brute_order is not None else "")
        ),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    with open(args.graph) as fh:
        g = graph_core.from_edge_list_text(fh.read())
    cap = _eig_cap()
    spectral.require_eig_cap(g.vertex_count, cap)
    es = spectral.eig_sym(graph_core.adjacency_matrix(g), cap=cap)
    report = {
        "config": _config(args),
        "eigenvalues": es.eigenvalues.tolist(),
        "residual_bound": es.residual_bound,
        "summary": "spectrum: " + " ".join(f"{v:.12g}" for v in es.eigenvalues),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_dos(args) -> int:
    t = canopy_mod.build_truncated_canopy(args.K, args.L, vertex_cap=_vertex_cap())
    p = canopy_mod.potential_roots(t, args.l)
    spec = DisorderSpec(seed=args.seed)
    lo, hi = -(args.K + 2), args.K + 2
    edges = np.linspace(lo, hi, args.bins + 1)
    hist = dos_mod.eigenvalue_histogram(
        t, p, spec, edges, args.realizations, cap=_eig_cap()
    )
    r = sample_disorder(spec, p.roots)
    total = dos_mod.certified_band_count(
        t, p, r, (-np.inf, np.inf), enforce=False, cap=_eig_cap()
    )
    report = {
        "config": _config(args),
        "histogram": json.loads(hist.to_json()),
        "certified_total_first_realization": total.certified_count,
        "observed_total_first_realization": total.observed_count,
        "csv": hist.to_csv(),
        "summary": (
            f"dos K={args.K} L={args.L} l={args.l}: "
            f"{args.realizations} realizations, mass {hist.normalized.sum():.6f} "
            f"per realization"
        ),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_example1(args) -> int:
    with open(args.pieces_spec) as fh:
        obj = json.load(fh)
    pieces = tuple(
        graph_core.make_graph(pc["n"], [tuple(e) for e in pc["edges"]])
        for pc in obj["pieces"]
    )
    attach = tuple(tuple(pc["attach"]) for pc in obj["pieces"])
    spec = graph_core.GluedGraphSpec(pieces, attach, obj["junction_count"])
    glued = graph_core.glue_subgraphs(spec)
    kernel = spectral.junction_kernel_basis(glued, obj["E0"])
    adj = graph_core.adjacency_matrix(glued.graph)
    residuals = [
        float(np.max(np.abs(adj @ v - obj["E0"] * v))) for v in kernel
    ]
    report = {
        "config": _config(args) | {"E0": obj["E0"]},
        "vertices": glued.graph.vertex_count,
        "edges": glued.graph.edge_count,
        "kernel_dimension": len(kernel),
        "residuals": residuals,
        "summary": (
            f"example1: {glued.graph.vertex_count} vertices, "
            f"kernel dimension {len(kernel)} at E0={obj['E0']}"
        ),
    }
    _emit(report, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multispec",
        description=(
            "Anderson-type operators on canopy trees and Cayley-type graphs "
            "with machine-checkable multiplicity certificates"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("canopy-verify", help="issue and check canopy certificates")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--tau", type=float, default=1e-7)
    p.add_argument(
        "--self-test",
        action="store_true",
        help="perturb one certificate and require the residual check to trip",
    )
    common(p)
    p.set_defaults(func=cmd_canopy_verify)

    p = sub.add_parser("cayley-verify", help="issue and check fiber certificates")
    p.add_argument("--pieces", type=int, required=True)
    p.add_argument("--scale", type=int, default=2, choices=[2, 3])
    p.add_argument("--group", required=True, help="e.g. cyclic:6 or product:2,2")
    p.add_argument("--E0", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=1e-7)
    common(p)
    p.set_defaults(func=cmd_cayley_verify)

    p = sub.add_parser("aut", help="automorphism-group characterization")
    p.add_argument("--pieces", type=int, required=True)
    p.add_argument("--scale", type=int, default=2, choices=[2, 3])
    p.add_argument("--group", required=True)
    common(p)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("spectrum", help="eigenvalues of an imported edge list")
    p.add_argument("--graph", required=True)
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("dos", help="density-of-states histogram")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--realizations", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_dos)

    p = sub.add_parser("example1", help="glued construction from a JSON spec")
    p.add_argument("--pieces-spec", required=True, dest="pieces_spec")
    common(p)
    p.set_defaults(func=cmd_example1)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TooLargeError as exc:
        print(f"error (size cap): {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except CertificateError as exc:
        print(f"error (verification): {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (InvalidArgumentError, MultispecError, OSError) as exc:
        print(f"error (invalid config): {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
