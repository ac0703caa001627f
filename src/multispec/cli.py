"""Command-line surface: reproducible experiments emitting JSON/CSV reports.

Each cmd_* function returns its report; run() writes it, the only place a
report is written, and maps it to the exit code. Exit codes: 0 success,
1 invalid configuration, 2 verification failure (the report lists
failures, or a verification step raised), 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import canopy as canopy_mod
from . import cayley as cayley_mod
from . import dos as dos_mod
from . import automorphism, graph_core, spectral
from .anderson import (
    DisorderSpec,
    assemble_canopy_operator,
    assemble_cayley_operator,
    covariance_check,
    sample_disorder,
)
from .automorphism import anderson_automorphisms, brute_anderson_automorphisms
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

MATCH_WINDOW = 1e-7  # window for eigenvalues matching a claim; the default --tau
BINS_CAP = 1 << 16  # dos bins: the report holds each bin as JSON and as CSV


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise InvalidArgumentError(
            f"{name} must be an integer, got {value!r}"
        ) from None


def _vertex_cap() -> int:
    return _env_int("MULTISPEC_VERTEX_CAP", graph_core.DEFAULT_VERTEX_CAP)


def _eig_cap() -> int:
    return _env_int("MULTISPEC_EIG_CAP", spectral.DEFAULT_EIG_CAP)


def _window(text: str) -> float:
    """A --tau value: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors end in exit 1 with one line, not in argparse's exit 2."""

    def error(self, message):
        raise InvalidArgumentError(message)


def _config(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _emit(report: dict, args) -> None:
    if args.out:
        csv = args.format == "csv" and "csv" in report
        # no indent: indent makes json use its pure-Python encoder, about 3x slower
        text = report["csv"] if csv else json.dumps(report, default=str)
        with open(args.out, "w") as fh:
            fh.write(text)
    print(report["summary"])


def _family_failure(error, nearby: int, residuals: list, noun: str) -> str | None:
    """Why a certificate family fails, or None when it passes: a family
    passes when it was issued and its window holds at least one eigenvalue
    for each of its vectors."""
    if error:
        return str(error)
    return f"only {nearby} {noun}" if nearby < len(residuals) else None


def _prime_paths_template(args):
    """The glued prime-paths base, its Cayley graph over args.group and the
    disorder of args.seed. The vertex cap is checked on |G| * |V(base)| and
    on the group's |G| * 2 * (generator count) right steps, each read from
    the descriptor, before the group is built."""
    glued = graph_core.prime_paths_graph(args.pieces, args.scale)
    cap = _vertex_cap()
    order = cayley_mod.group_order(args.group)
    cayley_mod.require_vertex_cap(glued.graph.vertex_count, order, cap)
    steps = cayley_mod.group_right_steps(args.group)
    if steps > cap:
        raise TooLargeError(f"group {args.group} would have {steps} right steps (cap {cap})")
    group = cayley_mod.build_group(args.group)
    anchors = {}
    for i in range(1, len(group.generators) + 1):
        anchors[-i], anchors[i] = glued.junctions
    template = cayley_mod.CayleyTemplate(glued.graph, anchors)
    cg = cayley_mod.build_cayley_graph(template, group, vertex_cap=cap)
    return glued, cg, sample_disorder(DisorderSpec(seed=args.seed), range(group.size))


def _canopy_model(args):
    """The canopy of args, refused over the eig cap before any operator is
    built, its tiling by depth-l patches and the disorder spec of args.seed."""
    t = canopy_mod.build_truncated_canopy(args.K, args.L, vertex_cap=_vertex_cap())
    spectral.require_eig_cap(t.vertex_count, _eig_cap())
    return t, canopy_mod.potential_roots(t, args.l), DisorderSpec(seed=args.seed)


def cmd_canopy_verify(args) -> dict:
    t, p, spec = _canopy_model(args)
    r = sample_disorder(spec, p.roots)
    op = assemble_canopy_operator(t, p, r)
    sub = spectral.subtree_eigenpairs(t.K, args.l - 1)
    families = spectral.canopy_families(  # refuses l < 2 before anything is solved
        t, p, r, p.roots, sub.eigenvalues, sub.eigenvectors, operator=op
    )
    eigenvalues = spectral.operator_spectrum(op, cap=_eig_cap())
    claims = families.claims.ravel()
    matches = spectral.window_counts(op, claims, args.tau, cap=_eig_cap()).tolist()
    pairs = itertools.product(p.roots, sub.eigenvalues.tolist())
    results = []
    failures = []
    issued = 0
    for (x, E), target, nearby, residuals, error in zip(
        pairs, claims.tolist(), matches, families.residuals.tolist(), families.rejections
    ):
        why = _family_failure(error, nearby, residuals, "matches")
        entry = {"patch_root": x, "E": E, "claimed": target, "eig_matches": nearby}
        if error:
            entry |= {"status": "fail", "error": str(error)}
        else:
            issued += len(residuals)
            entry |= {"residuals": residuals, "status": "fail" if why else "pass"}
        if why:
            failures.append(f"root {x} E {E}: {why}")
        results.append(entry)
    if args.self_test and issued:
        # perturb the first issued certificate on its own support and run
        # the residual check the certificates passed
        i, j = divmod(families.rejections.index(None), sub.eigenvalues.size)
        values = families.values[j, :1].copy()
        values[0, 0] += 1e-3
        values /= np.linalg.norm(values)
        support, claim = families.supports[i], families.claims[i, j]
        residual = float(spectral.support_residuals(op, support, values, claim)[0])
        tolerance = spectral.residual_tolerance(op, sub.eigenvalues[j])
        if residual > tolerance:
            failures.append(
                f"self-test: perturbed certificate residual {residual:.3e} "
                f"exceeds tolerance {tolerance:.3e} (negative control tripped)"
            )
        else:
            failures.append(
                "self-test: perturbation was NOT detected; residual check is blind"
            )
    return {
        "config": _config(args) | {"distribution": "uniform[0,1]"},
        "certificates_issued": issued,
        "per_pair": results,
        "clusters_ge_2": spectral.clusters_ge_2(eigenvalues, args.tau),
        "certified_total": (t.K - 1) * claims.size,
        "observed_total": eigenvalues.size,
        "failures": failures,
        "summary": (
            f"canopy-verify K={args.K} L={args.L} l={args.l}: "
            f"{issued} certificates, {len(failures)} failures"
        ),
    }


def cmd_cayley_verify(args) -> dict:
    glued, cg, r = _prime_paths_template(args)
    kernel = spectral.junction_kernel_basis(glued, args.E0)
    if not kernel:
        raise CertificateError("junction kernel at E0 is trivial")
    op = assemble_cayley_operator(cg, r)
    fibers = cg.interior_fibers()
    # kernel vectors live on the glued graph, which is the Cayley base
    families = spectral.cayley_families(cg, r, fibers, args.E0, kernel, operator=op)
    targets = families.claims.ravel()
    matches = spectral.window_counts(op, targets, args.tau, cap=_eig_cap())
    failures = []
    per_fiber = []
    outcomes = zip(matches.tolist(), families.residuals.tolist(), families.rejections)
    for g, target, (nearby, residuals, error) in zip(fibers, targets.tolist(), outcomes):
        why = _family_failure(error, nearby, residuals, "matching eigenvalues")
        if not error:
            per_fiber.append(
                {"fiber": g, "claimed": target, "residuals": residuals, "eig_matches": nearby}
            )
        if why:
            failures.append(f"fiber {g}: {why}")
    covariance = []
    if cg.group.finite:
        checks = covariance_check(cg, r, range(cg.group.size), operator=op)
        for g, (holds, dev) in enumerate(checks):
            covariance.append({"g": g, "holds": holds, "deviation": dev})
            if not holds:
                failures.append(f"covariance broken at g={g} (dev {dev})")
    return {
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


def cmd_aut(args) -> dict:
    _, cg, r = _prime_paths_template(args)
    structural = anderson_automorphisms(cg, r)
    # on fiber 0, Aut_And's elements run through the anchor stabilizer
    stabilizer_order = len({element[: cg.n_base] for element in structural.elements})
    brute_order = None
    if cg.vertex_count <= automorphism.BRUTE_VERTEX_CAP:
        brute = brute_anderson_automorphisms(cg, r)
        brute_order = brute.order
        if brute.order != structural.order:
            raise CertificateError(
                f"brute order {brute.order} != structural {structural.order}"
            )
    return {
        "config": _config(args),
        "anchor_stabilizer_order": stabilizer_order,
        "aut_and_order": structural.order,
        "brute_order": brute_order,
        "summary": (
            f"aut pieces={args.pieces} group={args.group}: "
            f"Aut(H|anchors) order {stabilizer_order}, Aut_And order {structural.order}"
            + (f", brute {brute_order}" if brute_order is not None else "")
        ),
    }


def cmd_spectrum(args) -> dict:
    with open(args.graph) as fh:
        g = graph_core.from_edge_list_text(fh.read())
    cap = _eig_cap()
    spectral.require_eig_cap(g.vertex_count, cap)
    es = spectral.eig_sym(graph_core.adjacency_matrix(g), cap=cap)
    return {
        "config": _config(args),
        "eigenvalues": es.eigenvalues.tolist(),
        "residual_bound": es.residual_bound,
        "summary": "spectrum: " + " ".join(f"{v:.12g}" for v in es.eigenvalues),
    }


def cmd_dos(args) -> dict:
    t, p, spec = _canopy_model(args)
    lo, hi = -(args.K + 2), args.K + 2
    if args.bins < 1:
        raise InvalidArgumentError(f"--bins must be at least 1, got {args.bins}")
    dos_mod.require_stack_cap(t.vertex_count, args.bins, args.realizations)
    if args.bins > BINS_CAP:
        raise TooLargeError(f"{args.bins} bins exceed the report's bins cap {BINS_CAP}")
    edges = np.linspace(lo, hi, args.bins + 1)
    hist = dos_mod.eigenvalue_histogram(t, p, spec, edges, args.realizations, _eig_cap())
    # K-1 per (root, E) pair; counts_below bracketed all n eigenvalues
    certified = (args.K - 1) * len(p.roots) * canopy_mod.tree_size(args.K, args.l - 1)
    return {
        "config": _config(args),
        "histogram": {k: np.asarray(v).tolist() for k, v in vars(hist).items()},
        "certified_total_first_realization": certified,
        "observed_total_first_realization": t.vertex_count,
        "csv": hist.to_csv(),
        "summary": (
            f"dos K={args.K} L={args.L} l={args.l}: "
            f"{args.realizations} realizations, mass {hist.normalized.sum():.6f} "
            f"per realization"
        ),
    }


def _spec_value(record, key: str, valid):
    """record[key] of an example1 spec if valid accepts it; a missing key or
    a value of the wrong type raises InvalidArgumentError."""
    if not isinstance(record, dict) or key not in record:
        raise InvalidArgumentError(f"pieces spec: missing key {key!r}")
    if not valid(record[key]):
        raise InvalidArgumentError(f"pieces spec: {key!r} has the wrong type")
    return record[key]


def _ints(value) -> bool:
    """A list of integers. JSON true and false load as bool, which is no
    vertex index."""
    return isinstance(value, list) and all(type(x) is int for x in value)


def cmd_example1(args) -> dict:
    with open(args.pieces_spec) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"pieces spec is not JSON: {exc}") from None

    def edge_list(value) -> bool:
        return isinstance(value, list) and all(_ints(e) and len(e) == 2 for e in value)

    records = _spec_value(obj, "pieces", lambda v: isinstance(v, list))
    pieces = tuple(
        graph_core.make_graph(
            _spec_value(pc, "n", lambda v: type(v) is int),
            _spec_value(pc, "edges", edge_list),
        )
        for pc in records
    )
    attach = tuple(tuple(_spec_value(pc, "attach", _ints)) for pc in records)
    m = _spec_value(obj, "junction_count", lambda v: type(v) is int)
    E0 = _spec_value(obj, "E0", lambda v: type(v) in (int, float))
    glued = graph_core.glue_subgraphs(graph_core.GluedGraphSpec(pieces, attach, m))
    # only the pieces are densified, for their eigensolves, but the eig cap
    # still bounds the glued graph as a whole
    spectral.require_eig_cap(glued.graph.vertex_count, _eig_cap())
    kernel = spectral.junction_kernel_basis(glued, E0)
    return {
        "config": _config(args) | {"E0": E0},
        "vertices": glued.graph.vertex_count,
        "edges": glued.graph.edge_count,
        "kernel_dimension": len(kernel),
        "residuals": kernel.residuals.tolist(),
        "summary": (
            f"example1: {glued.graph.vertex_count} vertices, "
            f"kernel dimension {len(kernel)} at E0={E0}"
        ),
    }


@functools.lru_cache(maxsize=1)  # parse_args fills a new namespace on every run
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multispec",
        description=(
            "Anderson-type operators on canopy trees and Cayley-type graphs "
            "with machine-checkable multiplicity certificates"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tau_help = "count the eigenvalues in (fl(t - tau), fl(t + tau)) for each claim t"

    def common(p):
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--seed", type=int, default=0)

    def canopy(p):
        for name in ("--K", "--L", "--l"):
            p.add_argument(name, type=int, required=True)

    def cayley(p):
        p.add_argument("--pieces", type=int, required=True)
        p.add_argument("--scale", type=int, default=2, choices=[2, 3])
        p.add_argument("--group", required=True, help="e.g. cyclic:6 or product:2,2")

    p = sub.add_parser("canopy-verify", help="issue and check canopy certificates")
    canopy(p)
    p.add_argument("--tau", type=_window, default=MATCH_WINDOW, help=tau_help)
    p.add_argument(
        "--self-test",
        action="store_true",
        help="perturb one certificate and require the residual check to trip",
    )
    common(p)
    p.set_defaults(func=cmd_canopy_verify)

    p = sub.add_parser("cayley-verify", help="issue and check fiber certificates")
    cayley(p)
    p.add_argument("--E0", type=float, default=0.0)
    p.add_argument("--tau", type=_window, default=MATCH_WINDOW, help=tau_help)
    common(p)
    p.set_defaults(func=cmd_cayley_verify)

    p = sub.add_parser("aut", help="automorphism-group characterization")
    cayley(p)
    common(p)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("spectrum", help="eigenvalues of an imported edge list")
    p.add_argument("--graph", required=True)
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("dos", help="density-of-states histogram")
    canopy(p)
    p.add_argument("--bins", type=int, default=40, help=f"at most {BINS_CAP}")
    p.add_argument("--realizations", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_dos)

    p = sub.add_parser("example1", help="glued construction from a JSON spec")
    p.add_argument("--pieces-spec", required=True, dest="pieces_spec")
    common(p)
    p.set_defaults(func=cmd_example1)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = args.func(args)
        _emit(report, args)
        return EXIT_VERIFICATION if report.get("failures") else EXIT_OK
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
