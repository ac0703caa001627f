"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (run pytest with ``-s``
or read the captured output) and enforces its runtime budget.
"""

import time

import numpy as np
import pytest

from multispec.anderson import (
    DisorderSpec,
    assemble_canopy_operator,
    assemble_cayley_operator,
    covariance_check,
    sample_disorder,
)
from multispec.automorphism import (
    anderson_automorphisms,
    automorphisms,
    brute_anderson_automorphisms,
)
from multispec.canopy import build_truncated_canopy, potential_roots
from multispec.cayley import (
    CayleyTemplate,
    build_cayley_graph,
    cyclic_group,
    product_of_cyclics,
)
from multispec.cli import run
from multispec.dos import certified_band_count
from multispec.errors import CertificateError
from multispec.graph_core import adjacency_matrix, make_graph, path_graph, prime_paths_graph
from multispec.spectral import (
    canopy_certificates,
    cayley_certificates,
    eig_sym,
    junction_kernel_basis,
    subtree_eigenpairs,
)
from oracle import dense_operator


def report(number, label, failures, started, budget):
    elapsed = time.monotonic() - started
    status = "PASS" if not failures and elapsed <= budget else "FAIL"
    print(f"\n[{status}] criterion {number} ({label}): "
          f"{len(failures)} failures, {elapsed:.2f}s of {budget:.0f}s budget")
    assert elapsed <= budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    assert not failures, f"criterion {number}: " + "; ".join(failures[:10])


@pytest.fixture(scope="module")
def canopy_instance():
    t = build_truncated_canopy(3, 5)
    p = potential_roots(t, 2)
    r = sample_disorder(DisorderSpec(seed=0), p.roots)
    op = assemble_canopy_operator(t, p, r)
    eigs = eig_sym(dense_operator(op)).eigenvalues
    sub = subtree_eigenpairs(3, 1)
    return t, p, r, op, eigs, sub


@pytest.fixture(scope="module")
def cayley_instance():
    glued = prime_paths_graph(4, 2)
    tmpl = CayleyTemplate(
        glued.graph, {-1: glued.junctions[0], 1: glued.junctions[1]}
    )
    cg = build_cayley_graph(tmpl, cyclic_group(6))
    r = sample_disorder(DisorderSpec(seed=1), range(6))
    return glued, cg, r


def split_roots(t, p):
    """Patch roots at depth exactly l, where the canopy construction yields
    eigenvectors, and the deeper roots, where it does not: their support's
    bottom layer borders the depth-l roots of the lower patches, into which
    the spread subtree eigenvector leaks through its leaf values."""
    shallow = [x for x in p.roots if t.depth[x] == p.l]
    deep = [x for x in p.roots if t.depth[x] > p.l]
    return shallow, deep


def test_criterion_1_canopy_multiplicity(canopy_instance):
    started = time.monotonic()
    t, p, r, op, eigs, sub = canopy_instance
    shallow, deep = split_roots(t, p)
    failures = []
    if len(shallow) != 27 or deep != [0]:
        failures.append(f"root split {len(shallow)} depth-l roots and deeper "
                        f"roots {deep}, expected 27 and [0]")
    for x in shallow:
        for k in range(4):
            E = float(sub.eigenvalues[k])
            try:
                certs = canopy_certificates(
                    t, p, r, x, E, sub.eigenvectors[:, k], operator=op
                )
            except CertificateError as exc:
                failures.append(f"root {x} E={E:.4f}: {exc}")
                continue
            if len(certs) != 2:
                failures.append(f"root {x} E={E:.4f}: {len(certs)} certificates")
            if any(c.residual > 1e-9 for c in certs):
                failures.append(f"root {x} E={E:.4f}: residual above 1e-9")
            if certs:  # an empty list is already recorded as a failure above
                mat = np.column_stack([c.dense(t.vertex_count) for c in certs])
                if np.max(np.abs(mat.T @ mat - np.eye(len(certs)))) > 1e-10:
                    failures.append(f"root {x} E={E:.4f}: not orthonormal")
            target = E + r.values[x]
            if int(np.sum(np.abs(eigs - target) <= 1e-7)) < 2:
                failures.append(f"root {x} E={E:.4f}: < 2 matching eigenvalues")
    # a deeper root must be rejected by the residual check: issuing any
    # certificate there would certify a vector that is not an eigenvector
    for x in deep:
        for k in range(4):
            E = float(sub.eigenvalues[k])
            try:
                certs = canopy_certificates(
                    t, p, r, x, E, sub.eigenvectors[:, k], operator=op
                )
            except CertificateError:
                continue
            failures.append(f"deep root {x} E={E:.4f}: {len(certs)} "
                            f"certificates issued, expected a rejection")
    report(1, "canopy multiplicity", failures, started, 10.0)


def test_criterion_2_path_spectra():
    started = time.monotonic()
    failures = []
    spectra = []
    for p in (2, 3, 5, 7):
        k = 2 * p - 1
        es = eig_sym(adjacency_matrix(path_graph(k)))
        expect = np.sort([2 * np.cos(np.pi * j / (2 * p)) for j in range(1, k + 1)])
        if np.max(np.abs(es.eigenvalues - expect)) > 1e-10:
            failures.append(f"p={p}: spectrum mismatch")
        spectra.append(es.eigenvalues)
    common = [
        v
        for v in spectra[0]
        if all(np.min(np.abs(s - v)) <= 1e-8 for s in spectra[1:])
    ]
    if len(common) != 1 or abs(common[0]) > 1e-8:
        failures.append(f"intersection of spectra is {common}, expected {{0}}")
    report(2, "path spectra", failures, started, 1.0)


def test_criterion_3_kernel_dimension(cayley_instance):
    started = time.monotonic()
    glued, _, _ = cayley_instance
    failures = []
    kernel = junction_kernel_basis(glued, 0.0)
    if len(kernel) < 2:
        failures.append(f"kernel dimension {len(kernel)} < 2")
    adj = adjacency_matrix(glued.graph)
    for i, vec in enumerate(kernel):
        if np.max(np.abs(adj @ vec)) > 1e-10:
            failures.append(f"vector {i}: residual above 1e-10")
        if any(vec[j] != 0.0 for j in glued.junctions):
            failures.append(f"vector {i}: nonzero at a junction")
    report(3, "junction kernel dimension", failures, started, 1.0)


def test_criterion_4_cayley_multiplicity(cayley_instance):
    started = time.monotonic()
    glued, cg, r = cayley_instance
    failures = []
    kernel = junction_kernel_basis(glued, 0.0)[:2]
    op = assemble_cayley_operator(cg, r)
    eigs = eig_sym(dense_operator(op)).eigenvalues
    for g in range(6):
        try:
            certs = cayley_certificates(cg, r, g, 0.0, kernel, operator=op)
        except CertificateError as exc:
            failures.append(f"fiber {g}: {exc}")
            continue
        if len(certs) != 2 or any(c.residual > 1e-9 for c in certs):
            failures.append(f"fiber {g}: certificate check failed")
        target = r.values[g]
        if int(np.sum(np.abs(eigs - target) <= 1e-7)) < 2:
            failures.append(f"fiber {g}: cluster count < 2 at {target:.6f}")
    report(4, "cayley multiplicity", failures, started, 5.0)


def test_criterion_5_covariance():
    started = time.monotonic()
    failures = []
    glued = prime_paths_graph(2, 2)
    for group in (cyclic_group(3), cyclic_group(6), product_of_cyclics((2, 2))):
        n = len(group.generators)
        anchors = {}
        for i in range(1, n + 1):
            anchors[-i] = glued.junctions[0]
            anchors[i] = glued.junctions[1]
        cg = build_cayley_graph(CayleyTemplate(glued.graph, anchors), group)
        r = sample_disorder(DisorderSpec(seed=2), range(group.size))
        for g in range(group.size):
            holds, dev = covariance_check(cg, r, g)
            if not holds or dev != 0.0:
                failures.append(f"{group.kind} size {group.size}, g={g}: dev {dev}")
    report(5, "ergodic covariance", failures, started, 1.0)


def test_criterion_6_automorphism_characterization(cayley_instance):
    started = time.monotonic()
    glued, cg, r = cayley_instance
    failures = []
    # (a) rigid prime-paths instance: both orders 1, confirmed by brute force
    stab = automorphisms(glued.graph, fixed=glued.junctions)
    if stab.order != 1:
        failures.append(f"anchor stabilizer order {stab.order} != 1")
    structural = anderson_automorphisms(cg, r)
    if structural.order != 1:
        failures.append(f"structural order {structural.order} != 1")
    brute = brute_anderson_automorphisms(cg, r)
    if brute.order != structural.order:
        failures.append(f"brute order {brute.order} != structural")
    # (b) symmetric-pendant instance: anchor stabilizer of order 2, so the
    # operator-fixing group over cyclic 3 has order 2^3 = 8
    base = make_graph(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
    cg_b = build_cayley_graph(CayleyTemplate(base, {-1: 0, 1: 1}), cyclic_group(3))
    r_b = sample_disorder(DisorderSpec(seed=3), range(3))
    if automorphisms(base, fixed=(0, 1)).order != 2:
        failures.append("pendant anchor stabilizer order != 2")
    structural_b = anderson_automorphisms(cg_b, r_b)
    brute_b = brute_anderson_automorphisms(cg_b, r_b)
    if structural_b.order != 8:
        failures.append(f"pendant structural order {structural_b.order} != 8")
    if brute_b.order != structural_b.order:
        failures.append(f"pendant brute order {brute_b.order} != structural")
    report(6, "automorphism characterization", failures, started, 30.0)


def test_criterion_7_certified_dos_bound(canopy_instance):
    started = time.monotonic()
    t, p, _, _, _, sub = canopy_instance
    shallow, deep = split_roots(t, p)
    failures = []

    def formula_count(roots, r, a, b):
        # (K-1) * #{(y, E) : E + omega_y in [a, b]}, as certified_band_count
        # counts it, restricted to the given roots
        return (t.K - 1) * sum(
            1 for y in roots for E in sub.eigenvalues if a <= E + r.values[y] <= b
        )

    for i in range(20):
        r = sample_disorder(DisorderSpec(seed=i), p.roots)
        op = assemble_canopy_operator(t, p, r)
        whole = certified_band_count(
            t, p, r, (-np.inf, np.inf), operator=op, enforce=False
        )
        if whole.certified_count != 224:
            failures.append(f"realization {i}: whole-line certified "
                            f"{whole.certified_count} != 224")
        split = (formula_count(shallow, r, -np.inf, np.inf),
                 formula_count(deep, r, -np.inf, np.inf))
        if split != (216, 8) or sum(split) != whole.certified_count:
            failures.append(f"realization {i}: whole-line certified "
                            f"{whole.certified_count} splits as {split[0]} "
                            f"depth-l + {split[1]} deeper, expected 216 + 8")
        if whole.certified_count > whole.observed_count:
            failures.append(f"realization {i}: whole-line bound violated")
        for x in p.roots:
            for E in np.unique(sub.eigenvalues):
                target = float(E) + r.values[x]
                a, b = target - 1e-7, target + 1e-7
                bc = certified_band_count(
                    t, p, r, (a, b), operator=op, enforce=False
                )
                # the deeper roots are counted by formula but certified by
                # nothing, so only the depth-l part is a lower bound
                formula_only = formula_count(deep, r, a, b)
                if bc.certified_count - formula_only > bc.observed_count:
                    failures.append(
                        f"realization {i}, root {x}, E={float(E):.4f}: "
                        f"certified {bc.certified_count} - "
                        f"{formula_only} (deeper roots) > "
                        f"observed {bc.observed_count}"
                    )
    report(7, "certified DOS lower bound", failures, started, 60.0)


def test_criterion_8_negative_control(tmp_path):
    started = time.monotonic()
    failures = []
    out = tmp_path / "report.json"
    code = run(
        [
            "canopy-verify",
            "--K", "3", "--L", "2", "--l", "2",
            "--self-test",
            "--out", str(out),
        ]
    )
    if code != 2:
        failures.append(f"self-test exit code {code} != 2")
    import json

    rep = json.loads(out.read_text())
    if not any("negative control tripped" in f for f in rep["failures"]):
        failures.append("perturbed certificate was not rejected")
    report(8, "negative control", failures, started, 1.0)
