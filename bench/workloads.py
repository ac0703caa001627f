"""The four workloads, one round at a time, with a check per operation.

A round is a fixed sequence of operations on inputs drawn from the workload
seed and the round number, so every round does the same work on fresh
disorder and no round can reuse an earlier round's operators. Each
operation is one public call: ``multispec.cli.run`` or a function exported
by ``multispec``. Names are looked up at call time, so the traced run sees
its wrappers.

Every operation is checked twice:
  * always, against the invariants its output states (formula counts, deep
    patch roots exactly the failures, covariance holding, brute order equal
    to structural order, residuals within their own tolerance);
  * on round 0 of workload seed 0, against ``reference.json``: the exit code
    plus a digest of the report (``config.out`` removed) for CLI calls, and
    the exact counts and pass/fail pattern for library calls.
Designed failures (the deep patch root, which the canopy construction does
not cover) are expected outcomes, not failed operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path

import numpy as np

import multispec
import multispec.cli
from multispec.errors import CertificateError

OUT_DIR = Path(__file__).resolve().parent / "out"
REPORT = OUT_DIR / "report.json"

EXIT_OK, EXIT_VERIFICATION, EXIT_TOO_LARGE = 0, 2, 3


class Recorder:
    """Times each operation, checks its outcome and keeps what the run
    reports: latencies, failed operations and outcome digests."""

    def __init__(self, tracer=None):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.failed_ops = 0
        self.known_defects: set[str] = set()
        self.digests: list[str] = []
        self.reference: list[str] | None = None  # digests to match, if any
        self.tracer = tracer

    def op(self, name, check, fn, *args, expect=(), **kwargs):
        """Run fn(*args, **kwargs) as one timed operation. An exception in
        ``expect`` is a result, handed to ``check`` like a return value.
        ``check`` returns (outcome, problems): outcome is the JSON-able exact
        part compared with the reference, problems the broken invariants."""
        index = len(self.latencies)
        if self.tracer is not None:
            self.tracer.op = index
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except expect as exc:
            # drop the traceback: its frames would keep the failed call's
            # arrays alive until the cyclic collector runs
            result = exc.with_traceback(None)
        self.latencies.append(time.perf_counter() - start)
        outcome, problems = check(result)
        digest = _digest(outcome)
        self.digests.append(digest)
        if self.reference is not None:
            if index >= len(self.reference):
                problems.append("operation missing from the reference")
            elif self.reference[index] != digest:
                problems.append(f"outcome {outcome} differs from the reference")
        self.failed_ops += bool(problems)
        self.failures += [f"op {index} {name}: {p}" for p in problems]
        return result


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _seeds(workload: str, seed: int, rnd: int):
    rng = random.Random(f"{workload}:{seed}:{rnd}")
    return lambda: rng.randrange(2**31)


def tree_size(K: int, depth: int) -> int:
    return (K ** (depth + 1) - 1) // (K - 1)


def patch_roots(K: int, L: int, l: int) -> tuple[range, list[int]]:
    """Patch roots of the truncated canopy, from its BFS numbering alone:
    the depth-l roots (where the certificate construction applies) and the
    deeper ones (where it does not)."""

    def level(depth):
        return range(tree_size(K, L - depth - 1), tree_size(K, L - depth))

    deep = [v for d in range(l + 1, L + 1) if d % (l + 1) == l for v in level(d)]
    return level(l), deep


def formula_count(K: int, L: int, l: int) -> int:
    """(K-1) * #patch roots * #subtree eigenvalues: the whole-line count."""
    shallow, deep = patch_roots(K, L, l)
    return (K - 1) * (len(shallow) + len(deep)) * tree_size(K, l - 1)


def _equal(what, got, want) -> list[str]:
    return [] if got == want else [f"{what} {got}, expected {want}"]


# ---------------------------------------------------------------- CLI calls


def cli(argv: list[str]):
    """One CLI invocation with its report written under bench/out."""
    REPORT.unlink(missing_ok=True)
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        return multispec.cli.run([*argv, "--out", str(REPORT)])


def _cli_check(expected_exit: int, invariants):
    """Check a CLI call: its exit code, then ``invariants(report)`` on the
    report it wrote (``config.out`` removed)."""

    def check(code):
        problems = _equal("exit", code, expected_exit)
        report = None
        if REPORT.exists():
            report = json.loads(REPORT.read_text())
            report["config"].pop("out", None)
            problems += invariants(report)
        else:
            problems.append("no report written")
        digest = _digest(report) if report is not None else None
        return {"exit": code, "report": digest}, problems

    return check


def canopy_verify_invariants(K: int, L: int, l: int, self_test: bool):
    shallow, deep = patch_roots(K, L, l)
    n_E = tree_size(K, l - 1)

    def invariants(rep) -> list[str]:
        per_pair = rep["per_pair"]
        failed = sorted(e["patch_root"] for e in per_pair if e["status"] == "fail")
        problems = []
        if failed != sorted(deep * n_E):
            problems.append(f"failing roots {sorted(set(failed))}, deep roots {deep}")
        problems += _equal("certificates", rep["certificates_issued"],
                           (K - 1) * len(shallow) * n_E)
        problems += _equal("certified total", rep["certified_total"],
                           formula_count(K, L, l))
        problems += _equal("observed total", rep["observed_total"], tree_size(K, L))
        for e in per_pair:
            tol = 1e-9 * (1.0 + abs(e["E"]) + K + 1 + 1.0)  # |omega| <= 1
            if e["status"] == "pass" and (
                e["eig_matches"] < K - 1 or max(e["residuals"]) > tol
            ):
                problems.append(f"root {e['patch_root']} E {e['E']} out of tolerance")
        tripped = [f for f in rep["failures"] if f.startswith("self-test")]
        if len(tripped) != int(self_test):
            problems.append(f"self-test messages {tripped}")
        elif self_test and "negative control tripped" not in tripped[0]:
            problems.append("perturbed certificate was not rejected")
        problems += _equal("failure messages", len(rep["failures"]) - len(tripped),
                           len(deep) * n_E)
        return problems

    return _cli_check(EXIT_VERIFICATION, invariants)


def dos_invariants(K: int, L: int, l: int, realizations: int):
    n = tree_size(K, L)

    def invariants(rep) -> list[str]:
        hist = rep["histogram"]
        problems = _equal("histogram mass", sum(hist["counts"]), n * realizations)
        if abs(sum(hist["normalized"]) - 1.0) > 1e-12 * len(hist["normalized"]):
            problems.append("normalized histogram does not sum to 1")
        problems += _equal("certified total", rep["certified_total_first_realization"],
                           formula_count(K, L, l))
        problems += _equal("observed total", rep["observed_total_first_realization"], n)
        return problems

    return _cli_check(EXIT_OK, invariants)


def cayley_verify_invariants(order: int):
    def invariants(rep) -> list[str]:
        problems = _equal("failures", rep["failures"], [])
        cov = rep["covariance"]
        exact = all(c["holds"] and c["deviation"] == 0.0 for c in cov)
        if len(cov) != order or not exact:
            problems.append("covariance does not hold at every group element")
        dim = rep["kernel_dimension"]
        if dim < 1 or not rep["per_fiber"]:
            problems.append("no certificates")
        for f in rep["per_fiber"]:
            if len(f["residuals"]) != dim or f["eig_matches"] < dim:
                problems.append(f"fiber {f['fiber']}: {f['eig_matches']} matches")
        return problems

    return _cli_check(EXIT_OK, invariants)


def aut_invariants(order: int):
    def invariants(rep) -> list[str]:
        problems = _equal("brute order", rep["brute_order"], rep["aut_and_order"])
        # structural order is |Aut(base | anchors)|^|G|
        problems += _equal("structural order", rep["aut_and_order"],
                           rep["anchor_stabilizer_order"] ** order)
        return problems

    return _cli_check(EXIT_OK, invariants)


# ------------------------------------------------------------ library calls


def _canopy_instance(rec: Recorder, K: int, L: int, l: int, disorder_seed: int):
    ms = multispec
    shallow, deep = patch_roots(K, L, l)

    def expect(what, measure, want):
        return lambda result: (measure(result), _equal(what, measure(result), want))

    n, n_E = tree_size(K, L), tree_size(K, l - 1)
    t = rec.op("build", expect("vertices", lambda t: t.vertex_count, n),
               ms.build_truncated_canopy, K, L)
    roots = sorted([*shallow, *deep])
    p = rec.op("tile", expect("roots", lambda p: sorted(p.roots), roots),
               ms.potential_roots, t, l)
    r = rec.op("sample", expect("sites", lambda r: list(r.values), list(p.roots)),
               ms.sample_disorder, ms.DisorderSpec(seed=disorder_seed), p.roots)
    op = rec.op("assemble", expect("dimension", lambda op: op.dimension, n),
                ms.assemble_canopy_operator, t, p, r)
    sub = rec.op("subtree spectrum",
                 expect("eigenpairs", lambda s: len(s.eigenvalues), n_E),
                 ms.subtree_eigenpairs, K, l - 1)
    return t, p, r, op, sub


def band_check(K, spectrum, values, band, x_is_deep, observed=None):
    """A band query returns the formula count (K-1) * #{(x, E) : E + omega_x
    in band}; the bound certified <= observed holds at depth-l roots and
    fails at the deep one (criterion 7's designed failures). ``observed``,
    when given, is the exact eigenvalue count the band must see."""
    lo, hi = band
    shifted = spectrum[None, :] + values[:, None]
    certified = (K - 1) * int(np.sum((shifted >= lo) & (shifted <= hi)))

    def check(bc):
        outcome = {"certified": bc.certified_count, "observed": bc.observed_count}
        problems = _equal("certified", bc.certified_count, certified)
        if observed is not None:
            problems += _equal("observed", bc.observed_count, observed)
        if (bc.certified_count > bc.observed_count) != x_is_deep:
            problems.append(f"band bound pattern {outcome}")
        return outcome, problems

    return check


def certificate_check(K, x_is_deep, E, omega, max_abs):
    def check(result):
        if isinstance(result, CertificateError):
            problems = [] if x_is_deep else [f"depth-l root rejected: {result}"]
            return {"error": "CertificateError"}, problems
        if x_is_deep:
            return {"issued": len(result)}, ["deep root was certified"]
        tol = 1e-9 * (1.0 + abs(E) + K + 1 + max_abs)
        problems = _equal("certificates", len(result), K - 1)
        if any(c.residual > tol or c.eigenvalue != E + omega for c in result):
            problems.append("certificate out of tolerance")
        return {"issued": len(result)}, problems

    return check


# ----------------------------------------------------------------- rounds


def round_canopy_verify(rec: Recorder, seed: int, rnd: int):
    draw = _seeds("canopy_verify", seed, rnd)
    canopy = ["--K", "4", "--L", "5", "--l", "2"]
    small = ["--K", "3", "--L", "5", "--l", "2"]
    for _ in range(3):
        rec.op("canopy-verify K4 L5", canopy_verify_invariants(4, 5, 2, False),
               cli, ["canopy-verify", *canopy, "--seed", str(draw())])
    rec.op("canopy-verify K3 L5 self-test", canopy_verify_invariants(3, 5, 2, True),
           cli, ["canopy-verify", *small, "--self-test", "--seed", str(draw())])
    rec.op("dos K3 L5", dos_invariants(3, 5, 2, 20),
           cli, ["dos", *small, "--realizations", "20", "--seed", str(draw())])


def round_band_sweep(rec: Recorder, seed: int, rnd: int):
    K, L, l = 3, 5, 2
    draw = _seeds("band_sweep", seed, rnd)
    t, p, r, op, sub = _canopy_instance(rec, K, L, l, draw())
    _, deep = patch_roots(K, L, l)
    spectrum = sub.eigenvalues
    values = np.array([r.values[x] for x in p.roots])
    whole = (-np.inf, np.inf)
    whole_check = band_check(K, spectrum, values, whole, False, t.vertex_count)
    rec.op("band whole line", whole_check,
           multispec.certified_band_count, t, p, r, whole, operator=op, enforce=False)
    for x in p.roots:
        for E in np.unique(spectrum):
            target = float(E) + r.values[x]
            band = (target - 1e-7, target + 1e-7)
            rec.op("band narrow", band_check(K, spectrum, values, band, x in deep),
                   multispec.certified_band_count, t, p, r, band,
                   operator=op, enforce=False)


def round_cayley_verify(rec: Recorder, seed: int, rnd: int):
    draw = _seeds("cayley_verify", seed, rnd)
    for group, order in (("cyclic:40", 40), ("product:6,6", 36)):
        argv = ["--pieces", "4", "--group", group, "--seed", str(draw())]
        rec.op(f"cayley-verify {group}", cayley_verify_invariants(order),
               cli, ["cayley-verify", *argv])
    argv = ["--pieces", "4", "--group", "cyclic:6", "--seed", str(draw())]
    rec.op("aut cyclic:6", aut_invariants(6), cli, ["aut", *argv])


# every 32nd of the 4,096 depth-2 roots at each of the 5 subtree eigenpairs,
# plus all 65 deeper roots at one eigenpair each (cycling through them): the
# deep calls, which fail early by design, stay a minority, so op_p50_ms is
# the middle of the depth-l certificate calls
LARGE_ROOT_STRIDE = 32


def round_canopy_large(rec: Recorder, seed: int, rnd: int):
    K, L, l = 4, 8, 2
    draw = _seeds("canopy_large", seed, rnd)
    t, p, r, op, sub = _canopy_instance(rec, K, L, l, draw())
    shallow, deep = patch_roots(K, L, l)
    max_abs = r.max_abs()
    n_E = sub.eigenvalues.size
    pairs = [(x, k) for x in shallow[::LARGE_ROOT_STRIDE] for k in range(n_E)]
    pairs += [(x, i % n_E) for i, x in enumerate(deep)]
    for x, k in pairs:
        E, psi = float(sub.eigenvalues[k]), sub.eigenvectors[:, k]
        rec.op("canopy_certificates",
               certificate_check(K, x in deep, E, r.values[x], max_abs),
               multispec.canopy_certificates, t, p, r, x, E, psi,
               operator=op, expect=(CertificateError,))

    def check_cap(result):
        if isinstance(result, MemoryError):
            # known defect: cmd_canopy_verify densifies the n x n operator
            # before eig_sym checks the eig cap, so the allocation fails
            # (under the child's address-space limit) instead of exit 3
            rec.known_defects.add("canopy-verify K4 L8: MemoryError before the eig cap")
        elif result != EXIT_TOO_LARGE:
            return {"exit": result}, [f"exit {result}, expected 3 (size cap)"]
        return {"rejected_oversize": True}, []

    argv = ["canopy-verify", "--K", "4", "--L", "8", "--l", "2", "--seed", str(draw())]
    rec.op("canopy-verify K4 L8", check_cap, cli, argv, expect=(MemoryError,))


ROUNDS = {
    "canopy_verify": round_canopy_verify,
    "band_sweep": round_band_sweep,
    "cayley_verify": round_cayley_verify,
    "canopy_large": round_canopy_large,
}
