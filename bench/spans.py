"""Outside-in spans around multispec's public functions.

The tracer rebinds each listed function, in every ``multispec`` module that
holds a reference to it, to a wrapper that records one span per call: name,
start, end, parent span and the operation it belongs to. Spans stay in
memory; ``write_jsonl`` dumps them when the benchmark ends. Nothing inside
the program is changed, so an untraced round runs the original functions.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from spec import LAYER_FUNCTIONS

# Golub & Van Loan: symmetric QR with eigenvectors ~9n^3, plus the residual
# (M @ v) and Gram (v.T @ v) self-checks of eig_sym at 2n^3 each.
EIG_SYM_FLOPS_PER_N3 = 9 + 2 + 2
FLOAT64_BYTES = 8
# covariance_check densifies the operator, its permuted copy and the shifted
# re-assembly: three n x n float64 matrices per call.
COVARIANCE_DENSE_MATRICES = 3


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float
    overhead: float  # wrapper bookkeeping outside [start, end]
    ok: bool
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.operators: list[dict] = []
        self.op: int | None = None  # current benchmark operation
        self._stack: list[int] = []
        self._seen_inputs: set[bytes] = set()
        self.origin = time.perf_counter()

    # -- hooks: extra facts recorded from outside, excluded from the span --

    def _pre(self, name: str, args, kwargs) -> dict:
        if name == "spectral.eig_sym":
            M = np.ascontiguousarray(args[0] if args else kwargs["M"], dtype=float)
            digest = hashlib.blake2b(M.tobytes(), digest_size=16).digest()
            repeat = digest in self._seen_inputs
            self._seen_inputs.add(digest)
            return {"dim": int(M.shape[0]), "input": digest.hex(), "repeat": repeat}
        if name == "anderson.covariance_check":
            n = (args[0] if args else kwargs["cg"]).vertex_count
            return {"dense_bytes": COVARIANCE_DENSE_MATRICES * n * n * FLOAT64_BYTES}
        return {}

    def _post(self, name: str, span_id: int, result) -> None:
        # an operator's dimension is the dimension its eigensolve is handed;
        # eig_sym spans carry their own dimension and input digest
        if name.startswith("anderson.assemble_"):
            self.operators.append(
                {
                    "span": span_id,
                    "structure_hash": result.structure_hash(),
                    "dimension": result.dimension,
                    "provenance": result.provenance,
                }
            )

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            attrs = self._pre(name, args, kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if ok:
                    self._post(name, span_id, result)
                overhead = time.perf_counter() - t_in - (end - start)
                self.spans[span_id] = Span(
                    span_id, parent, self.op, name, start, end, overhead, ok, attrs
                )

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every listed function in every loaded multispec module to
        its wrapper for the duration of the block."""
        wrappers = {}  # id(original) -> wrapper
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"multispec.{layer}"]
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = self._wrap(f"{layer}.{fn_name}", fn)
        rebound = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "multispec" and not mod_name.startswith("multispec."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    rebound.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in rebound:
                setattr(module, attr, value)

    # -- summaries --

    def self_times(self) -> dict[str, float]:
        """Per function: span duration minus what its child spans (and their
        wrapper bookkeeping) cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += (s.end - s.start) + s.overhead
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered[s.id]
        return out

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "env", **header}) + "\n")
            for s in self.spans:
                record = {
                    "kind": "span",
                    "id": s.id,
                    "parent": s.parent,
                    "op": s.op,
                    "name": s.name,
                    "start": s.start - self.origin,
                    "end": s.end - self.origin,
                    "ok": s.ok,
                    **s.attrs,
                }
                fh.write(json.dumps(record) + "\n")
            for o in self.operators:
                fh.write(json.dumps({"kind": "operator", **o}, default=str) + "\n")


def summarize(tracer: Tracer, round_s: dict[bool, list[float]]) -> dict[str, float]:
    """Per-layer metrics per traced round; ``round_s`` maps traced? to the
    round times of the same run."""
    rounds = len(round_s[True])
    calls = Counter(s.name for s in tracer.spans)
    self_s = tracer.self_times()
    out: dict[str, float] = {}
    for layer, names in LAYER_FUNCTIONS.items():
        keys = [f"{layer}.{fn}" for fn in names]
        for key in keys:
            out[f"{key}.calls"] = calls[key] / rounds
            out[f"{key}.self_s"] = self_s.get(key, 0.0) / rounds
        out[f"{layer}.self_s"] = sum(self_s.get(k, 0.0) for k in keys) / rounds

    def spans_of(name):
        return [s for s in tracer.spans if s.name == name]

    eig = spans_of("spectral.eig_sym")
    out["spectral.eig_sym.dim_max"] = max((s.attrs["dim"] for s in eig), default=0)
    out["spectral.eig_sym.flops_est"] = (
        sum(EIG_SYM_FLOPS_PER_N3 * s.attrs["dim"] ** 3 for s in eig) / rounds
    )
    out["spectral.eig_sym.repeat_share"] = (
        sum(s.attrs["repeat"] for s in eig) / len(eig) if eig else 0.0
    )
    cov = spans_of("anderson.covariance_check")
    out["anderson.covariance_check.dense_bytes"] = (
        sum(s.attrs["dense_bytes"] for s in cov) / rounds
    )
    certs = spans_of("spectral.canopy_certificates")
    out["spectral.canopy_certificates.accept_share"] = (
        sum(s.ok for s in certs) / len(certs) if certs else 0.0
    )
    out["trace_overhead_share"] = (
        statistics.median(round_s[True]) / statistics.median(round_s[False]) - 1.0
    )
    return out
