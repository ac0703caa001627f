"""multispec benchmark: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload canopy_verify --seed 1 --seconds 20 --trace 0

Each run starts fresh child processes (``child.py``) one after another:
``SETUP_SAMPLES - 1`` that only set up, then one that sets up and runs the
workload's rounds back to back until ``--seconds`` have passed. With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Other modes:
    --self-test             one short round of every workload in both modes;
                            checks metric names against BENCHMARK.json and
                            every operation against reference.json
    --write-benchmark-json  regenerate BENCHMARK.json from spec.py
    --write-reference       regenerate reference.json (round 0, seed 0);
                            only when a report format changes on purpose

BLAS keeps its default thread count; the child records it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every run must end within 180 s
P90_MIN_OPS = 100  # p90 needs at least ten samples beyond it


class BenchError(Exception):
    pass


def _child(workload, seed, seconds, trace, *extra, deadline):
    """Start one child and wait for it; return (set-up seconds, its result
    or None)."""
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            *extra]
    started = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload}: child exceeded the run deadline") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"{workload}: child exited {proc.returncode} unfinished")
    # both clocks are CLOCK_MONOTONIC, shared by every process
    setup = float(lines[0].split()[1]) - started
    return setup, (json.loads(lines[-1]) if len(lines) > 1 else None)


def measure(workload, seed, seconds, trace, record=False):
    """Run one workload; return (lines for people, the result object, the
    workload child's raw result)."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not trace and not record:
        for _ in range(SETUP_SAMPLES - 1):
            setup, _ = _child(workload, seed, 0, 0, "--setup-only", deadline=deadline)
            setups.append(setup)
    extra = ("--record",) if record else ()
    setup, res = _child(workload, seed, seconds, trace, *extra, deadline=deadline)
    if res is None:
        raise BenchError(f"{workload}: child printed no result")
    setups.append(setup)

    attempted, failed = len(res["op_s"]), res["failed_ops"]
    lines = [f"env {json.dumps(res['env'])}"]
    if trace:
        layers = res["layers"]
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in spec.per_layer()}
        lines.append(f"spans written to {res['span_file']}")
    else:
        op_ms = [1000 * s for s in res["op_s"]]
        rounds = res["round_s"]
        values = {
            "setup_s": (statistics.median(setups), f"median of {len(setups)} starts"),
            "wall_s": (statistics.median(rounds), f"median of {len(rounds)} rounds"),
            "op_p50_ms": (statistics.median(op_ms), f"{attempted} operations"),
            "peak_rss_mb": (res["maxrss_kb"] / 1024, "set-up and first round"),
        }
        metrics = {}
        for name, unit, _, _ in spec.END_TO_END:
            value, note = values[name]
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{workload} {name} = {value:.6g} {unit} ({note})")
        if attempted >= P90_MIN_OPS:
            p90 = statistics.quantiles(op_ms, n=10)[8]
            lines.append(f"{workload} op_p90_ms = {p90:.6g} ms ({attempted} ops)")
        else:
            lines.append(f"{workload} op_p90_ms not reported: {attempted} ops")
    lines.append(
        f"{workload} failed_op_share = {failed / attempted:.6g} "
        f"({failed} of {attempted})"
    )
    lines += [f"known defect: {d}" for d in res["known_defects"]]
    lines += [f"FAILED {f}" for f in res["failures"][:20]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result, res


def self_test() -> int:
    """One short round of every workload in both modes, seed 0."""
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if declared != spec.benchmark_json():
        problems.append("BENCHMARK.json differs from spec.py")
    for workload in spec.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result, _ = measure(workload, 0, 0, trace)
            print("\n".join(lines))
            where = f"{workload} --trace {trace}"
            if sorted(result["metrics"]) != sorted(m["name"] for m in declared[key]):
                problems.append(f"{where}: metric names differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{where}: {result['failed']} operations failed")
    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def write_reference() -> int:
    ref = {"seed": 0, "round": 0, "workloads": {}}
    for workload in spec.WORKLOADS:
        _, result, res = measure(workload, 0, 0, 0, record=True)
        if not result["correct"]:
            print("\n".join(res["failures"]), file=sys.stderr)
            return 1
        ref["workloads"][workload] = res["digests"]
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-benchmark-json", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    if args.write_benchmark_json:
        text = json.dumps(spec.benchmark_json(), indent=2)
        (ROOT / "BENCHMARK.json").write_text(text + "\n")
        return 0
    if not (ROOT / "src" / "multispec" / "__init__.py").is_file():
        print(f"error: no multispec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            ap.error("--workload is required")
        lines, result, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
