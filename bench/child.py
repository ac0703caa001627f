"""One benchmark process: set up, print ``ready``, run one workload's rounds
and print the measurements as one JSON line.

Started by ``run.py``; never run two at once. Set-up is what every CLI user
pays: ``import multispec`` plus a first dense eigensolve, which loads and
warms the BLAS.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Address-space limit for the child: far above what any workload needs, and
# low enough that an attempt to densify a huge operator fails at once
# (MemoryError) instead of pushing the machine out of memory.
ADDRESS_SPACE_LIMIT = 6 * 2**30
WARMUP_DIM = 364  # the K3 L5 canopy operator


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true", help="skip the reference check")
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import multispec

    a = np.random.default_rng(0).standard_normal((WARMUP_DIM, WARMUP_DIM))
    multispec.eig_sym(a + a.T)
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    import environment
    import spans
    import workloads

    workloads.OUT_DIR.mkdir(exist_ok=True)
    reference = None
    if args.seed == 0 and not args.record:
        ref = json.loads((BENCH / "reference.json").read_text())
        reference = ref["workloads"][args.workload]
    run_round = workloads.ROUNDS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    rec = workloads.Recorder(tracer=tracer)

    round_s = {False: [], True: []}  # traced? -> round times
    started = time.perf_counter()
    rnd = 0
    # rounds alternate untraced / traced in a traced run, so the overhead
    # share compares like with like; an untraced run never traces
    while True:
        traced = bool(args.trace) and rnd % 2 == 1
        rec.reference = reference if rnd == 0 else None
        t0 = time.perf_counter()
        if traced:
            with tracer.installed():
                run_round(rec, args.seed, rnd)
        else:
            run_round(rec, args.seed, rnd)
        round_s[traced].append(time.perf_counter() - t0)
        # collect the cyclic garbage a round leaves (argparse parsers, ...)
        # here, not at a random point inside a later round's operations
        gc.collect()
        if rnd == 0:
            first_round_ops = len(rec.latencies)
            # peak RSS through set-up and the first round: later rounds add
            # only allocator fragmentation, which grows with the number of
            # rounds a run happens to fit and which a one-command CLI process
            # never reaches
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rnd += 1
        if rec.failures:
            break
        enough = not args.trace or round_s[True]
        if enough and time.perf_counter() - started >= args.seconds:
            break

    result = {
        "round_s": round_s[False],
        "op_s": rec.latencies,
        "failed_ops": rec.failed_ops,
        "failures": rec.failures,
        "known_defects": sorted(rec.known_defects),
        "maxrss_kb": maxrss_kb,
        "env": environment.record(args.seed),
        "digests": rec.digests[:first_round_ops],
    }
    if tracer is not None:
        result["layers"] = spans.summarize(tracer, round_s)
        path = workloads.OUT_DIR / f"spans-{args.workload}.jsonl"
        tracer.write_jsonl(path, {"workload": args.workload, **result["env"]})
        result["span_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
