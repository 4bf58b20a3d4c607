#!/usr/bin/env python3
"""ascankit benchmark: end-to-end command times and per-layer spans.

Run from the root of an ascankit checkout:

    python3 perfbench/run.py --workload sweep-long --seed 0 --seconds 22 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced replay; ``--workload all`` runs every workload in
turn.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run record
(machine, settings, every sample) and the spans go to ``.perfbench_work/``.
See README.md next to this file for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

import workloads

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w.name for w in workloads.WORKLOADS]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ascankit", "cli.py")):
        print(f"error: no ascankit source tree under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # One process, one thread: set before numpy loads; children inherit it.
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)
    import ascankit  # noqa: E402  (must come from this checkout)

    if not os.path.abspath(ascankit.__file__).startswith(src + os.sep):
        print(f"error: ascankit imported from {ascankit.__file__}, not {src}", file=sys.stderr)
        return 2
    from measure import run_workload  # noqa: E402

    chosen = workloads.WORKLOADS if args.workload == "all" else [workloads.by_name(args.workload)]
    attempted = failed = 0
    out: Dict[str, dict] = {}
    for workload in chosen:
        ops, metrics, record = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), root
        )
        attempted += ops.attempted
        failed += ops.failed
        prefix = f"{workload.name}." if args.workload == "all" else ""
        print(f"{workload.name}: seed {args.seed}, {record['repetitions']} repetitions, "
              f"{ops.failed}/{ops.attempted} operations failed")
        print(f"  settings: {json.dumps(record['settings'])}")
        for problem in ops.problems:
            print(f"  problem: {problem}")
        for metric in wanted:
            value = float(metrics.get(metric["name"], 0.0))
            out[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"  {metric['name']:32s} {value:14.6g} {metric['unit']}")
        names = {metric["name"] for metric in wanted}
        for name in sorted(set(metrics) - names):
            print(f"  ({name}){'':{max(30 - len(name), 0)}s} {metrics[name]:14.6g}")
        print(f"  error_rate {ops.failed / max(ops.attempted, 1):.6g}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
