#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer numbers.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 10
    python3 perfbench/run.py --workload warm_mix --trace 1
    python3 perfbench/run.py --workload all        # every workload

Workloads: ``cold_start``, ``warm_mix``, ``compile_churn`` and
``cluster_mix`` (see ``README.md`` and ``layer_map.json``).  Each runs
in a process of its own; inputs and the expected outputs are made from
``--seed`` in a separate process before it.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics, or with ``--trace 1`` the
per-layer ones.  A full record (environment, document sizes, the tail
percentile and sample count, the traced spans) goes to
``.perfbench_results/``.  The exit code is non-zero when an output
differs from the reference or the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_start", "warm_mix", "compile_churn", "cluster_mix")

END_TO_END_UNITS = {"setup_s": "s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "throughput_ops_s": "ops/s",
                    "success_ratio": "ratio", "peak_rss_mb": "MB"}

#: generous bound on input generation (the benchmark's own work).
INPUT_TIMEOUT_S = 120


def git_sha() -> Optional[str]:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return None


def layer_units() -> Dict[str, str]:
    with open(os.path.join(HERE, "layer_map.json")) as handle:
        return {name: spec["unit"]
                for name, spec in json.load(handle)["metrics"].items()}


def run_one(args) -> int:
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        command = [sys.executable, os.path.join(HERE, "inputs.py"),
                   args.workload, str(args.seed), work]
        if args.corrupt_reference:
            command.append("--corrupt-reference")
        subprocess.run(command, check=True, timeout=INPUT_TIMEOUT_S)
        with open(os.path.join(work, "inputs.json")) as handle:
            inputs = json.load(handle)
        import workloads
        record = workloads.run(args.workload, inputs, work, args.seconds,
                               bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    units = layer_units() if args.trace else END_TO_END_UNITS
    values = record.pop("metrics")
    unknown = set(values) - set(units)
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from the map: "
                         f"{sorted(unknown)}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    record.update({
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": {"cores": os.cpu_count(),
                        "python": platform.python_version(),
                        "git_sha": git_sha()},
        "documents": {name: {key: spec[key] for key in
                             ("nodes", "xml_bytes", "rpxc_bytes")
                             if key in spec}
                      for name, spec in inputs["documents"].items()},
        "metrics": metrics,
    })
    results = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(
            results, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     f".json"), "w") as handle:
        json.dump(record, handle)

    print(f"# {args.workload}  seed={args.seed}  "
          f"documents={record['documents']}")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:14.4f} {metric['unit']}")
    if not args.trace:
        print(f"  {'fail_ratio':44s} {record['fail_ratio']:14.4f} ratio")
        print(f"  latency_tail_ms is p{record['tail_percentile']:.1f} of "
              f"{record['samples']} samples")
        print("  unscaled: " + "  ".join(
            f"{name}={value:.4f}"
            for name, value in record["raw_metrics"].items()))
    if record["errors"]:
        print(f"  errors: {record['errors']}")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in its own process."""
    status = 0
    combined: Dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
        if args.corrupt_reference:
            command.append("--corrupt-reference")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines: List[str] = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or done.returncode
        if not lines or not lines[-1].startswith("{"):
            correct = False
            continue
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            combined[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip one expected output (the run must "
                             "then fail): a self-test of the check")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no program sources at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
