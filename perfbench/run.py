"""Seeded benchmark for astpn.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. ``--workload all`` runs every
workload, each in its own process so peak RSS stays per workload. Human
readable lines come first, then a JSON line with the full report, and last a
JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Working files go to ``.perfbench/`` in the checkout; traces stay in
``.perfbench/traces``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("train-small", "train-reid", "eval-cli")

# The end-to-end metrics under the names a user of each workload reads them by.
USER_NAMES = {
    "train": {"op_ms.p50": "step_ms.p50", "op_ms.tail": "step_ms.tail",
              "items_per_s": "pairs_per_s"},
    "eval": {"op_ms.p50": "eval_run_s.p50", "op_ms.tail": "eval_run_s.tail",
             "items_per_s": "eval_seqs_per_s"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_user_metrics(result: dict, report: dict) -> None:
    kind = "eval" if report["workload"] == "eval-cli" else "train"
    names = USER_NAMES[kind]
    metrics = result["metrics"]
    print(f"# {report['workload']} seed={report['seed']} env={json.dumps(report['env'])}")
    if report["trace"]:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        t = report["tracing"]
        print(f"trace.overhead_ms = {t['overhead_ms']:.6g} ms "
              f"(traced p50 {t['traced_p50_ms']:.6g} ms over {t['traced_ops']} ops, "
              f"untraced {t['untraced_p50_ms']:.6g} ms over {t['untraced_ops']} ops)")
    else:
        scale, unit = (1e-3, "s") if kind == "eval" else (1.0, "ms")
        print(f"setup_s = {metrics['setup_s']['value']:.6g} s")
        print(f"{names['op_ms.p50']} = {metrics['op_ms.p50']['value'] * scale:.6g} {unit}")
        tail = report["op_ms"]["tail"]
        if tail["value"] is None:
            print(f"{names['op_ms.tail']} = n/a (n={tail['n']}, needs at least 20 samples)")
        else:
            print(f"{names['op_ms.tail']} = {tail['value'] * scale:.6g} {unit} "
                  f"(p{tail['percentile']}, n={tail['n']})")
        print(f"{names['items_per_s']} = {metrics['items_per_s']['value']:.6g} 1/s")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']['value']:.6g} MB")
    print(f"error_rate = {report['error_rate']:.6g} ({result['failed']}/{result['attempted']})")


def run_all(args) -> int:
    """Each workload in a child process; the last line combines their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "astpn" / "__init__.py").is_file():
        print(f"error: no astpn sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import workloads

    work = OUT / f"work-{os.getpid()}"
    trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    try:
        result, report = workloads.run(args.workload, args.seed, args.seconds,
                                       bool(args.trace), work, trace_path=trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_user_metrics(result, report)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
