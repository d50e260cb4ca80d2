"""Run each workload many times, each in a fresh process with its own seed,
and print every metric's median and quartiles.

    python3 perfbench/repeat.py --runs 10              # all workloads, untraced
    python3 perfbench/repeat.py --workloads census --runs 5 --first-seed 100
    python3 perfbench/repeat.py --runs 1 --trace 1     # per-layer metrics

Runs go one after another, never side by side. The spread printed is
(q3 - q1) / median with quartiles from statistics.quantiles(values, n=4);
the bounds in BENCHMARK.json are set from it. All results are also written
to perfbench/out/repeat-<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("flagvec", "census", "canon")


def _run_seconds() -> float:
    spec = HERE.parent / "BENCHMARK.json"
    if spec.is_file():
        return json.loads(spec.read_text())["run_seconds"]
    return 10


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
        return None
    return json.loads(lines[-1])


def summarise(workload: str, results: list[dict]) -> None:
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"\n{workload}: {len(results)} runs, attempted "
          f"{[r['attempted'] for r in results]}, failed share {shares}")
    print(f"  {'metric':44} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:44} {first['unit']:6} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = _run_seconds() if args.seconds is None else args.seconds

    ok = True
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = run_once(workload, seed, seconds, args.trace)
            if r is None or not r["correct"]:
                ok = False
                continue
            r["seed"] = seed
            results.append(r)
            shown = " ".join(
                f"{k}={m['value']:.6g}{m['unit']}" for k, m in r["metrics"].items()
            )
            print(f"{workload} seed={seed} attempted={r['attempted']} "
                  f"failed={r['failed']} {shown}", flush=True)
        if results:
            out = HERE / "out" / f"repeat-{workload}-trace{args.trace}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(results, indent=1))
            summarise(workload, results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
