"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload flagvec --seed 1 --seconds 10 --trace 0

Set-up is timed from the start of this script to the first timed
operation. The timed phase runs whole rounds of operations, one at a time in
this process, until --seconds have passed. Outputs are checked after it.

With --trace 0 the result holds the end-to-end metrics; set-up is repeated
in fresh processes and its median reported. With --trace 1 it holds the
per-layer metrics: this workload traced for the whole run, the other
workloads' layers from one short traced round each in fresh processes, and
the tracing overhead against an untraced run of the same seed.

Exit status: 0 when every output passed its check, 1 when one did not,
2 when the graphflag sources are missing.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("flagvec", "census", "canon")
SETUP_REPS = 3  # set-ups per untraced run: this process and two fresh ones
CHILD_TIMEOUT_S = 150


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # internal: the fresh processes a run starts for itself
    ap.add_argument("--child", choices=("setup", "layers", "overhead"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _child(workload: str, seed: int, seconds: float, trace: int, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--child", mode]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process of {workload} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_phase(wl, tracer, seconds: float):
    """Whole rounds of operations until `seconds` have passed (at least one)."""
    latencies, done, failed = [], [], 0
    start = time.perf_counter()
    k = 0
    while True:
        for x in wl.round(k):
            if tracer.enabled:
                tracer.op_id = len(latencies) + failed
            t = time.perf_counter()
            try:
                with tracer.span("op"):
                    out = wl.op(x)
            except Exception:  # a failed operation is counted, and the run goes on
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            latencies.append(time.perf_counter() - t)
            done.append((x, out))
        k += 1
        if time.perf_counter() - start >= seconds:
            break
    if tracer.enabled:
        tracer.op_id = None
    return latencies, done, failed, time.perf_counter() - start


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "graphflag" / "__init__.py").is_file():
        print(f"perfbench: no graphflag sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    from spans import NULL, Tracer, p50, p90, span_cost_s

    tracer = Tracer() if args.trace else NULL
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer)
    wl.setup()
    setup_s = time.perf_counter() - T0
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies, done, failed, wall = timed_phase(wl, tracer, args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not done:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    if args.trace:
        wl.probe(done)
    errors = wl.check(done)

    if args.trace:
        metrics = wl.layer_metrics()
        if args.child is None:
            for other in WORKLOAD_NAMES:
                if other != args.workload:
                    got = _child(other, args.seed, 0, 1, "layers")["metrics"]
                    metrics.update({k: (v["value"], v["unit"]) for k, v in got.items()})
            plain = _child(args.workload, args.seed, args.seconds, 0, "overhead")
            untraced_ms = plain["metrics"]["latency_p50_ms"]["value"]
            overhead = (p50(latencies) * 1e3 / untraced_ms - 1) * 100
            metrics["trace.overhead_pct"] = (overhead, "%")
            metrics["trace.span_cost_us"] = (span_cost_s() * 1e6, "us")
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        setups = [setup_s]
        if args.child is None:
            for _ in range(SETUP_REPS - 1):
                setups.append(_child(args.workload, args.seed, 0, 0, "setup")["setup_s"])
        metrics = {
            "ops_per_s": (len(latencies) / wall, "1/s"),
            "latency_p50_ms": (p50(latencies) * 1e3, "ms"),
            "latency_p90_ms": (p90(latencies) * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }

    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(latencies) + failed,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    # on SIGTERM, unwind so that subprocess.run stops the child it waits for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
