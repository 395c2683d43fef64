"""One workload in a fresh interpreter; started by run.py, not by hand.

  worker.py --workload W --seed S --workdir DIR --setup-only
      import pdvol.cli, build the workload's inputs, print "ready", exit.
  worker.py --workload W --seed S --workdir DIR --seconds T --trace 0|1 --result FILE [--spans FILE]
      run the workload's passes and write their measurements to FILE as JSON.

Untraced (--trace 0), passes repeat until their summed wall time reaches T.
Traced (--trace 1), untraced passes fill T/2 and traced passes the other T/2;
the first traced pass gives the per-layer metrics and the span file.  Every
pass must reproduce the first pass's outputs bit for bit.  ``wall_s`` is the
pass time with each op at its median over the passes (workloads.median_pass_s);
``ref_wall_s`` is the same with each op's time first scaled to the reference
speed of the host (hostspeed.py), which a timer samples while the passes run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_package():
    if not (SRC / "pdvol" / "cli.py").is_file():
        sys.exit(f"worker: no pdvol package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import pdvol.cli  # noqa: F401 - the import is what is timed

    import_s = time.perf_counter() - t0
    import pdvol

    if Path(pdvol.__file__).resolve().parent != (SRC / "pdvol").resolve():
        sys.exit(f"worker: imported pdvol from {pdvol.__file__}, not from {SRC}")
    return import_s


def _passes(ops, budget_s, speed, tracer_factory=None):
    """Run passes until their wall time sums to budget_s (at least one)."""
    import workloads as wl

    spent = 0.0
    while True:
        gc.collect()
        tracer = tracer_factory() if tracer_factory else None
        if tracer:
            tracer.install()
        try:
            result = wl.run_pass(ops, speed)
        finally:
            if tracer:
                tracer.uninstall()
        yield result, tracer
        spent += result.wall_s
        if spent >= budget_s:
            return


def measure(args, import_s, ops, speed):
    import tracing
    import workloads as wl

    first = None  # (digests, accounting) of the first pass
    walls, traced_walls, rates = [], [], []
    times, scaled, traced_scaled = [], [], []  # per-op times of each pass
    attempted = failed = refused = 0
    messages = []
    layer = {}
    peak_rss_mb = None

    def settle(result, label):
        nonlocal first, attempted, failed, refused
        digests = wl.outputs(args.workload, ops, result)
        if first is None:
            first = (digests, wl.account(ops, result))
        acc = first[1]
        attempted += acc[0]
        failed += acc[1]
        refused += acc[2]
        if len(messages) < 50:
            messages.extend(acc[3])
        for op in ops:
            if digests[op.name] != first[0][op.name]:
                failed += op.units
                messages.append(f"{op.name}: {label} output differs from the first pass")

    budget = args.seconds / 2.0 if args.trace else args.seconds
    for i, (result, _) in enumerate(_passes(ops, budget, speed)):
        walls.append(result.wall_s)
        times.append(result.times)
        scaled.append(speed.scaled(result.times, result.levels))
        rates.append(wl.rates(args.workload, ops, result))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        settle(result, f"untraced pass {i + 1}")
        del result

    if args.trace:
        for i, (result, tracer) in enumerate(_passes(ops, budget, speed, tracing.Tracer)):
            traced_walls.append(result.wall_s)
            traced_scaled.append(speed.scaled(result.times, result.levels))
            settle(result, f"traced pass {i + 1}")
            if i == 0:
                layer, problems = tracing.layer_metrics(tracer.spans, wl.exact_acceptance_rate)
                layer["trace.spans"] = len(tracer.spans)
                failed += len(problems)
                messages.extend(problems)
                if args.spans:
                    tracing.write_jsonl(tracer.spans, args.spans)
            del result, tracer
        ref_wall_s = wl.median_pass_s(ops, scaled)
        layer["trace.overhead_s"] = wl.median_pass_s(ops, traced_scaled) - ref_wall_s
        layer["trace.overhead_frac"] = layer["trace.overhead_s"] / ref_wall_s
        layer["cli.import_s"] = import_s

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "import_s": import_s,
        "ref_wall_s": wl.median_pass_s(ops, scaled),
        "wall_s": wl.median_pass_s(ops, times),
        "host_speed": speed.relative(),
        "pass_wall_s": walls,
        "traced_pass_wall_s": traced_walls,
        "rates": rates,
        "attempted": attempted,
        "failed": failed,
        "refused": refused,
        "messages": messages,
        "calls_per_pass": sum(op.calls for op in ops),
        "peak_rss_mb": peak_rss_mb,
        "per_layer": layer,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result")
    ap.add_argument("--spans")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import_s = _import_package()
    import hostspeed
    import workloads as wl

    ops = wl.build(args.workload, args.seed, args.workdir)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    speed = hostspeed.HostSpeed(wl.REFERENCE.get(args.workload, "vector"))
    with speed.running():
        out = measure(args, import_s, ops, speed)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
