"""pdvol benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload claims|highdim|smalln|montecarlo \
        --seed N --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Each workload runs in a fresh interpreter with one BLAS/OpenMP thread and no
process pool (PDVOL_JOBS unset).

--trace 0 reports the end-to-end metrics: ``setup_s`` (median of several
fresh interpreters importing pdvol.cli and building the workload's inputs),
``ref_wall_s`` (wall time of one pass over the workload's fixed op list at the
host's reference speed: passes repeat for T seconds, each op's time is scaled
by the host speed sampled during it (hostspeed.py) and taken at its median
over the passes) and ``peak_rss_mb`` (peak resident set of the
workload process by the end of its first pass, so that it does not depend on
how many passes fit in T).
--trace 1 reports the per-layer metrics of BENCHMARK.json from a run whose
traced passes wrap every public function of each pdvol layer, with the
tracing overhead against the untraced passes of the same run, the unscaled
``wall_s`` and the host's speed relative to the reference.

Every op's answer is checked after its pass (see workloads.py).  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also writes a
record (machine, library versions, thread settings, per-metric samples) and,
traced, its spans as JSONL under perfbench/runs/.

The harness's own tests: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
RUNS = BENCH / "runs"
WORKER = BENCH / "worker.py"

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 30.0
WORKER_TIMEOUT_S = 140.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    for var in ("PDVOL_JOBS", "PDVOL_OUTPUT_DIR", "PYTHONPATH"):
        env.pop(var, None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def time_setup(args, env, workdir):
    """Seconds from starting a fresh interpreter to the worker's "ready"."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only", "--workdir", workdir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise RuntimeError("set-up run did not report ready")
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run exited with {proc.returncode}")
    return elapsed


def run_worker(args, env, workdir, stem):
    result = RUNS / f"{stem}.result.json"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
           "--result", str(result)]
    if args.trace:
        cmd += ["--spans", str(RUNS / f"{stem}.spans.jsonl")]
    # the worker's own output goes to stderr so the last stdout line stays ours
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def summary(values):
    """Median and quartiles of the samples behind one metric."""
    vals = sorted(values)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "min": vals[0], "max": vals[-1],
            "samples": len(vals)}


def machine_record(env):
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": "{name} {version}".format(**numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]),
        "threads": {var: env[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description="pdvol benchmark run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pdvol" / "cli.py").is_file():
        print(f"run.py: no pdvol package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        print("run.py: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    RUNS.mkdir(exist_ok=True)
    env = child_env()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = {}
    with tempfile.TemporaryDirectory(prefix="work-", dir=RUNS) as workdir:
        if not args.trace:
            samples["setup_s"] = [time_setup(args, env, workdir) for _ in range(SETUP_REPEATS)]
        out = run_worker(args, env, workdir, stem)

    samples["ref_wall_s"] = [out["ref_wall_s"]]
    samples["wall_s"] = [out["wall_s"]]
    samples["host_speed"] = [out["host_speed"]]
    samples["pass_wall_s"] = out["pass_wall_s"]
    samples["peak_rss_mb"] = [out["peak_rss_mb"]]
    samples["import_s"] = [out["import_s"]]
    if out["traced_pass_wall_s"]:
        samples["traced_pass_wall_s"] = out["traced_pass_wall_s"]
    for rates in out["rates"]:
        for name, value in rates.items():
            samples.setdefault(name, []).append(value)
    stats = {name: summary(vals) for name, vals in samples.items()}

    attempted, failed = out["attempted"], out["failed"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = {name: s["median"] for name, s in stats.items()}
    if args.trace:
        source.update(out["per_layer"], failed_frac=failed / attempted, refused_frac=out["refused"] / attempted)
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(env),
        "attempted": attempted,
        "failed": failed,
        "refused": out["refused"],
        "calls_per_pass": out["calls_per_pass"],
        "messages": out["messages"],
        "samples": stats,
        "metrics": metrics,
    }
    (RUNS / f"{stem}.record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"pdvol benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"commit={record['machine']['git_commit']}")
    print(f"  ops attempted {attempted}, failed {failed} (failed_frac {failed / attempted:.4g}), "
          f"refused as expected {out['refused']}")
    for name, s in stats.items():
        print(f"  {name:24s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"({s['samples']} samples)")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for msg in out["messages"][:20]:
        print(f"  CHECK FAILED: {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
