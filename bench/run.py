#!/usr/bin/env python3
"""kgstab benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload sweep1d --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; kgstab is imported from its `src/`.
Workloads are defined in `workloads.py`.  A run writes its scenario files
from the seed, times the set-up (import kgstab, parse the scenario
files), then repeats the workload's CLI calls as many times as fit
`--seconds`, checking every output.  The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are end to end:
  run_s        median wall time of one repetition's CLI calls;
  setup_s      median set-up time over this process and SETUP_PROBES
               fresh processes;
  peak_rss_mb  peak resident memory of this process up to the end of its
               first repetition, as in a user's one-shot run; later
               repetitions only add heap fragmentation.
With `--trace 1` the repetitions alternate untraced and traced, and the
metrics are the per-layer ones of `tracing.py`, medians over the traced
repetitions, plus `trace.overhead_frac`.

Every run also prints its environment, the operation counts and the
sha256 of each report, and writes everything (spans included) to
`.bench_out/<workload>-seed<seed>-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

from tracing import Tracer, layer_metrics, median_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def import_cli():
    """kgstab.cli from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kgstab.cli as cli
    except ImportError as exc:
        raise BenchError(f"cannot import kgstab from {src}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"kgstab imported from {cli.__file__}, not from {src}")
    return cli


def write_scenarios(workload, seed: int, work: Path):
    scenarios = workload.scenarios(seed)
    files = {}
    for name, raw in scenarios.items():
        files[name] = work / name
        with open(files[name], "w") as f:
            json.dump(raw, f, indent=2)
    return scenarios, files


def set_up(workload, files):
    """Import kgstab and parse the scenario files; returns (cli, seconds)."""
    t0 = time.perf_counter()
    cli = import_cli()
    for path in files.values():
        with open(path) as f:
            workload.parse(cli, json.load(f))
    return cli, time.perf_counter() - t0


def probe_setup(workload_name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured by that interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload_name, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def one_rep(cli, workload, scenarios, files, work: Path, tracer=None) -> dict:
    """Run the workload's CLI calls once into a fresh directory and check them."""
    out = Path(tempfile.mkdtemp(prefix="rep-", dir=work))
    codes = []
    crash = None
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            t0 = time.perf_counter()
            try:
                for argv in workload.argv(files, out):
                    codes.append(cli.main(argv))
            except Exception:  # the run goes on; its ops count as failed
                crash = traceback.format_exc()
                print(crash, file=sys.stderr)
            seconds = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    ops = workload.check(scenarios, out)
    if crash is not None:
        ops = [(op, why or "run crashed") for op, why in ops]
    digests = {
        p.name: sha256(p) for p in sorted(out.glob("report*.json")) if not p.name.endswith(".meta.json")
    }
    shutil.rmtree(out)
    return {
        "seconds": seconds,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "codes": codes,
        "ops": ops,
        "sha256": digests,
        "traced": tracer is not None,
    }


def measure(cli, workload, scenarios, files, work: Path, seconds: float, tracer=None) -> list[dict]:
    """Repeat as many times as fit `seconds`, to the nearest whole one.

    The count is fixed after the first repetition (the first pair when
    traced) and rounded, not truncated: a workload whose repetition takes
    about half of `seconds` then runs twice on a slow machine as on a
    fast one, instead of once when its first repetition ran slow and
    twice when it ran fast, which would split its medians in two.

    Traced runs alternate untraced and traced repetitions and always end
    on a whole pair, so both sides have the same number of samples.  The
    first repetition of a process pays first-touch costs (heap growth);
    with a single pair, trace.overhead_frac therefore reads low.
    """
    step = 1 if tracer is None else 2
    reps = []
    total = step
    start = time.perf_counter()
    while len(reps) < total:
        run = f"rep{len(reps)}"
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.run = run
        reps.append(dict(one_rep(cli, workload, scenarios, files, work, tracer if traced else None), run=run))
        if len(reps) == step:
            total = step * max(1, round(seconds / (time.perf_counter() - start)))
    return reps


def _openblas_threads(libdir: str):
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return getattr(handle, sym)()
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    env = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    for mod in (numpy, scipy):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        libdir = os.path.join(os.path.dirname(mod.__file__), os.pardir, f"{mod.__name__}.libs")
        env[f"{mod.__name__}_blas"] = f"{blas.get('name')} {blas.get('version')}"
        env[f"{mod.__name__}_blas_threads"] = _openblas_threads(libdir)
    return env


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        scenarios, files = write_scenarios(workload, args.seed, work)
        cli, setup_s = set_up(workload, files)
        if args.setup_probe:
            return {"setup_s": setup_s}
        setups = [setup_s]
        if not args.trace:
            setups += [probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]
        tracer = Tracer() if args.trace else None
        reps = measure(cli, workload, scenarios, files, work, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r["seconds"] for r in reps if not r["traced"]]
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        per_run = [layer_metrics([s for s in tracer.spans if s.run == r["run"]], tracer.absent) for r in traced]
        values = median_metrics(per_run)
        # the first repetition of a process pays first-touch costs (heap
        # growth), so it leaves the baseline when later ones exist
        base = median(untraced[1:] or untraced)
        values["trace.overhead_frac"] = (median(r["seconds"] for r in traced) - base) / base
        units = {k: _layer_unit(k) for k in values}
    else:
        values = {
            "run_s": median(untraced),
            "setup_s": median(setups),
            "peak_rss_mb": reps[0]["maxrss_mb"],
        }
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    ops = [op for r in reps for op in r["ops"]]
    failures = [(op, why) for op, why in ops if why is not None]
    digests: dict[str, set] = {}
    for r in reps:
        for name, digest in r["sha256"].items():
            digests.setdefault(name, set()).add(digest)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "rep_seconds": [r["seconds"] for r in reps],
        "rep_traced": [r["traced"] for r in reps],
        "rep_maxrss_mb": [r["maxrss_mb"] for r in reps],
        "exit_codes": [r["codes"] for r in reps],
        "setup_seconds": setups,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "sha256": {k: sorted(v) for k, v in digests.items()},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    if args.trace:
        record["absent"] = sorted(tracer.absent)
        record["spans"] = [vars(s) for s in tracer.spans]
    return record


def _layer_unit(metric: str) -> str:
    if metric.endswith((".s", ".self_s")):
        return "s"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def report(record: dict) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    secs = record["rep_seconds"]
    print(f"repetitions {len(secs)}: " + " ".join(f"{s:.3f}" for s in secs) + " s")
    attempted, failed = record["attempted"], record["failed"]
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for op, why in record["failures"][:20]:
        print(f"  FAILED {op}: {why}")
    for name, digests in sorted(record["sha256"].items()):
        print(f"sha256 {name} {' '.join(digests)}")
    for name in record.get("absent", []):
        print(f"absent {name}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(record["setup_s"]))
        return 0
    path = OUT_DIR / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
