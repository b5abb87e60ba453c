"""inclab benchmark: four workloads, end-to-end or traced layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 20 --trace 0

Workloads: spectral, large-sets, small-sets, verify-quick (see README.md).
With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics.  Every pass is checked: each experiment summary must pass,
`cli.main` must return 0, and every pass must produce the same rows,
summaries and artifact bytes as the first one.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the exit code is 1 when a check failed and 2 when the program
under test cannot be imported.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# content-dp fixtures are pinned to seed 0 in every workload that builds them
# (small-sets' exp_content and the whole verify-quick call).  Their cost and
# memory depend on the seed through the enumerate_cover_min defect: seed 0
# peaks at 2.7 GB, while seeds 15 and 16 would allocate 6.7 and 7.6 GB.
# README.md has the details.
PINNED_SEED = 0
SETUP_PER_GAP = 2  # fresh interpreters timed before each pass and after the last
MIN_PASSES = 2
DESK_DELTAS = tuple(2.0 ** -k for k in range(5, 10))

# workload -> [(experiment, seed is pinned, desk kwargs, tiny kwargs)]
EXPERIMENTS = {
    "spectral": [
        ("exp_xray_check", False, dict(n=256, duality_each=4),
         dict(n=32, duality_n=32, duality_each=2)),
        ("exp_smoothing", False, dict(n=128, n_bumps=8),
         dict(n=32, n_bumps=2, s_values=(0.0, 0.5))),
    ],
    "large-sets": [
        ("exp_incidence_sweep", False,
         dict(t_values=(1.3, 1.7), n_seeds=1, deltas=DESK_DELTAS),
         dict(t_values=(1.3,), n_seeds=1, deltas=DESK_DELTAS[:2])),
        ("exp_energy", False, {}, dict(s_values=(1.0,), deltas=(2.0 ** -5,))),
        ("exp_slicing", False, {}, dict(deltas=DESK_DELTAS[:2])),
        ("exp_radial", False, {}, dict(delta=2.0 ** -6)),
    ],
    "small-sets": [
        ("exp_lemma4", False, dict(n_fixtures=400), dict(n_fixtures=20)),
        ("exp_furstenberg", False, {},
         dict(fixtures=((0.8, 1.4),), deltas=DESK_DELTAS[:2])),
        ("exp_content", True, dict(n_enum=15, n_lp=10), dict(n_enum=3, n_lp=1)),
    ],
}
WORKLOADS = tuple(EXPERIMENTS) + ("verify-quick",)


def import_inclab():
    """Import inclab from this checkout's src/, never from anywhere else."""
    if not (SRC / "inclab" / "__init__.py").is_file():
        raise ImportError(f"no inclab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import inclab
    if Path(inclab.__file__).resolve().parent != SRC / "inclab":
        raise ImportError(f"inclab imported from {inclab.__file__}")
    return inclab


def nproc():
    return len(os.sched_getaffinity(0))


def _experiment_op(module, name, seed, kwargs):
    def op():
        # looked up at call time, so a traced pass calls the traced binding
        rows, summary = getattr(module, name)(seed=seed, **kwargs)
        fingerprint = json.dumps([rows, summary], sort_keys=True, default=str)
        return summary.get("pass") is True, fingerprint
    return op


def _tree_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(directory)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _verify_op(cli, scratch, threads):
    def op():
        out = tempfile.mkdtemp(dir=scratch)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["verify", "--scale", "quick",
                                 "--seed", str(PINNED_SEED), "--out", out,
                                 "--threads", str(threads)])
            return code == 0, _tree_digest(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
    return op


def workload_ops(workload, seed, scratch, tiny=False):
    """[(label, op)]; each op returns (passed, fingerprint of its outputs)."""
    from inclab import cli, experiments
    if workload == "verify-quick":
        return [("cli.main verify", _verify_op(cli, scratch, nproc()))]
    return [(name, _experiment_op(experiments, name,
                                  PINNED_SEED if pinned else seed,
                                  tiny_kw if tiny else desk_kw))
            for name, pinned, desk_kw, tiny_kw in EXPERIMENTS[workload]]


def run_pass(ops, tracer=None):
    """(wall seconds, [(passed, fingerprint)]) for one pass over the ops."""
    results = []
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        for label, op in ops:
            try:
                results.append(op())
            except Exception:
                print(f"{label} raised:", file=sys.stderr)
                traceback.print_exc()
                results.append((False, None))
    return time.perf_counter() - start, results


def count_failures(passes):
    """Operations that failed, or whose outputs differ from the first pass."""
    reference = [fp for _, fp in passes[0]["results"]]
    return sum(not ok or fp != ref
               for p in passes
               for (ok, fp), ref in zip(p["results"], reference))


def setup_seconds():
    """Time from spawning a fresh interpreter to a finished `import inclab`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import time, inclab; print(time.monotonic())"
    spawned = time.monotonic()  # CLOCK_MONOTONIC: shared with the child
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1]) - spawned


def _layer_stat(stats, qual, stat):
    st = stats.get(qual)
    if st is None:
        return 0
    if stat == "accept_ratio":
        return (st["calls"] - st["raised"]) / st["calls"] if st["calls"] else 0.0
    if stat in ("calls", "self_s", "total_s"):
        return st[stat]
    return st["work"]  # lines, atoms, cells, pairs


def _overlap(stats):
    """CPU time of the experiments over the `cli.main` wall time.

    Thread CPU time counts numpy work that releases the interpreter lock on
    every thread, and leaves out time spent waiting for the lock.
    """
    main = stats.get("cli.main", {}).get("total_s", 0.0)
    busy = sum(st["cpu_s"] for qual, st in stats.items()
               if qual.startswith("experiments.exp_"))
    return busy / main if main else 0.0


def layer_values(names, passes, failed, attempted):
    traced = [p for p in passes if p["stats"] is not None]
    untraced = [p["wall"] for p in passes if p["stats"] is None]
    values = {}
    for name in names:
        if name == "trace_overhead":
            value = (statistics.median(p["wall"] for p in traced)
                     / statistics.median(untraced) - 1.0)
        elif name == "error_rate":
            value = failed / attempted
        elif name == "cli.verify.overlap":
            value = statistics.median(_overlap(p["stats"]) for p in traced)
        else:
            qual, stat = name.rsplit(".", 1)
            value = statistics.median(_layer_stat(p["stats"], qual, stat)
                                      for p in traced)
        values[name] = value
    return values


def stamp(inclab, args):
    import numpy
    import scipy
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):  # no git on PATH
            got = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                                  "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = got.stdout.strip() or commit
    blas = {k: v for k, v in os.environ.items()
            if k.endswith("_NUM_THREADS") or k == "INCLAB_THREADS"}
    return {"workload": args.workload, "seed": args.seed,
            "pinned_seed": PINNED_SEED, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "nproc": nproc(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "inclab": inclab.__version__,
            "blas_env": blas}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        inclab = import_inclab()
        from tracer import Tracer
    except ImportError as e:
        print(f"cannot import the program under test: {e}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    setup = []

    def gap():
        """Time set-up between passes, so no one slow stretch decides it."""
        begun = time.perf_counter()
        if not args.trace:
            setup.extend(setup_seconds() for _ in range(SETUP_PER_GAP))
        return time.perf_counter() - begun

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=ROOT / ".bench_tmp")
    try:
        ops = workload_ops(args.workload, args.seed, scratch)
        passes = []
        start = time.perf_counter()
        gap_s = gap()
        while len(passes) < MIN_PASSES or (
                time.perf_counter() - start + gap_s
                + max(p["wall"] for p in passes) <= args.seconds):
            tracer = Tracer() if args.trace and len(passes) % 2 else None
            wall, results = run_pass(ops, tracer)
            passes.append({"wall": wall, "results": results,
                           "stats": tracer.stats() if tracer else None})
            gap_s = max(gap_s, gap())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_tmp").rmdir()

    attempted = len(passes) * len(ops)
    failed = count_failures(passes)
    if args.trace:
        values = layer_values(units, passes, failed, attempted)
    else:
        values = {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    print(json.dumps({"stamp": stamp(inclab, args),
                      "pass_walls": [round(p["wall"], 4) for p in passes],
                      "setup_samples": [round(t, 4) for t in setup]}))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
