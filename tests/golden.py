"""Committed sha256 digests of the quick verify trees, of the desk
acceptance results and of the demos' standard output, and their checks.

`golden.json` holds, for each named tree, the digest of every file a
`verify` run writes; for each desk acceptance experiment, the digest of
its `(rows, summary)` at seed DESK_SEED; for each demo script, the digest
of what it prints; and the Python, numpy and scipy versions the digests
were written with: floating-point results may move with any of them.
`tools/write_golden.py` rewrites the file.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

GOLDEN = Path(__file__).with_name("golden.json")
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# tree name -> the command line that writes it (with --out appended)
TREES = {
    "verify_quick_seed_2026": ["verify", "--scale", "quick", "--seed", "2026"],
    "verify_quick_seed_3": ["verify", "--scale", "quick", "--seed", "3"],
}

# the desk acceptance experiments (each run with its default arguments)
DESK_SEED = 2026
DESK = ("exp_xray_check", "exp_smoothing", "exp_energy", "exp_lemma4",
        "exp_incidence_sweep", "exp_content", "exp_furstenberg",
        "exp_slicing", "exp_radial")


def environment():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _versions(golden):
    return (f"written with {golden['environment']}; this run has "
            f"{environment()}")


def tree_digests(out):
    """sha256 of each file in a directory, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).iterdir())}


def check_tree(name, out):
    """Assert that the files in `out` hash as committed for tree `name`."""
    golden = json.loads(GOLDEN.read_text())
    want, got = golden["trees"][name], tree_digests(out)
    moved = sorted(k for k in want.keys() | got.keys()
                   if want.get(k) != got.get(k))
    assert not moved, (
        f"{name}: {', '.join(moved)} differ from {GOLDEN.name}, "
        f"{_versions(golden)}")


def result_digest(rows, summary):
    """sha256 of an experiment's (rows, summary), serialised as the CLI's
    JSON writer serialises a summary."""
    text = json.dumps([rows, summary], indent=2, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def check_desk(name, rows, summary):
    """Assert that a desk experiment's (rows, summary) at DESK_SEED hash as
    committed."""
    golden = json.loads(GOLDEN.read_text())
    assert result_digest(rows, summary) == golden["desk"][name], (
        f"{name} at seed {DESK_SEED} differs from {GOLDEN.name}, "
        f"{_versions(golden)}")


def run_demo(path):
    """Run a demo script from the repository root with this checkout's src
    on its path; returns the completed process, output as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def stdout_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_demo(name, stdout):
    """Assert that demo `name` printed what it printed when committed."""
    golden = json.loads(GOLDEN.read_text())
    assert stdout_digest(stdout) == golden["demos"][name], (
        f"{name}'s standard output differs from {GOLDEN.name}, "
        f"{_versions(golden)}")
