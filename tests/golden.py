"""Committed sha256 digests of what inclab writes and prints, and their one
check.

`golden.json` has one section per kind of output:
- `trees`: for each named quick `verify` run, the digest of every file it
  writes;
- `commands`: for each other command line of COMMANDS, the digest of every
  file it writes under `--out`, of its standard output and its exit code;
- `desk`: for each desk acceptance experiment, the digest of its
  `(rows, summary)` at seed DESK_SEED;
- `demos`: for each demo script, the digest of what it prints;
and, under `environment`, the Python, numpy and scipy versions the digests
were written with: floating-point results may move with any of them.
`check` compares one entry of any section; `tools/write_golden.py`
rewrites the file.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

from inclab import cli

GOLDEN = Path(__file__).with_name("golden.json")
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# tree name -> the command line that writes it (with --out appended)
TREES = {
    "verify_quick_seed_2026": ["verify", "--scale", "quick", "--seed", "2026"],
    "verify_quick_seed_3": ["verify", "--scale", "quick", "--seed", "3"],
}

# every command but verify, at its defaults except for the grid side:
# xray-check and smoothing take the smallest --n each accepts (xray-check
# exits 1 at that size)
COMMANDS = ("energy", "incidence-sweep", "content", "furstenberg", "slicing",
            "radial", "xray-check --n 32", "smoothing --n 16")

# the desk acceptance experiments (each run with its default arguments)
DESK_SEED = 2026
DESK = ("exp_xray_check", "exp_smoothing", "exp_energy", "exp_lemma4",
        "exp_incidence_sweep", "exp_content", "exp_furstenberg",
        "exp_slicing", "exp_radial")


def environment():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def tree_digests(out):
    """sha256 of each file in a directory, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).iterdir())}


def result_digest(rows, summary):
    """sha256 of an experiment's (rows, summary), serialised as the CLI's
    JSON writer serialises a summary."""
    return digest(json.dumps([rows, summary], indent=2, sort_keys=True,
                             default=str))


def run_command(command, out):
    """Run the command line `command` in process with `--out out`; the
    digests of the files it writes and of its standard output, and its
    exit code."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main([*command.split(), "--out", str(out)])
    return {**tree_digests(out), "stdout": digest(text.getvalue()),
            "exit": code}


def run_demo(path):
    """Run a demo script from the repository root with this checkout's src
    on its path; returns the completed process, output as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def check(section, name, got):
    """Assert that `got`, a digest or a dict of them, equals entry `name` of
    golden.json's `section`; the message names each part that differs."""
    golden = json.loads(GOLDEN.read_text())
    want = golden[section][name]
    if not isinstance(want, dict):
        want, got = {name: want}, {name: got}
    moved = sorted(k for k in want.keys() | got.keys()
                   if want.get(k) != got.get(k))
    assert not moved, (
        f"{section} {name}: {', '.join(moved)} differ from {GOLDEN.name}, "
        f"written with {golden['environment']}; this run has "
        f"{environment()}")
