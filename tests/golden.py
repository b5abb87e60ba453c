"""Committed sha256 digests of the quick verify trees, and the check of a tree.

`golden.json` holds, for each named tree, the digest of every file a
`verify` run writes, and the Python, numpy and scipy versions the digests
were written with: floating-point results may move with any of them.
`tools/write_golden.py` rewrites the file.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import scipy

GOLDEN = Path(__file__).with_name("golden.json")

# tree name -> the command line that writes it (with --out appended)
TREES = {
    "verify_quick_seed_2026": ["verify", "--scale", "quick", "--seed", "2026"],
    "verify_quick_seed_3": ["verify", "--scale", "quick", "--seed", "3"],
}


def environment():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


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
        f"{name}: {', '.join(moved)} differ from {GOLDEN.name}, written "
        f"with {golden['environment']}; this run has {environment()}")
