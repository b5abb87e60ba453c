"""Rewrite tests/golden.json from fresh quick verify runs, desk
acceptance experiments and demo runs.

    PYTHONPATH=src python3 tools/write_golden.py

Runs each tree of `tests/golden.py`'s TREES into a temporary directory and
records the sha256 of every file, then runs each experiment of its DESK at
DESK_SEED and records the sha256 of its (rows, summary), then runs each
demo of its DEMOS and records the sha256 of its standard output, with the
Python, numpy and scipy versions.  The desk experiments take one to two minutes
on two cores.  Rewrite the file only when a change moves a reported number on
purpose, and list each moved entry in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import golden  # noqa: E402
from inclab import cli, experiments  # noqa: E402


def main():
    trees = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in golden.TREES.items():
            out = Path(tmp) / name
            if cli.main([*argv, "--out", str(out)]) != 0:
                raise SystemExit(f"{name}: verify did not pass")
            trees[name] = golden.tree_digests(out)
    desk = {name: golden.result_digest(
                *getattr(experiments, name)(seed=golden.DESK_SEED))
            for name in golden.DESK}
    demos = {}
    for path in golden.DEMOS:
        done = golden.run_demo(path)
        if done.returncode != 0:
            raise SystemExit(f"{path.name} failed:\n{done.stderr}")
        demos[path.stem] = golden.stdout_digest(done.stdout)
    golden.GOLDEN.write_text(json.dumps(
        {"environment": golden.environment(), "trees": trees, "desk": desk,
         "demos": demos},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {golden.GOLDEN}")


if __name__ == "__main__":
    main()
