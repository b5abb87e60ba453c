"""Rewrite tests/golden.json from fresh runs of everything it pins.

    PYTHONPATH=src python3 tools/write_golden.py

Runs, as `tests/golden.py` describes each section, every quick verify tree
of TREES and every command line of COMMANDS into a temporary directory,
every desk experiment of DESK at DESK_SEED and every demo of DEMOS, and
writes their digests with the Python, numpy and scipy versions.  The desk
experiments take one to two minutes on two cores.  Then it prints one line
for each entry it added, changed or removed against the file it replaced,
so a change can show that it only added entries.  Rewrite the file only
when a change moves a reported number on purpose, and list each moved
entry in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import golden  # noqa: E402
from inclab import cli, experiments  # noqa: E402


def main():
    trees, commands = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in golden.TREES.items():
            out = Path(tmp) / name
            if cli.main([*argv, "--out", str(out)]) != 0:
                raise SystemExit(f"{name}: verify did not pass")
            trees[name] = golden.tree_digests(out)
        for k, command in enumerate(golden.COMMANDS):
            commands[command] = golden.run_command(command, Path(tmp) / str(k))
    desk = {name: golden.result_digest(
                *getattr(experiments, name)(seed=golden.DESK_SEED))
            for name in golden.DESK}
    demos = {}
    for path in golden.DEMOS:
        done = golden.run_demo(path)
        if done.returncode != 0:
            raise SystemExit(f"{path.name} failed:\n{done.stderr}")
        demos[path.stem] = golden.digest(done.stdout)
    new = {"environment": golden.environment(), "trees": trees,
           "commands": commands, "desk": desk, "demos": demos}
    old = json.loads(golden.GOLDEN.read_text())
    golden.GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {golden.GOLDEN}")
    for section in sorted(old.keys() | new.keys()):
        was, now = old.get(section, {}), new.get(section, {})
        for name in sorted(was.keys() | now.keys()):
            if name not in was:
                print(f"added {section} {name}")
            elif name not in now:
                print(f"removed {section} {name}")
            elif was[name] != now[name]:
                print(f"changed {section} {name}")


if __name__ == "__main__":
    main()
