"""Each demo script runs to completion and prints its report, byte for
byte as committed in golden.json."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from golden import DEMOS, check, digest, run_demo  # noqa: E402


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    check("demos", demo.stem, digest(done.stdout))
