import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inclab import cli
from inclab import experiments as ex

import golden


def test_unknown_command_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_bad_deltas_exit_2(tmp_path):
    code = cli.main(["incidence-sweep", "--deltas", "abc",
                     "--out", str(tmp_path)])
    assert code == 2


def test_incidence_sweep_artifacts(tmp_path):
    code = cli.main(["incidence-sweep", "--t", "1.5", "--seed", "1",
                     "--deltas", "2^-5,2^-6,2^-7", "--out", str(tmp_path)])
    assert code == 0
    csv = (tmp_path / "incidence_sweep.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0].startswith("t,seed_index,delta")
    assert len(lines) == 4  # header + one row per delta
    summary = json.loads((tmp_path / "incidence_sweep_summary.json").read_text())
    assert "slope" in summary and summary["pass"] is True


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t": 1.3, "deltas": "2^-5,2^-6",
                               "out": str(tmp_path / "a")}))
    code = cli.main(["incidence-sweep", "--config", str(cfg), "--seed", "2"])
    assert code == 0
    summary = json.loads(
        (tmp_path / "a" / "incidence_sweep_summary.json").read_text())
    assert summary["t"] == 1.3
    # explicit flag beats the config value
    code = cli.main(["incidence-sweep", "--config", str(cfg), "--t", "1.7",
                     "--out", str(tmp_path / "b"), "--seed", "2"])
    assert code == 0
    summary = json.loads(
        (tmp_path / "b" / "incidence_sweep_summary.json").read_text())
    assert summary["t"] == 1.7
    # a config value is a flag written before the command line's own, so an
    # explicit flag wins even at its default value
    cfg.write_text(json.dumps({"seed": 2, "format": "csv"}))
    flags = ["incidence-sweep", "--deltas", "2^-5,2^-6"]
    assert cli.main(flags + ["--config", str(cfg), "--seed", "0", "--format",
                             "both", "--out", str(tmp_path / "c")]) == 0
    assert cli.main(flags + ["--seed", "0", "--out", str(tmp_path / "d")]) == 0
    assert cli.main(flags + ["--seed", "2", "--out", str(tmp_path / "e")]) == 0
    csv = {d: (tmp_path / d / "incidence_sweep.csv").read_bytes() for d in "cde"}
    assert (tmp_path / "c" / "incidence_sweep_summary.json").exists()
    assert csv["c"] == csv["d"] != csv["e"]


def test_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    # unknown keys, keys the command never reads and values their flag
    # would reject exit 2, naming the key or its flag
    for blob in ({"frobnicate": 1}, {"s": "abc"}, {"seed": 1.5},
                 {"seed": -1}, {"format": "xml"}, {"help": True},
                 {"t": "1.5"}, {"config": str(cfg)}):
        cfg.write_text(json.dumps(blob))
        assert cli.main(["energy", "--config", str(cfg), "--out", str(out)]) == 2
        key = list(blob)[0]
        assert re.search(rf"(config key {key}|argument --{key}):",
                         capsys.readouterr().err)
        assert not out.exists()
    # accepted values are converted as the flag converts them
    cfg.write_text(json.dumps({"s": "0.5", "deltas": "2^-5"}))
    args = cli.parse_args(["energy", "--config", str(cfg)])
    assert (args.s, args.deltas) == (0.5, (2.0 ** -5,))


def test_format_flag(tmp_path):
    code = cli.main(["incidence-sweep", "--deltas", "2^-5,2^-6",
                     "--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "incidence_sweep.csv").exists()
    assert not (tmp_path / "incidence_sweep_summary.json").exists()


def test_energy_passes_s_and_deltas(tmp_path):
    assert cli.main(["energy", "--s", "0.3", "--deltas", "2^-5",
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "energy.csv").read_text().strip().split("\n")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [(r["s"], r["dim"], r["delta"]) for r in rows] == \
        [("0.3", "0.3", "0.03125"), ("0.3", "0.7", "0.03125")]


def test_invalid_parameter_exit_2(tmp_path, tmp_path_factory, capsys):
    # precondition violations surface as invalid configuration
    code = cli.main(["incidence-sweep", "--t", "2.5", "--deltas", "2^-5",
                     "--out", str(tmp_path)])
    assert code == 2
    # the range of t is checked before any window is chosen
    code = cli.main(["incidence-sweep", "--t", "3", "--out", str(tmp_path)])
    assert code == 2
    assert "exponent t must lie in (1, 2)" in capsys.readouterr().err
    # the grid side is checked before any grid is built
    # (xray-check also builds a grid of side n/2)
    for command, n, low in (("xray-check", "4096", 32),
                            ("smoothing", "4096", 16), ("smoothing", "100", 16),
                            ("xray-check", "8", 32), ("xray-check", "16", 32)):
        code = cli.main([command, "--n", n, "--out", str(tmp_path)])
        assert code == 2
        assert f"--n must be a power of two from {low} to 512" in \
            capsys.readouterr().err
    # a given flag reaches the experiment's own range check, never a default
    for argv, message in ((["slicing", "--s", "0"], "need s in (0, 1]"),
                          (["radial", "--t", "0"], "infeasible dimension 0.0"),
                          (["furstenberg", "--s", "0.5"], "--s and --t"),
                          (["furstenberg", "--t", "1.5"], "--s and --t"),
                          (["furstenberg", "--s", "0", "--t", "1.5"],
                           "s must lie in (2 - t, 1]"),
                          # 73,728 atoms with 16,384 directions each
                          (["furstenberg", "--s", "1", "--t", "1.01",
                            "--deltas", "2^-15"], "MAX_TUBE_CELLS"),
                          # 4,096 angle columns x the F-cells
                          (["slicing", "--deltas", "2^-12"],
                           "MAX_SLICING_TABLE"),
                          # the pair energy's padded bounding-box grid
                          (["energy", "--s", "0.5", "--deltas", "2^-28"],
                           "MAX_ENERGY_GRID"),
                          # the direct pair energy's table of displacements
                          # over a 128-atom measure's bounding box (the
                          # Fourier energy's 16,384^2 grid would come next)
                          (["energy", "--s", "0.5", "--deltas", "2^-12"],
                           "3006 x 4091 cells, above MAX_ENERGY_GRID"),
                          # the Fourier energy's 8,192^2 grid
                          (["energy", "--s", "0.5", "--deltas", "2^-11"],
                           "8192 x 8192 cells, above MAX_ENERGY_GRID"),
                          # each delta is one more pass of the work
                          (["incidence-sweep", "--deltas",
                            ",".join(["2^-5"] * 17)],
                           "argument --deltas: 17 deltas, above "
                           "MAX_DELTAS = 16")):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
    # a flag the command never reads exits 2 naming it, before any work
    for argv, message in ((["content", "--s", "0.5"], "unrecognized arguments: --s"),
                          (["xray-check", "--deltas", "2^-5"],
                           "unrecognized arguments: --deltas"),
                          (["smoothing", "--t", "1.5"], "unrecognized arguments: --t"),
                          (["incidence-sweep", "--s", "0.5"],
                           "unrecognized arguments: --s"),
                          (["energy", "--threads", "2"],
                           "unrecognized arguments: --threads"),
                          (["verify", "--sigma", "0.5"],
                           "unrecognized arguments: --sigma"),
                          (["energy", "--scale", "desk"],
                           "unrecognized arguments: --scale"),
                          (["radial", "--deltas", "2^-6,2^-7"],
                           "radial takes a single delta"),
                          (["energy", "--seed", "-1", "--deltas", "2^-5"],
                           "argument --seed: must be non-negative: '-1'"),
                          (["verify", "--scale", "quick", "--seed", "-1"],
                           "argument --seed: must be non-negative: '-1'"),
                          (["verify", "--scale", "quick", "--threads", "0"],
                           "argument --threads: must be at least 1: '0'"),
                          (["verify", "--scale", "quick", "--threads", "-4"],
                           "argument --threads: must be at least 1: '-4'")):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
    # so does a config key the command never reads
    cfg = tmp_path_factory.mktemp("config") / "cfg.json"
    cfg.write_text(json.dumps({"tau": 1.2, "sigma": 0.3}))
    assert cli.main(["energy", "--s", "0.5", "--deltas", "2^-5", "--config",
                     str(cfg), "--out", str(tmp_path)]) == 2
    assert re.search(r"config key tau\b", capsys.readouterr().err)
    # every delta must be a finite positive number
    for command, deltas in (("incidence-sweep", "2^-6,nan"),
                            ("incidence-sweep", "inf"),
                            ("incidence-sweep", "10^400"),
                            ("incidence-sweep", "-2^0.5"),
                            ("energy", "nan")):
        code = cli.main([command, f"--deltas={deltas}", "--out", str(tmp_path)])
        assert code == 2
        assert "bad delta list" in capsys.readouterr().err
    # --out must not name an existing file or a path under one
    file = tmp_path_factory.mktemp("out") / "file"
    file.write_text("keep")
    for argv in (["incidence-sweep", "--deltas", "2^-5"],
                 ["verify", "--scale", "quick"]):
        for out in (file, file / "sub"):
            start = time.perf_counter()
            assert cli.main(argv + ["--out", str(out)]) == 2
            assert time.perf_counter() - start < 5.0
            assert f"--out {out}: {file} is not a directory" in \
                capsys.readouterr().err
    assert file.read_text() == "keep"
    assert not any(tmp_path.iterdir())


def test_content_csv_fills_every_column(tmp_path):
    # the content report mixes three fixture rows with the oracle rows; the
    # header holds the keys of both and each row fills its own columns
    assert cli.main(["content", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "content.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    oracle_rows = [r for r in rows if r["oracle"]]
    assert len(oracle_rows) == 100
    assert all(r["dp"] and r["oracle_value"] and r["agree"] == "True"
               for r in oracle_rows)
    fixture_rows = [r for r in rows if not r["oracle"]]
    assert all(r["value"] and r["exact"] == "True" for r in fixture_rows)
    assert [r["cover_size"] for r in fixture_rows] == ["1", "64", "1"]
    assert "None" not in "".join(lines)


def test_generator_atom_cap_exit_2(tmp_path, capsys):
    # 2^-1074 is the smallest float: 1 / delta overflows; with s = 2 at
    # 2^-600 the child-count target 2^(j s) overflows
    for flags, message in ((["--deltas", "2^-40"], "MAX_GENERATED_ATOMS"),
                           (["--deltas", "2^-1074"], "MAX_GENERATED_ATOMS"),
                           (["--s", "2", "--deltas", "2^-600"],
                            "need more than 2^1023 cells")):
        start = time.perf_counter()
        code = cli.main(["radial", *flags, "--out", str(tmp_path)])
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_empty_measure_exit_2(tmp_path, monkeypatch):
    def corrupted(seed=0, **kw):
        raise ValueError("empty measure")

    monkeypatch.setitem(cli.COMMANDS, "energy",
                        (lambda args: corrupted(), cli.COMMANDS["energy"][1]))
    assert cli.main(["energy", "--out", str(tmp_path)]) == 2


def test_threads_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("INCLAB_THREADS", "2")
    assert cli.parse_args(["verify", "--out", str(tmp_path)]).threads == 2
    # only verify reads the thread count, so only verify rejects a bad one
    monkeypatch.setenv("INCLAB_THREADS", "abc")
    assert cli.main(["energy", "--s", "0.5", "--deltas", "2^-5",
                     "--out", str(tmp_path / "energy")]) == 0
    assert cli.main(["verify", "--out", str(tmp_path / "verify")]) == 2
    assert "argument --threads: invalid int value: 'abc'" in \
        capsys.readouterr().err
    # a thread count below 1 is rejected, not run with one thread
    monkeypatch.setenv("INCLAB_THREADS", "0")
    assert cli.main(["verify", "--scale", "quick",
                     "--out", str(tmp_path / "verify")]) == 2
    assert "argument --threads: must be at least 1: '0'" in \
        capsys.readouterr().err
    assert not (tmp_path / "verify").exists()


def test_command_help_lists_its_flags(capsys):
    every_flag = {f for _, flags in cli.COMMANDS.values() for f in flags}
    for command, (_, read) in cli.COMMANDS.items():
        assert cli.main([command, "--help"]) == 0
        shown = set(re.findall(r"--([a-z]+)\b", capsys.readouterr().out))
        assert shown == {"help", "config", "out", "seed", "format", *read}
        assert not shown & (every_flag - set(read))


def fresh_python(*args, timeout=60):
    """Run `python *args` in a new interpreter with this checkout's src on
    its path; returns the completed process, output as text."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_real_argv_rejects_unread_and_abbreviated_flags(tmp_path, capsys):
    run = fresh_python("-m", "inclab.cli", "content", "--s", "0.5",
                       "--out", str(tmp_path))
    assert run.returncode == 2
    assert "unrecognized arguments: --s" in run.stderr
    # an abbreviation is not read as the flag it starts
    assert cli.main(["verify", "--scale", "quick", "--thr", "1",
                     "--out", str(tmp_path)]) == 2
    assert "unrecognized arguments: --thr" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_no_partial_files_on_failure(tmp_path, monkeypatch):
    # the temp-then-rename discipline leaves no .tmp behind
    code = cli.main(["incidence-sweep", "--deltas", "2^-5,2^-6",
                     "--out", str(tmp_path)])
    assert code == 0
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


def test_rows_to_csv_layout():
    # header in order of first appearance, missing keys empty, floats as
    # repr, a cell holding a comma quoted; no rows is an empty line
    rows = [{"a": 0.1, "b": "(36, 61)"}, {"c": True, "a": 2.0 ** -8}]
    assert cli._rows_to_csv(rows) == ('a,b,c\n0.1,"(36, 61)",\n'
                                      '0.00390625,,True\n')
    assert cli._rows_to_csv([]) == "\n"


@pytest.mark.parametrize("command", golden.COMMANDS)
def test_command_output_as_committed(command, tmp_path):
    # every file under --out, the standard output and the exit code
    golden.check("commands", command, golden.run_command(command, tmp_path))


def _mostly(good, bad):
    """Draws from `good` three times in four, else from `bad`."""
    return st.integers(0, 3).flatmap(lambda k: good if k else bad)


# flag values as text, each a value its parser takes or, one draw in four,
# one it refuses: range ends and values past them, non-finite numbers,
# words, and --deltas lists up to twice MAX_DELTAS long
NUMBER = _mostly(st.sampled_from(["0", "0.5", "1", "1.01", "1.5", "2", "3",
                                  "-1", "nan", "inf", "-inf", "1e400"])
                 | st.floats().map(repr), st.sampled_from(["abc", "", "1,5"]))
DELTA = st.sampled_from(["2^-5", "2^-6", "0.03125", "2^0", "2^-1074"])
FLAG_VALUES = {
    "s": NUMBER, "t": NUMBER, "tau": NUMBER, "sigma": NUMBER,
    "n": _mostly(st.sampled_from(["16", "32", "64", "512"]),
                 st.sampled_from(["8", "100", "1024", "0", "-32", "2.5"])
                 | st.integers().map(str)),
    "deltas": _mostly(
        st.lists(DELTA, min_size=1, max_size=cli.MAX_DELTAS),
        st.lists(DELTA | st.sampled_from(
            ["0", "-2^-5", "nan", "inf", "1e-400", "10^400", "0^-1", "2^",
             "2^3^4", "abc", ""]), max_size=2 * cli.MAX_DELTAS)).map(",".join),
    "seed": _mostly(st.integers(0, 2 ** 70).map(str),
                    st.sampled_from(["-1", "1.5", "abc"])),
    "format": _mostly(st.sampled_from(["csv", "json", "both"]), st.just("xml")),
    "scale": _mostly(st.sampled_from(["desk", "quick"]), st.just("huge")),
    # a real thread pool would start this many threads
    "threads": _mostly(st.sampled_from(["1", "2", "3"]),
                       st.sampled_from(["0", "-1", "abc"])),
}
UNKNOWN = ["frobnicate", "thr", "del"]  # the last two abbreviate real flags


@st.composite
def argvs(draw, tmp):
    """An argv for one command: flags it reads, sometimes one it does not,
    sometimes a --config file written under `tmp`, and an --out under
    `tmp` that is, one draw in four, a file or a path below one."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    read = [*cli.COMMANDS[command][1], "seed", "format"]
    flags = draw(st.lists(st.sampled_from(read), max_size=4))
    unread = sorted(FLAG_VALUES.keys() - set(read)) + UNKNOWN
    flags += draw(_mostly(st.just([]), st.sampled_from(unread).map(
        lambda flag: [flag])))
    argv = [command]
    for flag in flags:
        value = draw(FLAG_VALUES.get(flag, NUMBER))
        argv += draw(st.sampled_from([[f"--{flag}", value],
                                      [f"--{flag}={value}"]]))
    config = draw(_mostly(st.none(), st.lists(
        st.sampled_from(read + ["config"] + UNKNOWN), unique=True, max_size=3)
        | st.sampled_from(["not json", "[1, 2]", "", "missing"])))
    if config is not None:
        path = tmp / "cfg.json"
        if config == "missing":
            path = tmp / "missing.json"
        elif isinstance(config, str):
            path.write_text(config)
        else:
            path.write_text(json.dumps({key: draw(_mostly(
                FLAG_VALUES.get(key, NUMBER), st.integers() | st.booleans()
                | st.none() | st.lists(st.integers(), max_size=2)))
                for key in config}))
        argv += ["--config", str(path)]
    out = draw(_mostly(st.just("out"), st.sampled_from(["file", "file/sub"])))
    return argv + ["--out", str(tmp / out)]


def test_every_argv_runs_or_exits_2(tmp_path, monkeypatch):
    # each experiment is a stub that passes, so main returns 0 exactly
    # when a stub ran, and 2 otherwise; what the parser refuses (flags,
    # values, config, --out) never reaches a stub.  The caps raised inside
    # the builders are the rows of test_invalid_parameter_exit_2.
    calls = []

    def stub(seed=0, **params):
        calls.append(seed)
        return [{"seed": seed}], {"pass": True, "fixtures": [{}]}

    for name in dir(ex):
        if name.startswith("exp_"):
            monkeypatch.setattr(ex, name, stub)
    monkeypatch.setattr(ex, "VERIFY_PLAN", [
        (name, stub, {"desk": {}, "quick": {}})
        for name, _, _ in ex.VERIFY_PLAN])
    monkeypatch.delenv("INCLAB_THREADS", raising=False)
    (tmp_path / "file").write_text("")

    @settings(max_examples=200, deadline=None)
    @given(argvs(tmp_path))
    def runs_or_exits_2(argv):
        try:
            cli.parse_args(argv)
            refused = False
        except (SystemExit, ValueError):
            refused = True
        calls.clear()
        code = cli.main(argv)
        assert code in (0, 2)
        assert (code == 0) == bool(calls)
        assert not (refused and calls)

    runs_or_exits_2()


def test_verify_quick_deterministic(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert cli.main(["verify", "--scale", "quick", "--seed", "3",
                     "--out", str(out1)]) == 0
    # a new interpreter, so the experiments that first use scipy (smoothing,
    # energy, content-dp) import it on pool threads started together
    run = fresh_python("-m", "inclab.cli", "verify", "--scale", "quick",
                       "--seed", "3", "--out", str(out2), "--threads", "9",
                       timeout=300)
    assert run.returncode == 0, run.stderr
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    golden.check("trees", "verify_quick_seed_3", golden.tree_digests(out1))
    table = (out1 / "verify.csv").read_text().strip().split("\n")
    assert len(table) - 1 >= 8  # at least eight criterion rows
    # every CSV parses with the header's width; the witness cells, which
    # hold commas, read back as (ix, iy)
    for name in files1:
        if name.endswith(".csv"):
            with open(out1 / name, newline="") as f:
                header, *rows = csv.reader(f)
            assert all(len(row) == len(header) for row in rows), name
    with open(out1 / "verify_slicing.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows
    for row in rows:
        for key in ("witness_x", "witness_tube"):
            assert re.fullmatch(r"\(\d+, \d+\)", row[key]), row[key]


IMPORT_SCOPE = """
import json, sys
import numpy as np
import inclab, inclab.cli
from inclab.experiments import content_cover_lp
from inclab.geometry import PLANE
from inclab.measures import PointSet
from inclab.spectral import PlanarGrid, sobolev_norm_plane

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

stages = {"import": scipy_modules()}
out = sys.argv[1]
assert inclab.cli.main(["slicing", "--deltas", "2^-5", "--out", out]) == 0
stages["slicing"] = scipy_modules()
content_cover_lp(PointSet(PLANE, 2.0 ** -5, [40, 41, 90], [41, 41, 7]), 1.0)
stages["content_lp"] = scipy_modules()
g = PlanarGrid.from_function(16, lambda X, Y: np.exp(-4.0 * (X * X + Y * Y)))
sobolev_norm_plane(g, 0.5)
stages["sobolev"] = scipy_modules()
print(json.dumps(stages))
"""


def test_import_loads_scipy_only_where_it_is_used(tmp_path):
    # a new interpreter: the test modules themselves import scipy
    run = fresh_python("-c", IMPORT_SCOPE, str(tmp_path))
    assert run.returncode == 0, run.stderr
    # the last line, after what the slicing command prints
    stages = json.loads(run.stdout.splitlines()[-1])
    assert stages["import"] == []
    assert stages["slicing"] == []
    lp = set(stages["content_lp"])
    assert {"scipy.optimize", "scipy.sparse"} <= lp
    assert "scipy.integrate" not in lp
    # scipy.integrate itself imports scipy.optimize and scipy.sparse (scipy
    # 1.17), so the plane norm may add only what that import adds
    assert "scipy.integrate" in stages["sobolev"]
    ref = fresh_python("-c", "import sys, scipy.integrate; print(' '.join("
                       "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert ref.returncode == 0, ref.stderr
    assert set(stages["sobolev"]) - lp <= set(ref.stdout.split())
