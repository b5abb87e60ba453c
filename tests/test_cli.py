import json
import re
import time

from inclab import cli


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


def test_bad_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    # unknown keys, keys the command never reads and values their flag
    # would reject exit 2, naming the key
    for blob in ({"frobnicate": 1}, {"s": "abc"}, {"seed": 1.5},
                 {"format": "xml"}, {"help": True}, {"t": "1.5"}):
        cfg.write_text(json.dumps(blob))
        assert cli.main(["energy", "--config", str(cfg), "--out", str(out)]) == 2
        key = list(blob)[0]
        assert re.search(rf"config key:? {key}\b", capsys.readouterr().err)
        assert not out.exists()
    # accepted values are converted as the flag converts them
    cfg.write_text(json.dumps({"s": "0.5"}))
    parser = cli.build_parser()
    args = cli._apply_config(parser.parse_args(["energy", "--config", str(cfg)]),
                             parser)
    assert args.s == 0.5


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
                           "s must lie in (2 - t, 1]")):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
    # a flag the command never reads exits 2 naming it, before any work
    for argv, message in ((["content", "--s", "0.5"], "content does not take --s"),
                          (["xray-check", "--deltas", "2^-5"],
                           "xray-check does not take --deltas"),
                          (["smoothing", "--t", "1.5"], "smoothing does not take --t"),
                          (["incidence-sweep", "--s", "0.5"],
                           "incidence-sweep does not take --s"),
                          (["energy", "--threads", "2"], "energy does not take --threads"),
                          (["verify", "--sigma", "0.5"], "verify does not take --sigma"),
                          (["energy", "--scale", "desk"], "energy does not take --scale"),
                          (["radial", "--deltas", "2^-6,2^-7"],
                           "radial takes a single delta")):
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
    assert all(r["value"] and r["exact"] == "True"
               for r in rows if not r["oracle"])
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

    monkeypatch.setitem(cli.COMMANDS, "energy", lambda args: corrupted())
    assert cli.main(["energy", "--out", str(tmp_path)]) == 2


def test_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("INCLAB_THREADS", "2")
    parser = cli.build_parser()
    args = parser.parse_args(["verify", "--out", str(tmp_path)])
    args = cli._apply_config(args, parser)
    assert args.threads == 2


def test_no_partial_files_on_failure(tmp_path, monkeypatch):
    # the temp-then-rename discipline leaves no .tmp behind
    code = cli.main(["incidence-sweep", "--deltas", "2^-5,2^-6",
                     "--out", str(tmp_path)])
    assert code == 0
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


def test_verify_quick_deterministic(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert cli.main(["verify", "--scale", "quick", "--seed", "3",
                     "--out", str(out1)]) == 0
    assert cli.main(["verify", "--scale", "quick", "--seed", "3",
                     "--out", str(out2), "--threads", "2"]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    table = (out1 / "verify.csv").read_text().strip().split("\n")
    assert len(table) - 1 >= 8  # at least eight criterion rows
