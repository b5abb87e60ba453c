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
    # unknown keys and values their flag would reject exit 2, naming the key
    for blob in ({"frobnicate": 1}, {"t": "abc"}, {"seed": 1.5},
                 {"format": "xml"}, {"help": True}):
        cfg.write_text(json.dumps(blob))
        assert cli.main(["energy", "--config", str(cfg), "--out", str(out)]) == 2
        key = list(blob)[0]
        assert re.search(rf"config key:? {key}\b", capsys.readouterr().err)
        assert not out.exists()
    # accepted values are converted as the flag converts them
    cfg.write_text(json.dumps({"t": "1.5"}))
    parser = cli.build_parser()
    args = cli._apply_config(parser.parse_args(["energy", "--config", str(cfg)]),
                             parser)
    assert args.t == 1.5


def test_format_flag(tmp_path):
    code = cli.main(["incidence-sweep", "--deltas", "2^-5,2^-6",
                     "--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "incidence_sweep.csv").exists()
    assert not (tmp_path / "incidence_sweep_summary.json").exists()


def test_invalid_parameter_exit_2(tmp_path, capsys):
    # precondition violations surface as invalid configuration
    code = cli.main(["incidence-sweep", "--t", "2.5", "--deltas", "2^-5",
                     "--out", str(tmp_path)])
    assert code == 2
    # the range of t is checked before any window is chosen
    code = cli.main(["incidence-sweep", "--t", "3", "--out", str(tmp_path)])
    assert code == 2
    assert "exponent t must lie in (1, 2)" in capsys.readouterr().err
    # the grid side is checked before any grid is built
    for command, n in (("xray-check", "4096"), ("smoothing", "4096"),
                       ("smoothing", "100"), ("xray-check", "8")):
        code = cli.main([command, "--n", n, "--out", str(tmp_path)])
        assert code == 2
        assert "--n must be a power of two from 16 to 512" in \
            capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_generator_atom_cap_exit_2(tmp_path, capsys):
    start = time.perf_counter()
    code = cli.main(["radial", "--deltas", "2^-40", "--out", str(tmp_path)])
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert "MAX_GENERATED_ATOMS" in capsys.readouterr().err
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
