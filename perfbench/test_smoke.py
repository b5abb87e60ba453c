"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Each workload runs twice under the tracer.  Every layer the workload is
meant to exercise must record at least one call, the spectral transforms
must stay idle on the set workloads, and every count metric must repeat
exactly, as must every output.  The tiny grids are below the sizes the
X-ray tolerances are set for, so `pass` is checked by real runs only.
verify-quick runs the real `cli.main` verify over a plan whose experiments
take the same tiny parameters.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

run.import_inclab()

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_STATS = ("calls", "atoms", "cells", "lines", "pairs", "accept_ratio")
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"]
                 if m["name"].rsplit(".", 1)[-1] in COUNT_STATS]

SETS = {"geometry.grid_shape", "geometry.side_at_level",
        "measures.generate_cantor_measure", "incidence.incidences",
        "content.dyadic_content", "content.smallest_delta_s_constant"}
EXERCISED = {
    "spectral": {
        "experiments.exp_xray_check", "experiments.exp_smoothing",
        "spectral.xray", "spectral.adjoint_xray", "spectral.smoothing_ratio",
        "spectral.sobolev_norm_plane", "spectral.plane_fourier",
        "spectral.sobolev_norm_cylinder", "spectral.nonuniform_plane_fourier"},
    "large-sets": SETS | {
        "experiments.exp_incidence_sweep", "experiments.exp_energy",
        "experiments.exp_slicing", "experiments.exp_radial",
        "spectral.riesz_energy_fourier", "measures.riesz_energy_direct",
        "measures.generate_line_measure", "measures.radial_projection_covering",
        "scenarios.build_slicing", "scenarios.tube_cell_members",
        "scenarios.radial_check"},
    "small-sets": SETS | {
        "experiments.exp_lemma4", "experiments.exp_furstenberg",
        "experiments.exp_content", "experiments.enumerate_cover_min",
        "experiments.content_cover_lp", "incidence.lemma4_upper_bound",
        "content.multiscale_cover", "content.extract_katz_tao_subset",
        "content.smallest_katz_tao_constant", "scenarios.build_furstenberg"},
}
EXERCISED["verify-quick"] = (
    EXERCISED["spectral"] | EXERCISED["large-sets"] | EXERCISED["small-sets"]
    | {"cli.main", "cli.cmd_verify"})


TINY = {name: tiny for entries in run.EXPERIMENTS.values()
        for name, _, _, tiny in entries}


@pytest.fixture
def tiny_verify_plan(monkeypatch):
    from inclab import experiments
    plan = [(name, func, {"desk": TINY[func.__name__],
                          "quick": TINY[func.__name__]})
            for name, func, _ in experiments.VERIFY_PLAN]
    monkeypatch.setattr(experiments, "VERIFY_PLAN", plan)


def traced_pass(workload, scratch):
    ops = run.workload_ops(workload, seed=0, scratch=scratch, tiny=True)
    tracer = Tracer()
    _, results = run.run_pass(ops, tracer)
    return tracer.stats(), results


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_layers_and_counts(workload, tmp_path, tiny_verify_plan):
    first, results = traced_pass(workload, tmp_path)
    second, again = traced_pass(workload, tmp_path)

    called = {qual for qual, st in first.items() if st["calls"]}
    assert EXERCISED[workload] <= called, EXERCISED[workload] - called
    if workload in ("large-sets", "small-sets"):
        assert run._layer_stat(first, "spectral.xray", "calls") == 0
    for name in COUNT_METRICS:
        qual, stat = name.rsplit(".", 1)
        assert run._layer_stat(first, qual, stat) == \
            run._layer_stat(second, qual, stat), name
    assert [fp for _, fp in results] == [fp for _, fp in again]


def test_every_layer_metric_is_computed(tmp_path):
    stats, _ = traced_pass("large-sets", tmp_path)
    passes = [{"wall": 1.0, "results": [], "stats": None},
              {"wall": 1.1, "results": [], "stats": stats}]
    names = [m["name"] for m in SPEC["per_layer"]]
    values = run.layer_values(names, passes, failed=0, attempted=2)
    assert set(values) == set(names)
    assert values["trace_overhead"] == pytest.approx(0.1)


def test_tracer_restores_every_binding():
    from inclab import cli, experiments, scenarios
    before = (scenarios.smallest_delta_s_constant, cli.COMMANDS["verify"],
              experiments.VERIFY_PLAN[0][1])
    with Tracer():
        assert scenarios.smallest_delta_s_constant is not before[0]
        assert cli.COMMANDS["verify"] is not before[1]
        assert experiments.VERIFY_PLAN[0][1] is not before[2]
    assert (scenarios.smallest_delta_s_constant, cli.COMMANDS["verify"],
            experiments.VERIFY_PLAN[0][1]) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    got = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "spectral",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert got.returncode == 2
    assert got.stdout == ""
