"""Acceptance suite: every criterion at desk scale with its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them all).  The
experiment harnesses are shared with the command-line `verify` runner, so
these parameters are the single source of truth for desk scale.
"""

import functools
import time

import numpy as np
import pytest

from inclab import cli
from inclab import experiments as ex
from inclab.content import dyadic_content, multiscale_cover, smallest_katz_tao_constant
from inclab.geometry import PLANE
from inclab.measures import PointSet

SEED = 2026


def _timed(func, **kw):
    t0 = time.time()
    rows, summary = func(seed=SEED, **kw)
    return rows, summary, time.time() - t0


@functools.lru_cache(maxsize=None)
def xray_results():
    return _timed(ex.exp_xray_check)


def _report(num, name, ok, detail, elapsed, budget):
    line = (f"{'PASS' if ok else 'FAIL'} criterion {num:2d} [{name}] "
            f"{detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed <= budget, f"criterion {num} over budget: {line}"


def test_criterion_01_fourier_slice_identity():
    rows, summary, elapsed = xray_results()
    _report(1, "fourier-slice", summary["pass_slice"],
            f"residual {summary['slice_residual']:.2e} <= 1e-3, "
            f"monotone vs {summary['slice_residual_half']:.2e}",
            elapsed, 30 + 60)  # shares its run with criterion 2


def test_criterion_02_adjoint_duality():
    rows, summary, elapsed = xray_results()
    assert summary["duality_pairs"] >= 100
    _report(2, "adjoint-duality", summary["pass_duality"],
            f"max gap {summary['duality_gap']:.2e} <= 1e-6 over "
            f"{summary['duality_pairs']} pairs", elapsed, 30 + 60)


def test_criterion_03_smoothing_band():
    rows, summary, elapsed = _timed(ex.exp_smoothing)
    _report(3, "smoothing", summary["pass"],
            f"max spread {summary['max_spread']:.1f} <= 50 over "
            f"s in {sorted(summary['band'])}", elapsed, 300)


def test_criterion_04_tube_average_bound():
    rows, summary, elapsed = _timed(ex.exp_lemma4)
    _report(4, "tube-average-bound", summary["pass"],
            f"{summary['violations']} violations in {summary['fixtures']} "
            f"fixtures (worst margin {summary['worst_margin']:.3f})",
            elapsed, 60)


def test_criterion_05_incidence_inequality():
    rows, summary, elapsed = _timed(ex.exp_incidence_sweep)
    assert len(summary["fixtures"]) == 15
    _report(5, "incidence-inequality", summary["pass"],
            f"max slope {summary['max_slope']:+.3f} <= 0.1 across 15 fixtures",
            elapsed, 600)


def test_criterion_06_energy_equivalence():
    rows, summary, elapsed = _timed(ex.exp_energy)
    _report(6, "energy-equivalence", summary["pass"],
            f"ratios in [{summary['min_ratio']:.2f}, {summary['max_ratio']:.2f}]"
            f" within [0.25, 4]", elapsed, 300)


@functools.lru_cache(maxsize=None)
def content_results():
    return _timed(ex.exp_content)


def test_criterion_07_content_dp():
    rows, summary, elapsed = content_results()
    assert summary["fixtures"] == 100
    # hand-computable fixtures: bottom row of the unit square
    k = 6
    delta = 2.0 ** -k
    ix0 = round(2.0 / delta)
    row = PointSet(PLANE, delta, np.arange(ix0, ix0 + 2 ** k),
                   np.full(2 ** k, ix0))
    exact = (dyadic_content(row, 1.0).value == 1.0
             and dyadic_content(row, 2.0).value == pytest.approx(delta))
    ok = summary["oracle_agreement"] == summary["fixtures"] and exact
    _report(7, "content-dp", ok,
            f"oracle agreement {summary['oracle_agreement']}/"
            f"{summary['fixtures']}, bottom-row exact {exact}", elapsed, 120)


def test_criterion_08_multiscale_cover():
    t0 = time.time()
    rows, summary, _ = content_results()
    rng = np.random.default_rng(SEED)
    kt_ok = True
    for _ in range(20):
        n = int(rng.integers(4, 2000))
        P = PointSet(PLANE, 2.0 ** -7, rng.integers(0, 512, n),
                     rng.integers(0, 512, n))
        s = float(rng.uniform(0.4, 2.0))
        cover = multiscale_cover(P, s).cover  # raises on (a), (b) violations
        for fam in cover.values():
            if smallest_katz_tao_constant(fam, s) > 4.0:
                kt_ok = False
    ok = summary["multiscale_ok"] and kt_ok
    _report(8, "multiscale-cover", ok,
            "exact regrouping, unique cover, per-scale constant <= 4",
            time.time() - t0, 60)


def test_criterion_09_furstenberg():
    rows, summary, elapsed = _timed(ex.exp_furstenberg)
    detail = "; ".join(f"(s={f['s']},t={f['t']}) slope {f['slope']:+.3f} "
                       f"min {f['min_content']:.3f}"
                       for f in summary["fixtures"])
    _report(9, "furstenberg", summary["pass"], detail, elapsed, 600)


def test_criterion_10_slicing():
    rows, summary, elapsed = _timed(ex.exp_slicing)
    _report(10, "slicing", summary["pass"],
            f"slope {summary['slope']:+.3f} >= -0.1, "
            f"min value {summary['min_value']:.3f} >= 0.005", elapsed, 600)


def test_criterion_11_radial():
    rows, summary, elapsed = _timed(ex.exp_radial)
    _report(11, "radial", summary["pass"],
            f"best covering {summary['best_covering']} >= "
            f"threshold {summary['threshold']:.1f} "
            f"(fraction {summary['fraction']:.2f})", elapsed, 120)


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["verify", "--scale", "quick", "--seed", str(SEED),
                     "--out", str(out1)]) == 0
    assert cli.main(["verify", "--scale", "quick", "--seed", str(SEED),
                     "--out", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    identical = names1 == names2 and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names1)
    _report(12, "determinism", identical,
            f"{len(names1)} artifacts byte-identical across reruns",
            time.time() - t0, 1200)
