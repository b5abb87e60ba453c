"""Mutation table: each row injects one defect and runs a check that must see it.

A row swaps one line of a function's source for a faulty one (or wraps the
function), runs a quick-scale `verify` experiment or an existing test with
the defect in place, and asserts that the experiment fails (its `pass` is
false, or it stops on its own postcondition) or that the test fails.
Defects that no check sees are listed in ROADMAP's mutation audit instead.
"""

import inspect
import sys
from pathlib import Path

import pytest

from inclab import content, experiments, incidence, measures, scenarios, spectral
from inclab.measures import PointSet

sys.path.insert(0, str(Path(__file__).resolve().parent))
import test_acceptance  # noqa: E402
import test_content  # noqa: E402
import test_incidence  # noqa: E402
import test_measures  # noqa: E402
import test_scenarios  # noqa: E402
import test_spectral  # noqa: E402

QUICK = {name: (run, scales["quick"])
         for name, run, scales in experiments.VERIFY_PLAN}


def mutate(monkeypatch, module, name, old, new):
    """Rebind every import of `module.name` to the function compiled from its
    source with the one occurrence of `old` replaced by `new`."""
    original = getattr(module, name)
    source = inspect.getsource(original)
    assert source.count(old) == 1
    namespace = {}
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         vars(module), namespace)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__dict__", {}).get(name) is original:
            monkeypatch.setattr(mod, name, namespace[name])


def quick_experiment_fails(name):
    run, kwargs = QUICK[name]
    run = getattr(experiments, run.__name__)  # a mutated experiment, if any
    try:
        _, summary = run(seed=0, **kwargs)
    except AssertionError:  # a postcondition of the experiment's builders
        return True
    return not summary["pass"]


def test_tube_width_two_delta_in_incidences(monkeypatch):
    mutate(monkeypatch, incidence, "incidences",
           "np.array(deltas)[:, None]", "2 * np.array(deltas)[:, None]")
    with pytest.raises(AssertionError):
        test_incidence.test_incidence_brute_equals_bucketed_exactly()


def test_upper_run_end_before_the_tube_edge_in_incidences(monkeypatch):
    # a pair exactly on the upper edge, fl(p - r) = +delta, is left out of
    # its run; the brute property's exact-edge fixtures put pairs there
    mutate(monkeypatch, incidence, "_hit_runs",
           "- rs <= deltas", "- rs < deltas")
    with pytest.raises(AssertionError):
        test_incidence.test_incidence_brute_equals_bucketed_exactly()


def test_hit_count_times_weight_in_incidences(monkeypatch):
    # a product rounds once where np.sum of equal weights rounds per addition
    mutate(monkeypatch, incidence, "_incidence_masses",
           "np.sum(np.full(int(c), w[0]))", "int(c) * w[0]")
    with pytest.raises(AssertionError):
        test_incidence.test_incidence_brute_equals_bucketed_exactly()


def test_coarser_truncations_reuse_the_finest_energy_kernel(monkeypatch):
    # criteria 5 and 6 do not see this one, quick (seeds 0 and 2026): the
    # sweep slope rises to 0.002 and the energy ratios stay in [1.04, 1.68];
    # the direct and FFT pair energies share the ladder, so one call per
    # truncation against one call for the list must
    mutate(monkeypatch, measures, "_truncation_ladder",
           "k[near] = np.maximum(dist[near], trunc) ** -s", "pass")
    with pytest.raises(AssertionError):
        test_measures.test_energy_truncation_sequence_matches_single_calls()


def test_signed_row_displacement_in_the_pair_energy(monkeypatch):
    # a negative displacement index wraps silently to another table entry;
    # criteria 5 and 6 do not see it, quick (seeds 0 and 2026): the energy
    # ratios move to [1.15, 2.39], inside [0.25, 4], so the per-pair
    # reference must; the quick verify digests in golden.json see it too
    mutate(monkeypatch, measures, "_pair_energy_direct",
           "at += np.abs(iy[a:a + 256, None] - iy)",
           "at += iy[a:a + 256, None] - iy")
    with pytest.raises(AssertionError):
        test_measures.test_energy_row_slices_match_whole_block_products(257)


def test_first_occupied_row_left_out_of_the_fourier_energy(monkeypatch):
    # criterion 6 does not see this one, quick (seeds 0 and 2026): the
    # energy ratios move to [0.98, 1.66], so the fft2 property must; the
    # quick verify digests in golden.json see it too
    mutate(monkeypatch, spectral, "_power_spectrum",
           "spec[rows] = np.fft.fft(part, axis=1)",
           "spec[rows[1:]] = np.fft.fft(part[1:], axis=1)")
    with pytest.raises(AssertionError):
        test_spectral.test_power_spectrum_of_occupied_rows_equals_fft2()


def test_xray_angles_shifted_by_one_row(monkeypatch):
    mutate(monkeypatch, spectral, "_xray",
           "a = 2.0 * math.pi * (i / n)", "a = 2.0 * math.pi * ((i + 1) / n)")
    assert quick_experiment_fails("fourier-slice")


def test_backprojections_paired_with_the_wrong_inputs(monkeypatch):
    mutate(monkeypatch, experiments, "exp_xray_check",
           "[sp.adjoint_xray(f) for f in fs]",
           "[sp.adjoint_xray(f) for f in fs[::-1]]")
    assert quick_experiment_fails("fourier-slice")


def test_sequence_norm_reuses_the_first_cusp_weight(monkeypatch):
    # criterion 3 does not see this one: the quick and desk smoothing bands
    # stay far inside SMOOTHING_BAND, so the sharing test must
    mutate(monkeypatch, spectral, "_sobolev_norm",
           "_cusp_weight(rows, cols, e)", "_cusp_weight(rows, cols, exps[0])")
    with pytest.raises(AssertionError):
        test_spectral.test_smoothing_ratio_shares_one_transform_across_s()


def test_square_origin_bin_takes_the_interval_rule(monkeypatch):
    # criteria 3 and 6 do not see this one, quick or desk (the desk energy
    # ratios move from [1.01, 1.68] to [0.50, 1.75], inside [0.25, 4]), so
    # the plane norm's closed form on a Gaussian must
    mutate(monkeypatch, spectral, "_cusp_weight",
           'if rows.dtype.kind == "i":', "if True:")
    with pytest.raises(AssertionError):
        test_spectral.test_sobolev_plane_gaussian()


def test_cylinder_origin_bin_takes_the_square_rule(monkeypatch):
    # criteria 3 and 6 do not see this one either, so the cylinder norm's
    # closed form on a radial Gaussian must
    mutate(monkeypatch, spectral, "_cusp_weight",
           'if rows.dtype.kind == "i":', "if False:")
    with pytest.raises(AssertionError):
        test_spectral.test_sobolev_cylinder_radial_gaussian(-0.25)


def test_every_line_measured_against_the_first_in_the_majorant(monkeypatch):
    mutate(monkeypatch, incidence, "lemma4_upper_bound",
           "(thetas[b], rs[b], pts, delta)",
           "(np.full(len(thetas[b]), thetas[0]), "
           "np.full(len(rs[b]), rs[0]), pts, delta)")
    assert quick_experiment_fails("tube-average-bound")


def test_every_crossing_bisected_with_the_first_delta_in_the_majorant(
        monkeypatch):
    # criterion 4's rule does not see this one, quick (seeds 0 and 2026) or
    # desk: a crossing bisected in another fixture's ball moves its root by
    # less than a sample step (desk worst margin 1.387 to 1.383), so the
    # one-fixture loops must; the desk digest in golden.json sees it too
    mutate(monkeypatch, incidence, "_bisected_measures",
           "np.full(li.size, delta)", "np.full(li.size, pending[0][0][3])")
    with pytest.raises(AssertionError):
        test_incidence.test_lemma4_equals_one_line_loop(incidence.MAJORANT_BLOCK)


def test_two_delta_ball_in_the_majorant(monkeypatch):
    # quick criterion 4 does not see this one (its worst margin falls from
    # 2.98 to 1.51, with no violation), so the origin atom's closed form must
    mutate(monkeypatch, incidence, "_inside",
           "9.0 * (delta * delta)", "4.0 * (delta * delta)")
    with pytest.raises(AssertionError):
        test_incidence.test_lemma4_point_at_origin()


def test_cover_square_doubled_in_dyadic_content(monkeypatch):
    exact = content.dyadic_content

    def doubled(P, s, max_levels_up=None):
        # the square of twice the side holding the first coarsest cover
        # square joins the cover, one level above any other cover square
        res = exact(P, s, max_levels_up)
        level = min(res.cover, default=0)
        if level > 0:
            sq = res.cover[level]
            res.cover[level - 1] = PointSet(P.root, 2 * sq.resolution,
                                            sq.ix[:1] // 2, sq.iy[:1] // 2)
        return res

    monkeypatch.setattr(content, "dyadic_content", doubled)
    assert quick_experiment_fails("content-dp")


def test_cover_squares_shifted_by_one_in_dyadic_content(monkeypatch):
    # criterion 7's rule does not see this one, quick (seeds 0 and 2026):
    # the values are right, so the oracles agree 25/25, but each level's
    # cover squares are the chosen mask rolled by one; multiscale_cover's
    # partition check sees the cover miss cells, and criterion 8 fails
    mutate(monkeypatch, content, "dyadic_content",
           "codes[mask]", "codes[np.roll(mask, 1)]")
    assert quick_experiment_fails("content-dp")


def test_cover_lp_nodes_numbered_in_code_order(monkeypatch):
    # the LP optimum is the same cover either way, so criterion 7's rule
    # (quick, seeds 0 and 2026) and the DP-against-LP property do not see
    # this one, though the desk digest in golden.json does; the dict-built
    # system, column for column, must
    mutate(monkeypatch, experiments, "_cover_lp_system",
           "node[np.argsort(first)] = np.arange(first.size)",
           "node[:] = np.arange(first.size)")
    with pytest.raises(AssertionError):
        test_content.test_cover_lp_system_equals_dict_construction()


def test_direction_cantor_keeps_one_child_of_two(monkeypatch):
    mutate(monkeypatch, scenarios, "_direction_cantor",
           "if mj == 2:", "if mj > 2:")
    assert quick_experiment_fails("furstenberg")


def test_high_half_first_in_cell_bits(monkeypatch):
    # criterion 9 does not see this one, quick (seeds 0 and 2026) or desk:
    # the swapped bits are as fair, so the reference test against numpy's
    # generators must; the desk digest in golden.json sees it too
    mutate(monkeypatch, scenarios, "_cell_bits",
           "bits[:, k], bits[:, k + 1] = out >> 31 & 1, out >> 63",
           "bits[:, k + 1], bits[:, k] = out >> 31 & 1, out >> 63")
    with pytest.raises(AssertionError):
        test_scenarios.test_direction_cantor_rows_equal_one_cell_loop(
            [1] * 6, 0)


def test_unseeded_cell_generators_in_direction_cantor(tmp_path, monkeypatch):
    # quick exp_furstenberg still passes (seeds 0 and 2026), so only
    # criterion 12's byte comparison of two verify runs sees this one
    mutate(monkeypatch, scenarios, "_direction_cantor",
           "draws = _cell_bits(seed, ix, iy, picks)",
           "draws = np.array([np.random.default_rng()"
           ".integers(0, 2, size=picks) for _ in ix])")
    with pytest.raises(AssertionError, match="FAIL criterion 12"):
        test_acceptance.test_criterion_12_determinism(tmp_path)


def test_slice_slack_of_one_delta_in_tube_cell_members(monkeypatch):
    # criterion 10 does not see this one, quick or desk: the smallest slice
    # maximum stays 1.516 with slope 0, so the fresh-range members must
    mutate(monkeypatch, scenarios, "tube_cell_members",
           "slack = 2.0 * cfg.delta", "slack = cfg.delta")
    with pytest.raises(AssertionError):
        test_scenarios.test_tube_cell_members_match_fresh_projection_ranges()


def test_covering_min_from_e_alone_in_radial_check(monkeypatch):
    # criterion 11 does not see this one, quick or desk: a larger minimum
    # only raises the best covering (34 to 38 quick, 62 to 69 desk, against
    # thresholds 18.4 and 27.9), so the one-viewpoint recount must
    mutate(monkeypatch, scenarios, "radial_check",
           "for sub in subsets]", "for sub in subsets[:0]]")
    with pytest.raises(AssertionError):
        test_scenarios.test_radial_check_rows_match_single_viewpoint_calls()
