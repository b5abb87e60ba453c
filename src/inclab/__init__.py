"""Discretized incidence geometry lab.

Numerical counterparts of measure-theoretic objects in the plane: fractal
atom measures on dyadic grids and on the line-parameter space, the X-ray
transform with its Sobolev smoothing, weighted point-tube incidences
(decided by projecting the points onto each line's direction), dyadic
Hausdorff content, and experiment harnesses measuring how these
quantities behave across scales.
"""

from .measures import (CellFamilies, LineParamMeasure, PlanarAtomMeasure,
                       PointSet, covering_number, frostman_constant,
                       generate_cantor_measure, generate_line_measure,
                       radial_projection_covering, riesz_energy_direct)
from .content import (ContentResult, dyadic_content,
                      extract_katz_tao_subset, multiscale_cover,
                      smallest_delta_s_constant, smallest_katz_tao_constant)
from .spectral import (CylinderGrid, PlanarGrid, adjoint_xray,
                       canonical_cutoff, mixed_fourier, riesz_energy_fourier,
                       slice_identity_residual, smoothing_ratio,
                       sobolev_norm_cylinder, sobolev_norm_plane, xray)
from .incidence import incidences, inequality_sweep, lemma4_upper_bound
from .scenarios import (FurstenbergConfig, SlicingConfig, build_furstenberg,
                        build_slicing, furstenberg_content,
                        radial_check, slicing_tube_content)

__version__ = "0.1.0"
