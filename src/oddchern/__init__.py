"""Numerical odd Chern characters, degree functionals, and super-connection
localization on spheres and product spheres."""

import os as _os

# BLAS and OpenMP read their thread caps when numpy first loads, so
# CHERN_THREADS is applied here, before any submodule imports numpy.  An
# explicitly set OMP/OPENBLAS/MKL variable wins.
if "CHERN_THREADS" in _os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["CHERN_THREADS"])

from .chern import (
    SingularMapError,
    assemble_split_map,
    chern_simons,
    deg,
    deg_star,
    generator,
    maurer_cartan,
    odd_chern,
    transgression_form,
)
from .collapse import CollapseMap, mapping_degree
from .domains import ChartedSphereDomain, sphere_volume
from .fields import (
    FormField,
    exterior_derivative,
    integrate_top,
)
from .forms import GradedMatrixForm, nilpotent_exp
from .maps import (
    ChartMap,
    DualMatrixMap,
    HomotopyFamily,
    NumericMatrixMap,
    ProductMatrixMap,
    SmoothMatrixMap,
    circle_winding,
    su2_identity,
)
from .results import DegreeResult
from .superconn import (
    GammaReport,
    LocalizeReport,
    SuperBundleModel,
    boundary_model,
    flz_point_case,
    gamma_boundary_integral,
    gamma_closed_form,
    gamma_report,
    gaussian_moment,
    localize,
    unitarize,
)

__version__ = "0.1.0"
