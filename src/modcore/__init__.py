"""modcore: reductions, residual intersections, and cores of modules over
polynomial rings, with an exact Groebner-basis kernel over GF(p)."""

__version__ = "0.1.0"

from .errors import ModcoreError, ParseError
from .orders import BlockOrder, GrevLex
from .poly import PolyRing, Polynomial, parse_poly, render_poly
from .groebner import (
    Ideal,
    height,
    hilbert_function,
    ideal_membership,
    intersect,
    krull_dimension,
    normal_form,
    quotient_ideal,
    saturate,
)
from .modalg import (
    FreeResolution,
    PresentedModule,
    Submodule,
    colon_into,
    cyclic_module,
    depth,
    direct_sum,
    ext_module,
    fitting_ideal,
    free_module,
    free_resolution,
    ideal_times_submodule,
    is_torsionfree,
    module_from_ideal,
    mu,
    projective_dimension,
    rank,
    span,
    submodule_intersect,
    syzygies,
    whole_module,
)
from .rees import (
    analytic_spread,
    core_monte_carlo,
    fiber_ideal,
    graded_component,
    is_reduction,
    random_reduction,
    reduction_number,
    rees_ideal,
    sym_ideal,
)
from .checks import (
    build_ideal_module,
    check_an,
    check_cm_rees,
    check_ext_vanishing,
    check_gs,
    hypothesis_report,
    residual_intersection,
    verify_balanced,
    verify_free_quotient,
    verify_pd1_core,
)
