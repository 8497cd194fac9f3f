"""jdist: exact classification of maximal m-distance point sets containing
Johnson graph representations."""

from .exactnum import (
    NegativeDiscriminant,
    NegativeRadicand,
    QuadNum,
    format_quad,
    parse_quad,
    solve_quadratic,
)
from .families import (
    CandidateFamily,
    NotReducible,
    Parameters,
    ReductionTrace,
    addable_families,
    enumerate_families,
    is_addable,
    max_profile,
    profile_sq_dist,
    reduce_fully,
    reduce_step,
)
from .maximality import (
    ClassificationReport,
    UniverseTooLarge,
    build_universe,
    classify,
    max_clique,
    verify_point_set,
)
from .numbertheory import (
    RangeError,
    extension_family,
    is_extendable,
    max_extendable_n,
    parity_check,
    special_factor,
)
from .spectra import ParameterMismatch, cross_family_spectrum, johnson_family_spectrum
from .subjohnson import (
    SubFamily,
    combination_search,
    congruent,
    solve_sub_families,
    sub_johnson_points,
)

__version__ = "0.1.0"
