"""Exact-arithmetic semistability toolkit.

Hilbert-Mumford pairings and torus-level destabilizers, weighted flags
of one-parameter subgroups, filtration functionals with nonvanishing
profiles, bilinear-form bundles on split models over the projective
line, and characteristic-bound lookup tables — all over exact rationals.
"""

from .classical import (
    FlagStep,
    FormBundle,
    FormVerdict,
    SplitSheafModel,
    SubsheafFlag,
    Symmetry,
    coordinate_flag,
    dualize_filtration,
    filtration_data_of,
    form_profile,
    kernel_destabilizer,
    ramanathan_semistable,
    saturation_degree,
    semistable_form,
)
from .dispo import (
    FiltrationData,
    FiltrationMember,
    NonvanishingProfile,
    Verdict,
    admissible_deformation,
    asymptotic_semistable,
    block_weights,
    delta_semistable,
    full_profile,
    functional_L,
    functional_M,
    mu_profile,
    slope_parameter,
    slope_semistable,
)
from .errors import SemistabError
from .exactmath import Order, UniPoly, format_rational, is_positive, poly_order, rational
from .flags import (
    OneParamSubgroup,
    WeightedFlag,
    WeightVector,
    integral_subgroup_of,
    parabolic_member,
    standard_weight_vector,
    unipotent_radical_member,
    weight_vector_of_filtration,
    weighted_flag_of,
)
from .hilbert_mumford import (
    HullCertificate,
    RepPoint,
    TorusVerdict,
    TorusWeightRep,
    dd_module_dim,
    divided_power_dim,
    mu,
    torus_destabilize,
    weighted_compositions,
)
from .repdata import (
    CharCondition,
    DynkinType,
    adjoint_low_height_bound,
    good_prime_excluded,
    heinloth_curve_condition,
    separable_index_upper_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "1.0.0"
