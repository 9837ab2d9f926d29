"""Exact Farey-sequence toolkit.

Enumeration and rank of Farey fractions, the bijective map between low-order
sequences and Farey subintervals, closed-form and asymptotic position
formulas, and full/partial deviation sums against evenly spaced points --
all in exact integer arithmetic, with brute-force oracles alongside every
closed form.
"""

__version__ = "0.1.0"

from .arith import Fraction, INFINITY, ONE, ZERO, det2, gcd_triple, mediant, neighbor_gcd_check, shear
from .errors import BudgetError, FareyError, PreconditionError, TheoremViolation
from .farey import (
    FareyWindow,
    RankReport,
    count_in_window,
    enumerate_window,
    farey_neighbors,
    iter_window,
    next_farey,
    rank_fast,
    rank_oracle,
)
from .franel import (
    DressReport,
    DressSweep,
    FranelResult,
    GrowthScan,
    KanemitsuResult,
    SectionSum,
    dress_scan,
    dress_scan_sweep,
    full_franel_sum,
    growth_scan,
    kanemitsu_sum,
    partial_franel_sum_range,
    vertex_partial_sum,
)
from .index import (
    IndexEstimate,
    asymptotic_index_half,
    asymptotic_index_zero,
    exact_index_unit_fraction,
    general_index_estimate,
)
from .mapping import (
    CardinalityReport,
    FPrimeSet,
    MapParams,
    build_f_prime,
    cardinality_relation,
    forward_map,
    inverse_map,
    make_params,
    map_window,
)
from .totient import (
    AsymptoticError,
    TotientTable,
    build_totient_table,
    error_terms,
    farey_cardinality,
    lcm_range,
    mertens_upto,
    mobius_upto,
    scaled_phi_ratio_sum,
)
