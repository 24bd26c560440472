"""Exact computation of weighted Orlik-Solomon cohomology, mod-N ranks,
resonance tests, and certified Betti-number bounds for complements of
complex hyperplane arrangements."""

from .arrangement import (
    Arrangement,
    Flat,
    IntersectionLattice,
    NotEssentialError,
    ZeroFormError,
    arrangement_from_circuits,
    arrangement_from_cone_circuits,
    build_arrangement,
    essentialize,
    generic_section,
    product_arrangement,
)
from .cohom import (
    CohomologyReport,
    WeightVector,
    modN_cohomology_ranks,
    os_cohomology_dims,
)
from .exactla import (
    NFElement,
    NotPrimeError,
    NumberField,
    bareiss_rank,
    field_rank,
    is_prime,
    rank_mod_p,
    rank_over_Q,
    smith_normal_form,
)
from .fileio import (
    ArrangementFileError,
    arrangement_from_dict,
    arrangement_to_dict,
    read_arrangement,
    write_arrangement,
)
from .matroid import Matroid
from .osalg import (
    AomotoMatrix,
    aomoto_matrix,
    nbc_basis,
    reduce_to_nbc,
)
from .resonance import (
    BettiBoundsReport,
    EdgeWeight,
    VanishingReport,
    betti_bounds,
    edge_weights,
    resonance_membership,
    yuzvinsky_vanishing,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "Flat",
    "IntersectionLattice",
    "Matroid",
    "NotEssentialError",
    "ZeroFormError",
    "arrangement_from_circuits",
    "arrangement_from_cone_circuits",
    "build_arrangement",
    "essentialize",
    "generic_section",
    "product_arrangement",
    "CohomologyReport",
    "WeightVector",
    "modN_cohomology_ranks",
    "os_cohomology_dims",
    "NFElement",
    "NotPrimeError",
    "NumberField",
    "bareiss_rank",
    "field_rank",
    "is_prime",
    "rank_mod_p",
    "rank_over_Q",
    "smith_normal_form",
    "ArrangementFileError",
    "arrangement_from_dict",
    "arrangement_to_dict",
    "read_arrangement",
    "write_arrangement",
    "AomotoMatrix",
    "aomoto_matrix",
    "nbc_basis",
    "reduce_to_nbc",
    "BettiBoundsReport",
    "EdgeWeight",
    "VanishingReport",
    "betti_bounds",
    "edge_weights",
    "resonance_membership",
    "yuzvinsky_vanishing",
    "__version__",
]
