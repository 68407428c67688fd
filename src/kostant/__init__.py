"""Exact Lie-combinatorics for the root system A_r.

Partition counts via iterated residues, weight multiplicities, tensor
product coefficients, and the exact polynomials those quantities follow
along dilation rays.  All arithmetic is integer or rational; nothing is
ever rounded.
"""

from .formulas import (
    RayFitFailure,
    RayPolynomial,
    multiplicity,
    multiplicity_polynomial,
    tensor_polynomial,
    tensor_product,
)
from .permsearch import BudgetExceeded, valid_couples, valid_permutations
from .permutations import Permutation
from .residues import (
    iterated_residue,
    kostant_partition,
    partition_counts,
    partition_total,
    special_permutations,
)
from .vectors import (
    DominantWeight,
    ValidationError,
    as_vector,
    deform,
    from_fundamental,
    in_positive_cone,
    is_regular,
    positive_roots,
    rho,
    theta,
    to_fundamental,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DominantWeight",
    "Permutation",
    "RayFitFailure",
    "RayPolynomial",
    "ValidationError",
    "as_vector",
    "deform",
    "from_fundamental",
    "in_positive_cone",
    "is_regular",
    "iterated_residue",
    "kostant_partition",
    "multiplicity",
    "multiplicity_polynomial",
    "partition_counts",
    "partition_total",
    "positive_roots",
    "rho",
    "special_permutations",
    "tensor_polynomial",
    "tensor_product",
    "theta",
    "to_fundamental",
    "valid_couples",
    "valid_permutations",
    "__version__",
]
