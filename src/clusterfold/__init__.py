"""Exact-arithmetic cluster algebra mutation and folding.

Core objects: :class:`LaurentPolynomial` (exact multivariate Laurent
arithmetic), :class:`ExchangeMatrix` (skew-symmetrizable matrices with
mutation), :class:`Seed` (matrix + cluster), :class:`FoldingPair`
(matrix + automorphism group) with quotients, orbit mutations and
stability checking, plus root-system lemma verifiers, a diagram/pair
catalog and mutation-class explorers.
"""

from .exchange import (
    EntryOverflowError,
    ExchangeMatrix,
    NotSkewSymmetrizableError,
    cartan_counterpart,
    classify,
    find_symmetrizer,
    to_dot,
)
from .laurent import LaurentPolynomial, NotDivisibleError, divide_exact, parse_polynomial
from .seeds import (
    EnumerationResult,
    LaurentPhenomenonError,
    LimitExceededError,
    Seed,
    apply_mutation_word,
    enumerate_cluster_variables,
    exchange_binomial,
    initial_seed,
    is_invariant_seed,
    mutate_seed,
    permute_seed,
)
from .folding import (
    CommutationReport,
    FoldingPair,
    NotAdmissibleError,
    NotInvariantError,
    PermutationGroup,
    StabilityVerdict,
    check_stability,
    is_automorphism,
    is_automorphism_group,
    orbit_mutate_seed,
    orbit_mutate_word,
    project_seed,
    project_vector,
    quotient_matrix,
    quotient_symmetrizer,
    verify_commutation,
)
from .roots import (
    NotFiniteTypeError,
    almost_positive_roots,
    positive_roots,
    reflect,
    simple_roots,
    verify_denominator_bijection,
    verify_fiber_orbits,
    verify_root_projection,
)
from .catalog import (CatalogEntry, affine, diagram_name, dynkin, folding_pair, list_names,
                      named_cartan_matrices)
from .explorer import (
    MonotonicityReport,
    MutationClassReport,
    find_variable_by_denominator,
    mutation_class,
    rank2_denominators_below,
    verify_monotonicity_chain,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
