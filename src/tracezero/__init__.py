"""Exact arithmetic for commutator witnesses and non-commutator certificates.

The package has three layers:

* rings: ``Field`` (rationals and prime fields), sparse polynomials with an
  optional degree truncation, matrices over those rings;
* constructions: witness pairs ``A = X B - B X`` for triangular, hollow and
  nilpotent targets, separated-set packing in a discrete simplex, trace-zero
  certificate matrices built from separated sets;
* checks: exact validation reports and a finite-ring exhaustive search that
  either confirms a certificate or produces a counterexample pair.
"""

from .certificates import (
    Certificate,
    ValidationReport,
    build_noncommutator,
    certificate_from_json,
    certificate_to_json,
    validate_certificate,
)
from .errors import BudgetExceeded, Error, MalformedInput, ValidationFailed
from .fields import Field
from .matrices import Matrix, commutator, conjugate, kernel_basis, nilpotent_flag
from .oracle import (
    FoundWitness,
    NoWitness,
    exhaustive_commutator_search,
    exhaustive_noncommutator_check,
    quadric_decomposition_check,
)
from .packing import (
    SeparatedSet,
    SepGraph,
    best_separated_set,
    build_graph,
    constant_weight_bound,
    corner_points,
    interior_candidates,
    is_d_separated,
    matrix_size_from_set,
    max_independent_set,
    normalize_with_corners,
    quadratic_construction,
    simplex_points,
    upper_bounds,
)
from .polynomials import (
    Poly,
    RingCtx,
    basis_monomials,
    enumerate_ring,
    poly_from_text,
    poly_to_text,
    project,
    reduce_by_divisor,
    ring_size,
)
from .witnesses import (
    Clique,
    WitnessPair,
    hollow_witness,
    nilpotent_witness,
    triangular_witness,
    verify_clique,
    witness_from_json,
    witness_to_json,
)

__version__ = "0.1.0"

# the public API is exactly the classes and functions imported above
__all__ = [name for name, obj in globals().items()
           if callable(obj) and not name.startswith("_")]
