"""Exact arithmetic for indefinite rational quaternion algebras.

The package constructs the algebras B = (-delta*level, p / Q) together with
their canonical level-N Eichler orders, builds explicit 2x2 matrix models at
every place, exhibits the two embeddings of the level-Nq order inside the
level-N one, transports orders across levels, and computes intersections of
order chains, all in exact rational or q-adically truncated arithmetic with a
replayable verification report for every construction.

``__all__`` is the declared public surface: the names that the README, the
demos and the benchmark import from the package, and the error classes of
the exit-code contract.  Every other name is imported from its own module.
"""

from .errors import (
    AmbientMismatchError,
    CaseMismatchError,
    InvalidParametersError,
    NoSquareRootError,
    NotANormError,
    NotAnOrderBasisError,
    NotDivisibleError,
    PrecisionLossError,
    QuatOrderError,
    RamifiedPlaceError,
    SearchExhaustedError,
)
from .exact import ZLattice4
from .numth import INFINITE_PLACE, find_a, find_hashimoto_prime
from .quat import (
    AlgebraParams,
    QuatElem,
    coords_in_hashimoto,
    hashimoto_basis,
    one,
    order_discriminant,
    phi_membership,
    pretty,
)
from .split import build_splitting, classify_place, verify_splitting
from .degeneracy import degeneracy_bases, verify_degeneracy
from .isomap import (
    build_psi,
    inclusion_coordinate_formulas,
    solve_conic,
    verify_psi,
    verify_psi_inclusion,
)
from .chains import (
    chain_closed_form,
    chain_lattice_level_one,
    classify_chain,
    pairwise_intersections,
    verify_chain,
    verify_chain_family,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraParams",
    "AmbientMismatchError",
    "CaseMismatchError",
    "INFINITE_PLACE",
    "InvalidParametersError",
    "NoSquareRootError",
    "NotANormError",
    "NotAnOrderBasisError",
    "NotDivisibleError",
    "PrecisionLossError",
    "QuatElem",
    "QuatOrderError",
    "RamifiedPlaceError",
    "SearchExhaustedError",
    "ZLattice4",
    "build_psi",
    "build_splitting",
    "chain_closed_form",
    "chain_lattice_level_one",
    "classify_chain",
    "classify_place",
    "coords_in_hashimoto",
    "degeneracy_bases",
    "find_a",
    "find_hashimoto_prime",
    "hashimoto_basis",
    "inclusion_coordinate_formulas",
    "one",
    "order_discriminant",
    "pairwise_intersections",
    "phi_membership",
    "pretty",
    "solve_conic",
    "verify_chain",
    "verify_chain_family",
    "verify_degeneracy",
    "verify_psi",
    "verify_psi_inclusion",
    "verify_splitting",
]
