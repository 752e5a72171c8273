"""Exact arithmetic for indefinite rational quaternion algebras.

The package constructs the algebras B = (-delta*level, p / Q) together with
their canonical level-N Eichler orders, builds explicit 2x2 matrix models at
every place, exhibits the two embeddings of the level-Nq order inside the
level-N one, transports orders across levels, and computes intersections of
order chains, all in exact rational or q-adically truncated arithmetic with a
replayable verification report for every construction.
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
from .exact import QuadRat, ZLattice4, frac_to_str
from .numth import (
    INFINITE_PLACE,
    PadicNum,
    find_a,
    find_hashimoto_prime,
    hensel_sqrt,
    hilbert_symbol,
    legendre,
    solve_norm_equation,
)
from .quat import (
    AlgebraParams,
    QuatElem,
    coords_in_hashimoto,
    element_from_coords,
    gens,
    hashimoto_basis,
    one,
    order_discriminant,
    order_lattice,
    phi_membership,
    pretty,
)
from .report import Check, Report
from .split import (
    LocalSplitting,
    PadicQuad,
    build_splitting,
    classify_place,
    verify_splitting,
)
from .degeneracy import (
    DegeneracyPair,
    classify_degeneracy,
    degeneracy_bases,
    verify_degeneracy,
)
from .isomap import (
    PsiMap,
    build_psi,
    inclusion_coordinate_formulas,
    solve_conic,
    verify_psi,
    verify_psi_inclusion,
)
from .chains import (
    ChainBasis,
    chain_closed_form,
    chain_kernel_exact,
    chain_lattice_level_one,
    chain_oracle,
    classify_chain,
    global_intersection,
    pairwise_intersections,
    verify_chain,
    verify_chain_family,
)
from .verify import run_sweep

__version__ = "0.1.0"

__all__ = [
    "AlgebraParams",
    "AmbientMismatchError",
    "CaseMismatchError",
    "ChainBasis",
    "Check",
    "DegeneracyPair",
    "INFINITE_PLACE",
    "InvalidParametersError",
    "LocalSplitting",
    "NoSquareRootError",
    "NotANormError",
    "NotAnOrderBasisError",
    "NotDivisibleError",
    "PadicNum",
    "PadicQuad",
    "PrecisionLossError",
    "PsiMap",
    "QuadRat",
    "QuatElem",
    "QuatOrderError",
    "RamifiedPlaceError",
    "Report",
    "SearchExhaustedError",
    "ZLattice4",
    "build_psi",
    "build_splitting",
    "chain_closed_form",
    "chain_kernel_exact",
    "chain_lattice_level_one",
    "chain_oracle",
    "classify_chain",
    "classify_degeneracy",
    "classify_place",
    "coords_in_hashimoto",
    "degeneracy_bases",
    "element_from_coords",
    "find_a",
    "find_hashimoto_prime",
    "frac_to_str",
    "gens",
    "global_intersection",
    "hashimoto_basis",
    "hensel_sqrt",
    "hilbert_symbol",
    "inclusion_coordinate_formulas",
    "legendre",
    "one",
    "order_discriminant",
    "order_lattice",
    "pairwise_intersections",
    "phi_membership",
    "pretty",
    "run_sweep",
    "solve_conic",
    "solve_norm_equation",
    "verify_chain",
    "verify_chain_family",
    "verify_degeneracy",
    "verify_psi",
    "verify_psi_inclusion",
    "verify_splitting",
]
