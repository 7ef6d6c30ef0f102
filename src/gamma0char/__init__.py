"""Exact arithmetic for unitary characters of Gamma0(N).

Dedekind sums, the integer-valued invariant on SL2(Z) with its composition
cocycle, the level-lowering homomorphisms on Gamma0(N), Farey-symbol
generator sets with word decomposition, Dirichlet characters, the explicit
character formula, and batch verifiers over ranges of levels.
"""

from .exact import (
    CircleExponent,
    dedekind_sum,
    dedekind_sum_fast,
    integer_rank,
)
from .sl2 import Gamma0Element, UniModular, chi_t, omega, psi, sigma
from .farey import (
    FareySymbol,
    GeneratorSet,
    Word,
    decompose,
    exponent_sum,
    farey_symbol,
    generators,
    index_gamma0,
)
from .dirichlet import (
    DirichletCharacter,
    enumerate_characters,
    unit_group_structure,
)
from .charformula import (
    CharacterParams,
    SigmaMatrix,
    TheoremViolation,
    beta,
    dedekind_identity_quotient,
    eval_character,
    kernel_exponent_check,
    sigma_matrix,
)
from .verify import (
    verify_conjecture1,
    verify_conjecture2,
    verify_conjecture3,
    verify_surjectivity,
)

__version__ = "0.1.0"

__all__ = [
    "CircleExponent",
    "CharacterParams",
    "DirichletCharacter",
    "FareySymbol",
    "Gamma0Element",
    "GeneratorSet",
    "SigmaMatrix",
    "TheoremViolation",
    "UniModular",
    "Word",
    "beta",
    "chi_t",
    "decompose",
    "dedekind_identity_quotient",
    "dedekind_sum",
    "dedekind_sum_fast",
    "enumerate_characters",
    "eval_character",
    "exponent_sum",
    "farey_symbol",
    "generators",
    "index_gamma0",
    "integer_rank",
    "kernel_exponent_check",
    "omega",
    "psi",
    "sigma",
    "sigma_matrix",
    "unit_group_structure",
    "verify_conjecture1",
    "verify_conjecture2",
    "verify_conjecture3",
    "verify_surjectivity",
]
