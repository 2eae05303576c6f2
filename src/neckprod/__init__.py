"""neckprod: exact necklace counts N(a, n), truncated Euler-type product
expansion, brute-force counting of monic irreducible polynomials over
finite fields, and rigorous verification that the necklace-exponent
product collapses to 1 - a z, both symbolically and numerically.
"""

from .exact import (
    NecklaceTable,
    build_necklace_table,
    divisors,
    mobius,
    necklace_count,
)
from .finitefield import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FieldContext,
    MonicPoly,
    NotPrimeError,
    build_field,
    count_irreducibles,
    irreducible_flags,
    is_irreducible_rabin,
    is_irreducible_trial,
)
from .series import (
    ExponentSpec,
    TruncatedSeries,
    eval_complex,
    expand_direct,
    expand_recursive,
)
from .verify import (
    BridgeReport,
    NumericReport,
    SymbolicReport,
    necklace_exponent_spec,
    tail_bound,
    verify_count_bridge,
    verify_numeric,
    verify_symbolic,
)

__version__ = "0.1.0"

__all__ = [
    "BridgeReport",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "ExponentSpec",
    "FieldContext",
    "MonicPoly",
    "NecklaceTable",
    "NotPrimeError",
    "NumericReport",
    "SymbolicReport",
    "TruncatedSeries",
    "build_field",
    "build_necklace_table",
    "count_irreducibles",
    "divisors",
    "eval_complex",
    "expand_direct",
    "expand_recursive",
    "irreducible_flags",
    "is_irreducible_rabin",
    "is_irreducible_trial",
    "mobius",
    "necklace_count",
    "necklace_exponent_spec",
    "tail_bound",
    "verify_count_bridge",
    "verify_numeric",
    "verify_symbolic",
]
