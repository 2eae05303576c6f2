"""neckprod: exact necklace counts N(a, n), truncated Euler-type product
expansion, brute-force counting of monic irreducible polynomials over
finite fields, and rigorous verification that the necklace-exponent
product collapses to 1 - a z, both symbolically and numerically.
Public names and the modules exact, finitefield, series and verify are
imported on first use (PEP 562), so a caller loads only what it touches.
"""

import importlib

__version__ = "0.1.0"

# each public name's home module
_HOME = {
    "exact": "NecklaceTable build_necklace_table divisors mobius necklace_count",
    "finitefield": "DEFAULT_BUDGET BudgetExceededError FieldContext MonicPoly NotPrimeError build_field "
    "count_irreducibles is_irreducible_rabin is_irreducible_trial",
    "series": "ExponentSpec TruncatedSeries eval_complex expand_direct expand_recursive",
    "verify": "BridgeReport NumericReport SymbolicReport necklace_exponent_spec tail_bound "
    "verify_count_bridge verify_numeric verify_symbolic",
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _HOME:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:  # the lazy names too, importing none of them
    return sorted(set(globals()) | set(__all__) | set(_HOME))
