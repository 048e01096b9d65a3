"""hspec: pseudo-multipliers of the quantum harmonic oscillator as truncated
matrices on the Hermite basis, with Schatten-class criteria and trace
formulas checked against computed spectra."""

__version__ = "0.1.0"

from types import ModuleType as _Module
from .multiindex import TruncationSpec
from .hermite import QuadratureRule, gauss_hermite_rule, hermite_table
from .symbol import (
    SymbolError,
    SymbolEvalError,
    SymbolParseError,
    SymbolSpec,
    axis_signs,
    builtin_symbol,
    eval_symbol,
    invariant_flips,
    load_symbol,
    multiplier_value,
    parse_symbol,
    pretty_print,
    separate,
    symbol_from_dict,
    symbol_sampler,
    symbol_to_dict,
    table_symbol,
)
from .operator import OperatorMatrix, assemble_matrix, column_integrals
from .schatten import (
    build_report,
    compare_traces,
    schatten_sum,
    singular_values,
    spectral_trace,
)
from .criteria import (
    CriterionPreconditionError,
    check_multiplier_schatten,
    classify_tail,
    default_sigma,
    sigma_lower_bound,
)

# the imported names, not the submodules that importing them binds
__all__ = [n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _Module)]
