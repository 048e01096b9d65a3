"""hspec: pseudo-multipliers of the quantum harmonic oscillator as truncated
matrices on the Hermite basis, with Schatten-class criteria and trace
formulas checked against computed spectra."""

__version__ = "0.1.0"

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
    hilbert_schmidt_direct,
    schatten_norm,
    schatten_sum,
    singular_values,
    spectral_trace,
    trace_formula,
)
from .criteria import (
    CriterionPreconditionError,
    check_hilbert_schmidt,
    check_multiplier_schatten,
    check_sr_sigma,
    check_sr_small,
    check_trace_class_positive,
    classify_tail,
    default_sigma,
    sigma_lower_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
