"""The package's public surface: the names it exports, the rule that no
module imports another hspec module's private names or a name it never
reads, and the library API that no report reads, which is gone with no
alias."""

import ast
import importlib
from pathlib import Path

import pytest

import hspec

SOURCE = Path(hspec.__file__).parent

PUBLIC = [
    "CriterionPreconditionError", "OperatorMatrix", "QuadratureRule", "SymbolError",
    "SymbolEvalError", "SymbolParseError", "SymbolSpec", "TruncationSpec", "assemble_matrix",
    "axis_signs", "build_report", "builtin_symbol", "check_multiplier_schatten", "classify_tail",
    "column_integrals", "compare_traces", "default_sigma", "eval_symbol", "gauss_hermite_rule",
    "hermite_table", "invariant_flips", "load_symbol", "multiplier_value", "parse_symbol",
    "pretty_print", "schatten_sum", "separate", "sigma_lower_bound",
    "singular_values", "spectral_trace", "symbol_from_dict", "symbol_sampler", "symbol_to_dict",
    "table_symbol",
]


def test_the_public_names_are_pinned():
    assert sorted(hspec.__all__) == PUBLIC


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_a_private_name_from_another_hspec_module():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("hspec"):
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}"
                      for alias in node.names if _private(alias.name)]
    assert found == []


def _imported(tree):
    """(line, name) of each name an import statement binds, but __future__'s."""
    return [(alias.lineno, alias.asname or alias.name.split(".")[0])
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names]


def test_no_module_imports_a_name_it_never_reads():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for line, name in _imported(tree)
                  if name not in read and "# noqa: F401" not in lines[line - 1]]
    assert found == []


def test_the_package_exports_the_names_it_imports():
    tree = ast.parse((SOURCE / "__init__.py").read_text())
    imported = [name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for name in (alias.asname or alias.name for alias in node.names)]
    assert sorted(imported) == sorted(hspec.__all__)


def test_hermite_and_symbol_import_nothing_from_multiindex():
    found = []
    for name in ("hermite.py", "symbol.py"):
        for node in ast.walk(ast.parse((SOURCE / name).read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("multiindex"):
                found.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.Import):
                found += [f"{name}:{node.lineno}" for alias in node.names
                          if alias.name.endswith("multiindex")]
    assert found == []


# per module, the attributes deleted with the API that no command or report read
DELETED = {
    "hspec": ["MultiIndex", "enumerate_level", "eval_hermite_1d", "eval_hermite_multi",
              "oscillator_eigenvalue", "CoefficientVector", "analyze", "apply_matrix",
              "export_matrix_csv", "kernel_eval", "synthesize", "check_hilbert_schmidt",
              "check_trace_class_positive", "check_sr_small", "check_sr_sigma",
              "trace_formula", "hilbert_schmidt_direct", "schatten_norm"],
    "hspec.criteria": ["check_hilbert_schmidt", "check_trace_class_positive", "check_sr_small",
                       "check_sr_sigma", "_operator_and_squares"],
    "hspec.schatten": ["trace_formula", "hilbert_schmidt_direct", "schatten_norm"],
    "hspec.operator": ["CoefficientVector", "analyze", "synthesize", "apply_matrix",
                       "kernel_eval", "_basis_at", "export_matrix_csv", "json",
                       "OperatorMatrix.column_integrals"],
    "hspec.multiindex": ["MultiIndex", "enumerate_level", "TruncationSpec.indices",
                         "TruncationSpec.rank", "TruncationSpec.unrank"],
    "hspec.hermite": ["eval_hermite_1d", "eval_hermite_multi", "oscillator_eigenvalue",
                      "QuadratureRule.integrate", "QuadratureRule.half_weights"],
}


@pytest.mark.parametrize("module", sorted(DELETED))
def test_the_deleted_api_has_no_alias(module):
    def has(path):
        obj = importlib.import_module(module)
        for part in path.split("."):
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    assert [path for path in DELETED[module] if has(path)] == []
