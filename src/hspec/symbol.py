"""Symbols m(x, nu) of pseudo-multipliers: builtin families, a small
expression language, and tabulated grids.

The expression grammar (see parse_symbol) covers total real arithmetic over
the variables x1..xn, nu1..nun, absnu (= |nu|), lam (= 2|nu|+n), n, pi, e.
A symbol with no x-dependence is a plain multiplier; its operator is
diagonal and is stored as the values m(nu).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Union

import numpy as np


FUNCTIONS = {
    "exp": (1, np.exp),
    "log": (1, np.log),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "sqrt": (1, np.sqrt),
    "abs": (1, np.abs),
    "pow": (2, np.power),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}

BUILTIN_FAMILIES = ("power", "heat", "bandlimit")


class SymbolError(Exception):
    """Base for symbol construction/evaluation failures."""


class SymbolParseError(SymbolError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class SymbolEvalError(SymbolError):
    pass


# ---------------------------------------------------------------------------
# expression trees: each node records, as it is built, the variables its
# subtree reads (names) and its depth, from its children's records

# the deepest tree parse_symbol accepts: the walkers over a tree recurse
MAX_DEPTH = 500
# the most parser frames one parse may hold open: "(" and a call hold five
# (expr, term, factor, unary, atom), a unary "-" one.  A parse past it is
# refused at the token that opens the next level, so where it is refused
# depends only on the input; the bound leaves room for the caller's frames
# below Python's default recursion limit of 1000
MAX_PARSE_FRAMES = 600


def _record(node, names, *children) -> None:
    object.__setattr__(node, "names", frozenset(names).union(*(c.names for c in children)))
    object.__setattr__(node, "depth", 1 + max((c.depth for c in children), default=0))


@dataclass(frozen=True)
class Num:
    value: float
    names = frozenset()
    depth = 1


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        _record(self, (self.name,))


@dataclass(frozen=True)
class Neg:
    arg: "Node"

    def __post_init__(self):
        _record(self, (), self.arg)


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"

    def __post_init__(self):
        _record(self, (), self.left, self.right)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Node", ...]

    def __post_init__(self):
        _record(self, (), *self.args)


Node = Union[Num, Var, Neg, BinOp, Call]


def _variables(dim: int) -> set[str]:
    names = {"absnu", "lam", "n", "pi", "e"}
    names.update(f"x{j}" for j in range(1, dim + 1))
    names.update(f"nu{j}" for j in range(1, dim + 1))
    return names


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int, int]] = []  # kind, value, line, col
        self._scan()

    def _scan(self):
        line, col = 1, 1
        i, text = 0, self.text
        while i < len(text):
            c = text[i]
            if c == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if c.isspace():
                i += 1
                col += 1
                continue
            if c.isdigit() or (c == "." and i + 1 < len(text) and text[i + 1].isdigit()):
                j = i
                while j < len(text) and (text[j].isdigit() or text[j] == "."):
                    j += 1
                if j < len(text) and text[j] in "eE":
                    k = j + 1
                    if k < len(text) and text[k] in "+-":
                        k += 1
                    if k < len(text) and text[k].isdigit():
                        j = k
                        while j < len(text) and text[j].isdigit():
                            j += 1
                lit = text[i:j]
                try:
                    float(lit)
                except ValueError:
                    raise SymbolParseError(f"malformed number {lit!r}", line, col)
                self.tokens.append(("num", lit, line, col))
                col += j - i
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], line, col))
                col += j - i
                i = j
                continue
            if c in "+-*/^(),":
                self.tokens.append((c, c, line, col))
                i += 1
                col += 1
                continue
            raise SymbolParseError(f"unexpected character {c!r}", line, col)
        self.tokens.append(("eof", "", line, col))


class _Parser:
    """Recursive descent over:

        expr   := term (("+"|"-") term)*
        term   := factor (("*"|"/") factor)*
        factor := unary ("^" unary)?
        unary  := "-" unary | atom
        atom   := NUMBER | IDENT | "(" expr ")" | IDENT "(" expr ("," expr)* ")"
    """

    def __init__(self, text: str, dim: int):
        self.tokens = _Tokenizer(text).tokens
        self.i = 0
        self.vars = _variables(dim)
        self.frames = 0  # parser frames held open by "(", calls and unary "-"

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise SymbolParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2], tok[3])
        return tok

    def parse(self) -> Node:
        try:
            node = self.expr()
        except RecursionError:  # a caller already deep runs out of stack before the bound
            tok = self.tokens[min(self.i, len(self.tokens) - 1)]
            raise SymbolParseError("expression nested too deeply to parse", tok[2], tok[3]) from None
        tok = self.peek()
        if tok[0] != "eof":
            raise SymbolParseError(f"trailing input starting at {tok[1]!r}", tok[2], tok[3])
        return node

    def nest(self, tok, frames: int) -> None:
        """Hold frames more parser frames open, refused at tok past the bound."""
        self.frames += frames
        if self.frames > MAX_PARSE_FRAMES:
            raise SymbolParseError("expression nested too deeply to parse", tok[2], tok[3])

    def build(self, node: Node, tok) -> Node:
        """node, refused at the token tok when its tree is deeper than MAX_DEPTH."""
        if node.depth > MAX_DEPTH:
            raise SymbolParseError(f"expression nested deeper than {MAX_DEPTH} levels",
                                   tok[2], tok[3])
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            tok = self.advance()
            node = self.build(BinOp(tok[0], node, self.term()), tok)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            tok = self.advance()
            node = self.build(BinOp(tok[0], node, self.factor()), tok)
        return node

    def factor(self) -> Node:
        node = self.unary()
        if self.peek()[0] == "^":
            tok = self.advance()
            node = self.build(BinOp("^", node, self.unary()), tok)
        return node

    def unary(self) -> Node:
        if self.peek()[0] == "-":
            tok = self.advance()
            self.nest(tok, 1)
            node = self.build(Neg(self.unary()), tok)
            self.frames -= 1
            return node
        return self.atom()

    def atom(self) -> Node:
        tok = self.advance()
        kind, value, line, col = tok
        if kind == "num":
            return Num(float(value))
        if kind == "(":
            self.nest(tok, 5)
            node = self.expr()
            self.expect(")")
            self.frames -= 5
            return node
        if kind == "ident":
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise SymbolParseError(f"unknown function {value!r}", line, col)
                self.advance()
                self.nest(tok, 5)
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                self.frames -= 5
                arity = FUNCTIONS[value][0]
                if len(args) != arity:
                    raise SymbolParseError(
                        f"function {value!r} takes {arity} argument(s), got {len(args)}", line, col
                    )
                return self.build(Call(value, tuple(args)), tok)
            if value not in self.vars:
                raise SymbolParseError(f"unknown identifier {value!r}", line, col)
            return Var(value)
        raise SymbolParseError(f"expected a value, found {value or 'end of input'!r}", line, col)


def pretty_print(node: Node) -> str:
    """Fully parenthesized form; reparses to the identical tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{pretty_print(node.arg)})"
    if isinstance(node, BinOp):
        return f"({pretty_print(node.left)} {node.op} {pretty_print(node.right)})"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(pretty_print(a) for a in node.args)})"
    raise TypeError(f"not an expression node: {node!r}")


def _uses_x(node: Node) -> bool:
    return any(v.startswith("x") for v in node.names)


def _uses_nu(node: Node) -> bool:
    return any(v in ("absnu", "lam") or v.startswith("nu") for v in node.names)


def _flip_signs(node: Node, dim: int) -> np.ndarray:
    """The node's sign under each coordinate flip x -> hx, indexed by the bit
    mask h (bit j flips x_{j+1}): +1 if it is unchanged, -1 if it changes
    sign, 0 if unknown."""
    if isinstance(node, Var) and node.name.startswith("x"):
        bit = 1 << (int(node.name[1:]) - 1)
        return np.where(np.arange(2**dim) & bit, -1, 1)
    if isinstance(node, (Num, Var)):  # constants, n, pi, e and the nu-variables
        return np.ones(2**dim, dtype=int)
    if isinstance(node, Neg):
        return _flip_signs(node.arg, dim)
    if isinstance(node, BinOp) and node.op in "+-":
        a, b = _flip_signs(node.left, dim), _flip_signs(node.right, dim)
        return np.where(a == b, a, 0)
    if isinstance(node, BinOp) and node.op in "*/":
        return _flip_signs(node.left, dim) * _flip_signs(node.right, dim)
    if isinstance(node, BinOp) or node.func == "pow":
        base, exponent = (node.left, node.right) if isinstance(node, BinOp) else node.args
        b = _flip_signs(base, dim)
        # (-b)^k = (-1)^k b^k needs an integer k; an even base takes any even exponent
        if isinstance(exponent, Num) and float(exponent.value).is_integer():
            return b if exponent.value % 2 else np.abs(b)
        return np.where((b == 1) & (_flip_signs(exponent, dim) == 1), 1, 0)
    args = [_flip_signs(a, dim) for a in node.args]
    if node.func == "sin":
        return args[0]
    if node.func in ("abs", "cos"):
        return np.abs(args[0])
    return np.where(np.all(np.array(args) == 1, axis=0), 1, 0)  # exp log sqrt min max


@dataclass(frozen=True, eq=False)
class _Values:
    """A nu-free subtree, with its names, replaced by its values on a grid's nodes."""
    values: np.ndarray
    names: frozenset
    depth = 1


def _fold(node: Node, env: dict) -> Node:
    """node with each maximal nu-free subtree evaluated under env."""
    if not _uses_nu(node):
        return _Values(np.asarray(_eval_node(node, env), dtype=float), node.names)
    if isinstance(node, Neg):
        return Neg(_fold(node.arg, env))
    if isinstance(node, BinOp):
        return BinOp(node.op, _fold(node.left, env), _fold(node.right, env))
    if isinstance(node, Call):
        return Call(node.func, tuple(_fold(a, env) for a in node.args))
    return node  # a nu-variable


def _eval_node(node: Node, env: dict):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, _Values):
        return node.values
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval_node(node.arg, env)
    if isinstance(node, BinOp):
        a = _eval_node(node.left, env)
        b = _eval_node(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return np.divide(a, b)  # inf, not ZeroDivisionError, on Python floats
        return np.power(a, b)
    if isinstance(node, Call):
        fn = FUNCTIONS[node.func][1]
        return fn(*(_eval_node(a, env) for a in node.args))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# symbol specifications

@dataclass(frozen=True)
class SymbolSpec:
    """A symbol m(x, nu), one of three kinds.

    kind "builtin": family in BUILTIN_FAMILIES with params;
    kind "expression": parsed tree over the grammar above;
    kind "table": per-coordinate x grids with values tabulated per nu.
    Its flip signs and its split are found once per instance.
    """

    kind: str
    dim: int
    claims_positive_selfadjoint: bool = False
    family: Optional[str] = None
    params: dict = field(default_factory=dict)
    tree: Optional[Node] = None
    text: Optional[str] = None
    table: Optional[dict] = None

    @property
    def is_multiplier(self) -> bool:
        """m reads no x: a builtin, or an expression free of x."""
        return self.kind == "builtin" or (self.kind == "expression" and not _uses_x(self.tree))

    @cached_property
    def _signs(self) -> np.ndarray:
        """_flip_signs of the tree; none proved (0) for a table, +1 for a builtin."""
        if self.kind == "expression":
            return _flip_signs(self.tree, self.dim)
        return np.full(2**self.dim, int(self.kind == "builtin"))

    @cached_property
    def _split(self) -> tuple[SymbolSpec, SymbolSpec] | None:
        if self.kind != "expression":
            return None
        factors = _factors(self.tree)
        if any(_uses_x(f) and _uses_nu(f) for f, _ in factors):
            return None
        a = _product([(f, d) for f, d in factors if not _uses_x(f)])
        b = _product([(f, d) for f, d in factors if _uses_x(f)])
        return (replace(self, tree=a, text=pretty_print(a)),
                replace(self, tree=b, text=pretty_print(b)))


def parse_symbol(text: str, dim: int, positive_selfadjoint: bool = False) -> SymbolSpec:
    """Parse an expression-kind symbol."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    tree = _Parser(text, dim).parse()
    return SymbolSpec(
        kind="expression",
        dim=dim,
        claims_positive_selfadjoint=positive_selfadjoint,
        tree=tree,
        text=text,
    )


def builtin_symbol(family: str, dim: int, **params) -> SymbolSpec:
    """The three built-in multiplier families.

    power(sigma): (2|nu|+n)^(-sigma); heat(t): e^(-t(2|nu|+n));
    bandlimit(cutoff): indicator of |nu| <= cutoff.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if family not in BUILTIN_FAMILIES:
        raise ValueError(f"unknown builtin family {family!r}; known: {BUILTIN_FAMILIES}")
    required = {"power": {"sigma"}, "heat": {"t"}, "bandlimit": {"cutoff"}}[family]
    if set(params) != required:
        raise ValueError(f"family {family!r} needs params {sorted(required)}, got {sorted(params)}")
    params = {k: float(v) for k, v in params.items()}
    if not all(math.isfinite(v) for v in params.values()):
        raise ValueError(f"family {family!r} needs finite params, got {params}")
    return SymbolSpec(
        kind="builtin",
        dim=dim,
        claims_positive_selfadjoint=True,
        family=family,
        params=params,
    )


def _finite_numbers(value) -> np.ndarray | None:
    """value as a float array when it nests finite real numbers evenly, else
    None: a bool, string, null or ragged nesting is refused (np.asarray would
    read true beside a float as 1.0)."""
    try:
        leaves = np.array(value, dtype=object)  # Python scalars, also from an array
        kinds = set(map(type, leaves.ravel().tolist()))
        if all(issubclass(k, (int, float, np.integer, np.floating)) and k is not bool
               for k in kinds):
            arr = leaves.astype(float)
            return arr if np.isfinite(arr).all() else None
    except (ValueError, OverflowError):  # a ragged nesting; an int past the double range
        pass
    return None


def table_symbol(dim: int, grids: list, values: dict, positive_selfadjoint: bool = False) -> SymbolSpec:
    """Tabulated symbol: grids is one ascending node list per coordinate,
    values maps nu tuples to arrays over the tensor grid (1-D array in dim 1),
    all of finite numbers.
    """
    grids = [_finite_numbers(g) for g in grids]
    if any(g is None for g in grids):
        raise ValueError("symbol field 'table.grids' must hold finite numbers")
    if len(grids) != dim:
        raise ValueError(f"need {dim} coordinate grids, got {len(grids)}")
    for g in grids:
        if g.ndim != 1 or g.size < 2 or not np.all(np.diff(g) > 0):
            raise ValueError("each grid must be a strictly increasing 1-D array of length >= 2")
    shape = tuple(g.size for g in grids)
    vals = {}
    for nu, arr in values.items():
        arr = _finite_numbers(arr)
        if arr is None or arr.size != math.prod(shape):
            raise SymbolError(f"symbol field 'table.values' at nu={nu!r} must be finite "
                              f"numbers of shape {shape} over the grid")
        vals[tuple(int(k) for k in nu)] = arr.reshape(shape)
    return SymbolSpec(
        kind="table",
        dim=dim,
        claims_positive_selfadjoint=positive_selfadjoint,
        table={"grids": grids, "values": vals},
    )


def invariant_flips(spec: SymbolSpec) -> list[int]:
    """The bit masks h of the coordinate sign flips x -> hx (bit j flips
    x_{j+1}) that leave m(x, nu) unchanged for every nu, read from the
    expression tree.  The check is sufficient, not necessary: a flip the
    rules cannot prove is left out.  A table symbol has none proved; a
    builtin, free of x, is invariant under every flip."""
    return [h for h, s in enumerate(spec._signs) if h and s == 1]


def axis_signs(spec: SymbolSpec) -> tuple[int, ...]:
    """The sign of m(x, nu) under the flip of each single coordinate x_j,
    read from the expression tree as invariant_flips reads the flips: +1 if
    the flip leaves m unchanged, -1 if it changes its sign, 0 if unknown
    (every axis of a table; a builtin is +1 in every axis)."""
    return tuple(int(spec._signs[1 << j]) for j in range(spec.dim))


def _factors(node: Node, divides: bool = False) -> list[tuple[Node, bool]]:
    """The factors of the top-level * / chain as (factor, divides) pairs in
    order; a Neg on the way becomes the factor -1."""
    if isinstance(node, Neg):
        return [(Num(-1.0), False)] + _factors(node.arg, divides)
    if isinstance(node, BinOp) and node.op in "*/":
        return _factors(node.left, divides) + _factors(node.right, divides ^ (node.op == "/"))
    return [(node, divides)]


def _product(factors: list[tuple[Node, bool]]) -> Node:
    """The * / chain of (factor, divides) pairs; 1 for none."""
    node = None
    for f, divides in factors:
        if node is None:
            node = BinOp("/", Num(1.0), f) if divides else f
        else:
            node = BinOp("/" if divides else "*", node, f)
    return Num(1.0) if node is None else node


def separate(spec: SymbolSpec) -> tuple[SymbolSpec, SymbolSpec] | None:
    """Expression symbols (a, b) with m(x, nu) = a(nu) b(x), read from the
    factors of the top-level * / chain: a is an x-free symbol (1 when every
    factor reads x), b a nu-free one.  Constant factors and the signs of Neg
    go to a.  None when a factor reads both x and nu, and for a table or a
    builtin."""
    return spec._split


def _env(spec: SymbolSpec, nus=None, pts=None, grid: bool = False) -> dict:
    """Values of the grammar's variables.  nus is a (c, n) array of indices,
    or None (no nu-variables); pts an (M, n) batch of points, the (q, n)
    per-axis nodes of a tensor grid (grid=True), or None.  The variables
    broadcast against each other: on a batch nu_j is (c, 1) and x_j (M,); on
    a grid nu_j is (c, 1, ..., 1) and x_j the nodes along axis j of the
    (q,) * n grid, so a subtree costs one value per node of the coordinates
    it reads."""
    env = {"n": float(spec.dim), "pi": math.pi, "e": math.e}
    if nus is not None:
        shape = (-1,) + (1,) * (spec.dim if grid else 1)
        comps = [nus[:, j].astype(float).reshape(shape) for j in range(spec.dim)]
        order = sum(comps)
        env.update(absnu=order, lam=2.0 * order + spec.dim)
        env.update((f"nu{j}", k) for j, k in enumerate(comps, start=1))
    if pts is not None:
        for j in range(spec.dim):
            x = pts[:, j]
            if grid:  # the nodes along axis j, contiguous as the columns of a grid's batch are
                x = np.ascontiguousarray(x).reshape((-1,) + (1,) * (spec.dim - 1 - j))
            env[f"x{j + 1}"] = x
    return env


def _grid_nodes(spec: SymbolSpec, x) -> np.ndarray:
    """x as the (q, n) per-axis nodes of a tensor grid."""
    nodes = np.asarray(x, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != spec.dim:
        raise ValueError(f"grid nodes have shape {nodes.shape}, expected (q, {spec.dim})")
    return nodes


def _index_rows(spec: SymbolSpec, nu) -> np.ndarray:
    """nu, a (c, n) array of indices, as an int array, checked against the
    symbol's dimension."""
    rows = np.asarray(nu, dtype=int)
    if rows.ndim != 2 or rows.shape[1] != spec.dim:
        raise ValueError(f"index array has shape {rows.shape}, expected (c, {spec.dim})")
    return rows


def _builtin(spec: SymbolSpec, order: int) -> float:
    """m(nu) of a builtin family at |nu| = order."""
    lam = 2 * order + spec.dim
    if spec.family == "bandlimit":
        return 1.0 if order <= spec.params["cutoff"] else 0.0
    try:
        if spec.family == "power":
            return lam ** (-spec.params["sigma"])
        return math.exp(-spec.params["t"] * lam)
    except OverflowError:
        return math.inf


def multiplier_value(spec: SymbolSpec, nu):
    """m(nu) of a multiplier, a symbol with no x-dependence, as a (c,) array
    for a (c, n) array of indices.  A builtin depends on nu only through |nu|
    and is evaluated once per order."""
    if not spec.is_multiplier:
        raise ValueError("the symbol depends on x; evaluate it with eval_symbol")
    rows = _index_rows(spec, nu)
    if spec.kind == "builtin":
        orders, where = np.unique(rows.sum(axis=1), return_inverse=True)
        vals = np.array([_builtin(spec, int(s)) for s in orders], dtype=float)[where]
    else:  # x-free expression
        with np.errstate(all="ignore"):
            vals = np.broadcast_to(_eval_node(spec.tree, _env(spec, rows)),
                                   (len(rows), 1))[:, 0].astype(float)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise SymbolEvalError(
            f"symbol evaluation not finite at nu={tuple(rows[np.argmax(bad)].tolist())}")
    return vals


def eval_symbol(spec: SymbolSpec, x, nu, *, grid: bool = False):
    """m(x, nu); x is a point in R^n or an (M, n) batch of points, nu a (c, n)
    integer array of indices.

    Returns a (c, M) array, or (1, M) when m does not depend on nu: an
    expression is evaluated once, each subtree on the indices and points it
    depends on, so an x-only symbol costs M evaluations, not c M.

    With grid=True, x is the (q, n) array of the per-axis nodes of a tensor
    grid, column j those of x_j, and the batch is its M = q^n points in
    row-major order (x_1 slowest); the values are the same, bit for bit.  An
    expression is then evaluated on the nodes broadcast along their axes, so
    a subtree that reads one coordinate costs q evaluations, not q^n; a
    table is evaluated on the points.
    """
    rows = _index_rows(spec, nu)
    if grid:
        pts = _grid_nodes(spec, x)
        if spec.kind == "table":  # interpolated at the q^n points
            pts, grid = np.stack(np.meshgrid(*pts.T, indexing="ij")).reshape(spec.dim, -1).T, False
    else:
        pts = np.asarray(x, dtype=float)  # a batch keeps its width: no regrouping
        pts = pts.reshape(-1, pts.shape[-1]) if pts.ndim > 1 else pts.reshape(1, -1)
        if pts.shape[1] != spec.dim:
            raise ValueError(f"points have dimension {pts.shape[1]}, symbol has {spec.dim}")
    shape = (len(pts),) * spec.dim if grid else (len(pts),)

    if spec.is_multiplier:
        out = np.repeat(multiplier_value(spec, rows)[:, None], math.prod(shape), axis=1)
    elif spec.kind == "table":
        out = np.stack([_eval_table(spec, pts, tuple(k)) for k in rows.tolist()])
    else:
        with np.errstate(all="ignore"):
            out = np.asarray(_eval_node(spec.tree, _env(spec, rows, pts, grid)), dtype=float)
        full = (out.shape[0] if out.ndim == len(shape) + 1 else 1,) + shape
        # copy a broadcast result, or one shared with x or a folded subtree
        if out.shape != full or not out.flags.owndata:
            out = np.broadcast_to(out, full).copy()
        out = out.reshape(full[0], -1)
    bad = ~np.isfinite(out)
    if bad.any():
        k, i = np.unravel_index(np.argmax(bad), out.shape)
        at = pts[list(np.unravel_index(i, shape)), range(spec.dim)] if grid else pts[i]
        raise SymbolEvalError(
            f"symbol evaluation not finite at x={tuple(float(v) for v in at)}, "
            f"nu={tuple(int(v) for v in rows[k])}")
    return out


def symbol_sampler(spec: SymbolSpec, x):
    """The function nus -> eval_symbol(spec, x, nus, grid=True) for the fixed
    (q, n) per-axis nodes x of a tensor grid, sampled one block of indices at
    a time.  The subtrees of an expression that do not depend on nu are
    evaluated on the broadcast nodes once, here, not on every call.
    """
    nodes = _grid_nodes(spec, x)
    if spec.kind == "expression" and not spec.is_multiplier:
        with np.errstate(all="ignore"):
            spec = replace(spec, tree=_fold(spec.tree, _env(spec, pts=nodes, grid=True)))
    return lambda nus: eval_symbol(spec, nodes, nus, grid=True)


def _eval_table(spec: SymbolSpec, pts: np.ndarray, nu: tuple[int, ...]) -> np.ndarray:
    grids = spec.table["grids"]
    try:
        arr = spec.table["values"][nu]
    except KeyError:
        raise SymbolEvalError(f"tabulated symbol has no values for nu={nu}") from None
    for j, g in enumerate(grids):
        lo, hi = g[0], g[-1]
        out_of_hull = (pts[:, j] < lo) | (pts[:, j] > hi)
        if np.any(out_of_hull):
            bad = tuple(float(v) for v in pts[out_of_hull][0])
            raise SymbolEvalError(
                f"point x={bad} outside tabulated hull in coordinate {j + 1} "
                f"[{lo}, {hi}]; extrapolation is refused"
            )
    if spec.dim == 1:
        return np.interp(pts[:, 0], grids[0], arr)
    from scipy.interpolate import RegularGridInterpolator

    interp = RegularGridInterpolator(grids, arr, method="linear", bounds_error=True)
    return interp(pts)


# ---------------------------------------------------------------------------
# file schema

def symbol_to_dict(spec: SymbolSpec) -> dict:
    doc = {
        "kind": spec.kind,
        "dim": spec.dim,
        "multiplier": spec.is_multiplier,
        "positive_selfadjoint": spec.claims_positive_selfadjoint,
    }
    if spec.kind == "builtin":
        doc["family"] = spec.family
        doc["params"] = dict(spec.params)
    elif spec.kind == "expression":
        doc["expr"] = spec.text
    else:
        doc["table"] = {
            "grids": [g.tolist() for g in spec.table["grids"]],
            "values": {",".join(map(str, k)): v.tolist() for k, v in spec.table["values"].items()},
        }
    return doc


def _field(doc: dict, key: str):
    if key not in doc:
        raise SymbolError(f"symbol document missing field {key!r}")
    return doc[key]


def symbol_from_dict(doc: dict) -> SymbolSpec:
    if not isinstance(doc, dict):
        raise SymbolError("symbol document must be a mapping")
    kind = _field(doc, "kind")
    dim = _field(doc, "dim")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise SymbolError(f"symbol field 'dim' must be an integer, got {dim!r}")
    psd, multiplier = doc.get("positive_selfadjoint", False), doc.get("multiplier", False)
    if not (isinstance(psd, bool) and isinstance(multiplier, bool)):
        raise SymbolError("symbol fields 'multiplier' and 'positive_selfadjoint' must be true "
                          f"or false, got {multiplier!r} and {psd!r}")
    if kind == "builtin":
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise SymbolError(f"symbol field 'params' must be a mapping, got {params!r}")
        if not all(type(v) in (int, float) for v in params.values()):
            raise SymbolError(f"symbol field 'params' must map names to numbers, got {params!r}")
        spec = builtin_symbol(_field(doc, "family"), dim, **params)
        if not psd:
            spec = replace(spec, claims_positive_selfadjoint=False)
    elif kind == "expression":
        expr = _field(doc, "expr")
        if not isinstance(expr, str):
            raise SymbolError(f"symbol field 'expr' must be a string, got {expr!r}")
        spec = parse_symbol(expr, dim, positive_selfadjoint=psd)
    elif kind == "table":
        t = _field(doc, "table")
        if not (isinstance(t, dict) and isinstance(t.get("grids"), list)
                and isinstance(t.get("values"), dict)):
            raise SymbolError("symbol field 'table' needs a 'grids' list and a 'values' mapping")
        values = {}
        for key, v in t["values"].items():
            try:
                nu = tuple(int(s) for s in key.split(","))
            except ValueError:
                nu = ()
            if len(nu) != dim:
                raise SymbolError(f"symbol field 'table.values' has key {key!r}; expected a "
                                  f"multi-index of {dim} comma-separated integers")
            values[nu] = v
        spec = table_symbol(dim, t["grids"], values, positive_selfadjoint=psd)
    else:
        raise SymbolError(f"unknown symbol kind {kind!r}")
    if "multiplier" in doc and multiplier != spec.is_multiplier:
        raise SymbolError(
            f"document claims multiplier={multiplier} but the {kind} "
            f"{'has no' if spec.is_multiplier else 'has'} x-dependence"
        )
    return spec


def load_symbol(path) -> SymbolSpec:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SymbolError(f"not valid JSON ({exc})") from exc
    return symbol_from_dict(doc)
