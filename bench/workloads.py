"""Seeded op sequences for the four benchmark workloads.

Every op is one hspec CLI call.  A workload's ops come in cycles: each cycle
is a seeded permutation of the workload's op kinds (level and symbol class),
so any whole number of cycles has the same size mix whatever the seed, and
only the order, the expression templates, the builtin families and the
coefficients change.
That keeps the medians comparable across seeds and across commits.

This module does not import hspec: the checker and the orchestrating process
use it to regenerate the exact ops a worker ran.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# op_tail_s needs at least 10 samples beyond it; with 16 it is p37.5 or higher
MIN_TIMED_OPS = 16


@dataclass(frozen=True)
class Op:
    index: int
    command: str          # analyze | criteria
    dim: int
    level: int
    r: str | None = None  # --r for criteria; analyze keeps the CLI default
    expr: str | None = None
    positive: bool = False  # symbol file claims positive_selfadjoint
    family: str | None = None
    params: tuple = ()    # builtin (name, text) pairs, passed verbatim

    @property
    def size(self) -> int:
        return math.comb(self.level + self.dim, self.dim)

    @property
    def quad_order(self) -> int:
        return self.level + 32  # the CLI default, which every op uses

    def symbol_doc(self) -> dict:
        return {"kind": "expression", "dim": self.dim, "expr": self.expr,
                "multiplier": False, "positive_selfadjoint": self.positive}

    def argv(self, symbol_path: str | None, output_path: str) -> list[str]:
        argv = [self.command]
        if self.expr is not None:
            argv += ["--symbol", symbol_path]
        else:
            argv += ["--builtin", self.family]
            for name, text in self.params:
                argv += ["--param", f"{name}={text}"]
        argv += ["--dim", str(self.dim), "--level", str(self.level)]
        if self.r is not None:
            argv += ["--r", self.r]
        return argv + ["--output", output_path]


def _coef(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


# Expression templates, rational in x and of similar cost, so the template
# drawn moves an op's time little.  The 2-D ones depend on nu as well, so
# every xdep-2d matrix is non-symmetric and takes the same eigensolver.  The
# positive 3-D one depends on x only: its matrix is symmetric positive and
# the symbol may claim positive_selfadjoint.
XDEP_2D = (
    "exp(-{a}*absnu)/(1+{b}*x1^2+{c}*x2^2)",
    "lam^(-{d})*(1+{a}*x1*x2/(1+x1^2+x2^2))",
    "exp(-{a}*lam)*(2+{b}*x1/(1+x2^2))",
)
XDEP_3D_POSITIVE = "1/(1+{a}*x1^2+{b}*x2^2+{c}*x3^2)"
XDEP_3D_MIXED = "exp(-{a}*absnu)/(1+{b}*x1^2+{c}*x2^2+{d}*x3^2)"
FAMILIES = ("heat", "power", "bandlimit")


def _fill(rng: random.Random, template: str) -> str:
    return template.format(a=_coef(rng, 0.2, 0.9), b=_coef(rng, 0.2, 0.9),
                           c=_coef(rng, 0.2, 0.9), d=_coef(rng, 0.5, 2.0))


def _builtin_params(rng: random.Random, family: str, level: int) -> tuple:
    if family == "heat":
        # t <= 0.5 keeps m^2 clear of underflow up to level 240
        return (("t", _coef(rng, 0.05, 0.5)),)
    if family == "power":
        return (("sigma", _coef(rng, 0.5, 3.0)),)
    return (("cutoff", str(rng.randint(level // 4, level))),)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    dim: int
    kinds: tuple          # one entry per op in a cycle
    # Nominal seconds per cycle on the 2-core reference box at the first
    # benchmarked commit.  A run executes round(seconds / cycle_s) whole
    # cycles, so parent and change always measure the same op sequence.
    cycle_s: float
    r: str | None = None
    make: object = field(default=None, compare=False)

    def cycles(self, seconds: float, traced: bool) -> int:
        """Whole cycles in one run; a traced run executes each op twice."""
        per_cycle = self.cycle_s * (2 if traced else 1)
        n = max(1, round(seconds / per_cycle))
        if not traced:
            n = max(n, math.ceil(MIN_TIMED_OPS / len(self.kinds)))
        return n

    def ops(self, seed: int, cycles: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{seed}")
        offset = rng.randrange(len(FAMILIES))
        out = []
        for _ in range(cycles):
            for kind in rng.sample(self.kinds, len(self.kinds)):
                index = len(out)
                out.append(Op(index=index, command=self.command, dim=self.dim, r=self.r,
                              **self.make(rng, kind, FAMILIES[(index + offset) % len(FAMILIES)])))
        return out


# make(rng, kind, family) -> the Op fields a workload draws.  Builtin
# families rotate with the op index, so any run has them in equal shares.

def _xdep_2d(rng, level, family):
    return {"level": level, "expr": _fill(rng, rng.choice(XDEP_2D))}


def _xdep_3d(rng, kind, family):
    level, positive = kind
    template = XDEP_3D_POSITIVE if positive else XDEP_3D_MIXED
    return {"level": level, "expr": _fill(rng, template), "positive": positive}


def _multiplier(rng, level, family):
    return {"level": level, "family": family,
            "params": _builtin_params(rng, family, level)}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="xdep-2d",
            command="analyze", dim=2, kinds=tuple(range(28, 35)), cycle_s=6.7,
            make=_xdep_2d,
        ),
        Workload(
            name="xdep-3d",
            command="criteria", dim=3, r="1,1.5,2",
            kinds=tuple((n, p) for n in (4, 5) for p in (True, False)), cycle_s=11.0,
            make=_xdep_3d,
        ),
        Workload(
            name="multiplier-2d",
            command="analyze", dim=2, kinds=tuple(range(44, 51)), cycle_s=4.4,
            make=_multiplier,
        ),
        Workload(
            name="shells-2d",
            command="criteria", dim=2, r="0.5,1,1.5,2",
            kinds=tuple(range(200, 241)), cycle_s=10.3,
            make=_multiplier,
        ),
    )
}
