"""Generic mixed-binary linear program container and a CPLEX-LP writer for
external cross-checks.  The text is checked with HiGHS's own LP reader, not
with a reader of this package.

A model is mutable while it is being built and must be treated as immutable
afterwards; solved models are shareable across threads.
"""
from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Literal, Mapping, Sequence

INF = math.inf

Kind = Literal["binary", "continuous"]
Sense = Literal["<=", "=", ">="]

SENSES = ("<=", "=", ">=")


class ModelError(ValueError):
    """Misuse of the model builder: duplicate or unwritable names, bad handles,
    empty bounds, coefficients that are not finite."""


#: words an LP reader takes as keywords wherever a name stands, compared
#: without case; HiGHS's reader refuses a file that uses one as a name
_LP_KEYWORDS = frozenset({
    "min", "max", "minimize", "maximize", "minimum", "maximum", "st", "bound",
    "bounds", "bin", "binary", "binaries", "gen", "general", "generals",
    "integer", "integers", "semi", "semis", "sos", "end", "free",
})


def _lp_name(name: str) -> bool:
    """Whether LP text can carry ``name`` as a column or row name: an ASCII
    identifier that is not a keyword and does not start like the numbers
    ``inf`` and ``nan``."""
    if not (name.isascii() and name.isidentifier()):
        return False
    folded = name.lower()
    return folded not in _LP_KEYWORDS and not folded.startswith(("inf", "nan"))


def _new_names(names: list[str], taken: set[str], what: str) -> set[str]:
    """The set of ``names``, once each is known to be new to ``taken`` and to
    the batch, and writable as LP text."""
    fresh = set(names)
    if len(fresh) < len(names) or not taken.isdisjoint(fresh):
        seen: set[str] = set()
        for name in names:
            if name in taken or name in seen:
                raise ModelError(f"duplicate {what} name {name!r}")
            seen.add(name)
    if not all(map(_lp_name, names)):
        bad = next(name for name in names if not _lp_name(name))
        raise ModelError(f"{what} name {bad!r} cannot be written as LP text")
    return fresh


def _first_not_finite(values: array) -> int | None:
    """The position of the first NaN or infinity in ``values``, or None."""
    if math.isfinite(sum(values)):  # a NaN or an infinity would make the sum so
        return None
    # the sum also overflows on large finite values
    return next((k for k, value in enumerate(values) if not math.isfinite(value)), None)


def checked_columns(
    names: Sequence[str], upper: Sequence[float], handles: Iterable[int]
) -> list[int]:
    """The handles of an ``install`` call on the columns named ``names`` with
    upper bounds ``upper``, checked: each names a column whose upper bound
    admits 1."""
    handles = list(handles)
    for handle in handles:
        if not 0 <= handle < len(names):
            raise ModelError(f"install references unknown variable handle {handle}")
        if upper[handle] < 1.0:
            raise ModelError(
                f"variable {names[handle]!r} cannot take the bounds [1.0, {upper[handle]}]"
            )
    return handles


#: the arrays that hold a model, columns first, then the rows
_BUFFERS = (
    "col_names", "col_binary", "col_lower", "col_upper", "col_cost",
    "row_names", "row_sense", "row_rhs", "row_start", "row_index", "row_coef",
)


class MilpModel:
    """Minimization model over binary and continuous variables.

    ``add_columns`` and ``add_rows`` return integer handles; row terms
    reference columns by handle.  Names must be unique, and a column
    or row name must be an ASCII identifier that is not an LP keyword and does
    not start with ``inf`` or ``nan`` (compared without case), so HiGHS's LP
    reader reads every model back.  Objective coefficients, constraint
    coefficients and right-hand sides must be finite.

    The model is stored as the arrays an LP solver loads, so a solve reads
    them without a loop over variables or terms.  Column ``j`` has the name
    ``col_names[j]``, the binary flag ``col_binary[j]``, the bounds
    ``col_lower[j]``/``col_upper[j]`` and the objective coefficient
    ``col_cost[j]``.  Row ``i`` has the name ``row_names[i]``, the sense
    ``SENSES[row_sense[i]]`` and the right-hand side ``row_rhs[i]``; its
    terms are the columns ``row_index[k]`` with coefficients ``row_coef[k]``
    for ``row_start[i] <= k < row_start[i + 1]`` (compressed sparse rows).
    These arrays are the only copy of the model.  Only the methods below
    write them; ``export_lp`` and ``==`` read them.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.col_names: list[str] = []
        self.col_binary = array("b")
        self.col_lower = array("d")
        self.col_upper = array("d")
        self.col_cost = array("d")
        self.row_names: list[str] = []
        self.row_sense = array("b")
        self.row_rhs = array("d")
        # "i" is the 32-bit index type HiGHS takes
        self.row_start = array("i", [0])
        self.row_index = array("i")
        self.row_coef = array("d")
        self._col_name_set: set[str] = set()
        self._row_name_set: set[str] = set()

    @property
    def num_variables(self) -> int:
        return len(self.col_names)

    @property
    def num_constraints(self) -> int:
        return len(self.row_names)

    def add_columns(
        self,
        names: Sequence[str],
        kind: Kind = "continuous",
        lower: float = 0.0,
        upper: float = INF,
        objective: float = 0.0,
    ) -> range:
        """Append one family of columns that share a kind, bounds and an
        objective coefficient, and return their handles.  The family is
        checked as a whole before any buffer grows, so a refused family leaves
        the model as it was."""
        names = list(names)
        fresh = _new_names(names, self._col_name_set, "variable")
        if kind == "binary":
            lower, upper = 0.0, 1.0
        elif kind != "continuous":
            raise ModelError(f"unknown variable kind {kind!r}")
        lower, upper, objective = float(lower), float(upper), float(objective)
        first = len(self.col_names)
        if not names:
            return range(first, first)
        label = names[0]  # the family shares its bounds and cost
        if lower > upper:
            raise ModelError(f"variable {label!r} has empty bound interval [{lower}, {upper}]")
        # false for a NaN bound too
        if not (lower < INF and upper > -INF):
            raise ModelError(
                f"variable {label!r} has bounds [{lower}, {upper}], which no real value meets"
            )
        if not math.isfinite(objective):
            raise ModelError(f"variable {label!r} has objective coefficient {objective}")
        count = len(names)
        self.col_names.extend(names)
        self.col_binary.extend(array("b", [kind == "binary"]) * count)
        self.col_lower.extend(array("d", [lower]) * count)
        self.col_upper.extend(array("d", [upper]) * count)
        self.col_cost.extend(array("d", [objective]) * count)
        self._col_name_set |= fresh
        return range(first, first + count)

    def add_rows(
        self,
        rows: Iterable[tuple[str, Iterable[int], Iterable[float], float]],
        sense: Sense,
    ) -> range:
        """Append one family of rows that share a sense, and return their
        handles.  Each row is ``(name, handles, coefficients, rhs)``: its
        terms are the columns ``handles[k]`` with coefficients
        ``coefficients[k]``.  Within a row the handles are distinct and the
        coefficients nonzero.  The family is checked as a whole before any
        buffer grows, so a refused family leaves the model as it was."""
        names, start, index, coef, rhs = [], [0], [], [], []
        for name, handles, coefficients, value in rows:
            a = len(index)
            index += handles
            coef += coefficients
            b = len(index)
            if len(coef) != b:
                raise ModelError(
                    f"constraint {name!r} has {b - a} handles and {len(coef) - a} coefficients"
                )
            if b - a > 1 and len(set(index[a:])) < b - a:
                raise ModelError(f"constraint {name!r} repeats a variable handle")
            names.append(name)
            start.append(b)
            rhs.append(value)
        fresh = _new_names(names, self._row_name_set, "constraint")
        if sense not in SENSES:
            raise ModelError(f"unknown constraint sense {sense!r}")
        # converted before any buffer grows: a value of the wrong type raises here
        index, coef, rhs = array("i", index), array("d", coef), array("d", map(float, rhs))
        num_variables = len(self.col_names)

        def row_of(k: int) -> str:
            return names[bisect.bisect_right(start, k) - 1]

        if index and not (min(index) >= 0 and max(index) < num_variables):
            k = next(k for k, h in enumerate(index) if not 0 <= h < num_variables)
            raise ModelError(f"constraint {row_of(k)!r} references unknown variable handle {index[k]}")
        k = _first_not_finite(coef)
        if k is not None:
            raise ModelError(f"constraint {row_of(k)!r} has a coefficient that is not finite")
        if 0.0 in coef:
            raise ModelError(f"constraint {row_of(coef.index(0.0))!r} has a zero coefficient")
        row = _first_not_finite(rhs)
        if row is not None:
            raise ModelError(f"constraint {names[row]!r} has right-hand side {rhs[row]}")
        first, offset = len(self.row_names), len(self.row_index)
        self.row_index.extend(index)
        self.row_coef.extend(coef)
        self.row_start.extend(array("i", (offset + k for k in start[1:])))
        self.row_sense.extend(array("b", [SENSES.index(sense)]) * len(names))
        self.row_rhs.extend(rhs)
        self.row_names.extend(names)
        self._row_name_set |= fresh
        return range(first, len(self.row_names))

    def set_objective(self, coefficients: Mapping[int, float]) -> None:
        """Replace all objective coefficients; unmentioned variables get 0."""
        cost = array("d", [0.0]) * len(self.col_names)
        for handle, coef in coefficients.items():
            if not 0 <= handle < len(self.col_names):
                raise ModelError(f"objective references unknown variable handle {handle}")
            coef = float(coef)
            if not math.isfinite(coef):
                raise ModelError(
                    f"variable {self.col_names[handle]!r} has objective coefficient {coef}"
                )
            cost[handle] = coef
        self.col_cost = cost

    def install(self, handles: Iterable[int]) -> None:
        """Give each column in ``handles`` the lower bound 1 and no cost; its
        kind and upper bound stay.  All are checked before any is written."""
        for handle in checked_columns(self.col_names, self.col_upper, handles):
            self.col_lower[handle] = 1.0
            self.col_cost[handle] = 0.0

    def __eq__(self, other: object) -> bool:
        """Equality of every column and row buffer, element for element; the
        name is a label and is not compared."""
        if not isinstance(other, MilpModel):
            return NotImplemented
        return all(getattr(self, key) == getattr(other, key) for key in _BUFFERS)

    def __repr__(self) -> str:
        return (
            f"MilpModel({self.name!r}, {self.num_variables} variables, "
            f"{self.num_constraints} constraints)"
        )


@dataclass(frozen=True)
class MilpSolution:
    """Result of a branch-and-bound solve.

    ``bound`` is the best proven lower bound (equal to the objective when the
    status is optimal); ``root_bound`` is the LP-relaxation value at the root
    node, ``+inf`` when that LP is infeasible and ``-inf`` when it is
    unbounded.  Every solve has one, also when it found no solution.
    ``x`` holds the incumbent's column values by handle, ``()`` when no
    solution was found; column names appear only in LP text.
    """

    status: Literal["optimal", "infeasible", "unbounded", "node_limit"]
    objective: float
    x: tuple[float, ...]
    bound: float
    node_count: int
    solve_time: float
    root_bound: float
    #: LPs solved, the simplex iterations they took in total, and the seconds
    #: spent solving them, a part of ``solve_time``
    lp_count: int
    simplex_iterations: int
    lp_time: float


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _term_string(first: bool, coefficient: float, name: str) -> str:
    if first:
        return f"{_fmt(coefficient)} {name}"
    sign = "+" if coefficient >= 0 else "-"
    return f"{sign} {_fmt(abs(coefficient))} {name}"


def export_lp(model: MilpModel) -> str:
    """CPLEX-LP text in declaration order: Minimize, Subject To, Bounds,
    Binary, End.  Every variable gets a Bounds line, written so the format's
    defaults add nothing: a column bounded only above is written
    ``-inf <= x <= u``, since ``x <= u`` alone keeps the default lower bound 0."""
    names = model.col_names
    lines = ["Minimize"]
    objective = [(name, cost) for name, cost in zip(names, model.col_cost) if cost != 0.0]
    parts = [_term_string(i == 0, cost, name) for i, (name, cost) in enumerate(objective)]
    lines.append(" obj: " + " ".join(parts) if parts else " obj:")
    lines.append("Subject To")
    start, index, coef = model.row_start, model.row_index, model.row_coef
    for name, a, b, sense, rhs in zip(
        model.row_names, start, start[1:], model.row_sense, model.row_rhs
    ):
        terms = " ".join(_term_string(k == a, coef[k], names[index[k]]) for k in range(a, b))
        if not terms:
            terms = "0 " + names[0] if names else "0"
        lines.append(f" {name}: {terms} {SENSES[sense]} {_fmt(rhs)}")
    lines.append("Bounds")
    for name, lower, upper in zip(names, model.col_lower, model.col_upper):
        if lower == -INF and upper == INF:
            lines.append(f" {name} free")
        elif upper == INF:
            lines.append(f" {name} >= {_fmt(lower)}")
        else:
            lines.append(f" {_fmt(lower)} <= {name} <= {_fmt(upper)}")
    lines.append("Binary")
    lines.extend(f" {name}" for name, binary in zip(names, model.col_binary) if binary)
    lines.append("End")
    return "\n".join(lines) + "\n"
