"""Generic mixed-binary linear program container with LP-relaxation support
and a CPLEX-LP text format for external cross-checks: the writer, and a parser
of exactly the dialect the writer writes, so a round trip is exact.

A model is mutable while it is being built and must be treated as immutable
afterwards; solved models are shareable across threads.
"""
from __future__ import annotations

import copy
import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Literal, Mapping

INF = math.inf

Kind = Literal["binary", "continuous"]
Sense = Literal["<=", "=", ">="]

SENSES = ("<=", "=", ">=")


class ModelError(ValueError):
    """Structural misuse of the model builder (duplicate names, bad handles)."""


class LpSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int = 0) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _has_space(name: str) -> bool:
    return bool(name) and name.split() != [name]


def _is_number(token: str) -> bool:
    # float() reads only text that starts with a sign, a point, a decimal
    # digit or the i/n of inf/nan; checking that first spares the exception
    # for every ordinary name
    head = token[:1]
    if not (head in "+-.iInN" or head.isdecimal()):
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


#: the arrays that hold a model, columns first, then the rows
_BUFFERS = (
    "col_names", "col_binary", "col_lower", "col_upper", "col_cost",
    "row_names", "row_sense", "row_rhs", "row_start", "row_index", "row_coef",
)


class MilpModel:
    """Minimization model over binary and continuous variables.

    ``add_variable`` and ``add_constraint`` return integer handles; constraint
    terms reference variables by handle.  Names must be unique and free of
    whitespace, and a variable name must not read as a number or a sign, so
    every model survives an LP text round trip.

    The model is stored as the arrays an LP solver loads, so a solve reads
    them without a loop over variables or terms.  Column ``j`` has the name
    ``col_names[j]``, the binary flag ``col_binary[j]``, the bounds
    ``col_lower[j]``/``col_upper[j]`` and the objective coefficient
    ``col_cost[j]``.  Row ``i`` has the name ``row_names[i]``, the sense
    ``SENSES[row_sense[i]]`` and the right-hand side ``row_rhs[i]``; its
    terms are the columns ``row_index[k]`` with coefficients ``row_coef[k]``
    for ``row_start[i] <= k < row_start[i + 1]`` (compressed sparse rows).
    These arrays are the only copy of the model.  Only the methods below
    write them; ``export_lp``, ``relax`` and ``==`` read them.
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
        self._var_index: dict[str, int] = {}
        self._row_name_set: set[str] = set()

    @property
    def num_variables(self) -> int:
        return len(self.col_names)

    @property
    def num_constraints(self) -> int:
        return len(self.row_names)

    def variable_handle(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def add_variable(
        self,
        name: str,
        kind: Kind = "continuous",
        lower: float = 0.0,
        upper: float = INF,
        objective: float = 0.0,
    ) -> int:
        if name in self._var_index:
            raise ModelError(f"duplicate variable name {name!r}")
        if not name or _has_space(name) or name in ("+", "-") or _is_number(name):
            raise ModelError(f"variable name {name!r} cannot be written as LP text")
        if kind == "binary":
            lower, upper = 0.0, 1.0
        elif kind != "continuous":
            raise ModelError(f"unknown variable kind {kind!r}")
        # converted before any buffer grows, so a bad value leaves them aligned
        lower, upper, objective = float(lower), float(upper), float(objective)
        if lower > upper:
            raise ModelError(f"variable {name!r} has empty bound interval [{lower}, {upper}]")
        # false for a NaN bound too
        if not (lower < INF and upper > -INF):
            raise ModelError(
                f"variable {name!r} has bounds [{lower}, {upper}], which no real value meets"
            )
        handle = len(self.col_names)
        self.col_names.append(name)
        self.col_binary.append(kind == "binary")
        self.col_lower.append(lower)
        self.col_upper.append(upper)
        self.col_cost.append(objective)
        self._var_index[name] = handle
        return handle

    def add_constraint(
        self,
        name: str,
        terms: Iterable[tuple[int, float]],
        sense: Sense,
        rhs: float,
    ) -> int:
        """Append one row.  Repeated handles are merged into one term at the
        position of their first occurrence, and terms that sum to zero are
        dropped."""
        if name in self._row_name_set:
            raise ModelError(f"duplicate constraint name {name!r}")
        if _has_space(name):
            raise ModelError(f"constraint name {name!r} cannot be written as LP text")
        if sense not in SENSES:
            raise ModelError(f"unknown constraint sense {sense!r}")
        rhs = float(rhs)
        num_variables = len(self.col_names)
        merged: dict[int, float] = {}
        for handle, coef in terms:
            if not 0 <= handle < num_variables:
                raise ModelError(
                    f"constraint {name!r} references unknown variable handle {handle}"
                )
            merged[handle] = merged.get(handle, 0.0) + float(coef)
        if 0.0 in merged.values():
            merged = {h: c for h, c in merged.items() if c != 0.0}
        try:
            self.row_index.extend(merged)
        except TypeError:  # a handle that is not an integer: keep the rows aligned
            del self.row_index[self.row_start[-1]:]
            raise
        self.row_coef.extend(merged.values())
        self.row_start.append(len(self.row_index))
        self.row_sense.append(SENSES.index(sense))
        self.row_rhs.append(rhs)
        self.row_names.append(name)
        self._row_name_set.add(name)
        return len(self.row_names) - 1

    def set_objective(self, coefficients: Mapping[int, float]) -> None:
        """Replace all objective coefficients; unmentioned variables get 0."""
        for handle in coefficients:
            if not 0 <= handle < len(self.col_names):
                raise ModelError(f"objective references unknown variable handle {handle}")
        cost = array("d", [0.0]) * len(self.col_names)
        for handle, coef in coefficients.items():
            cost[handle] = float(coef)
        self.col_cost = cost

    def make_binary(self, handle: int) -> None:
        if not 0 <= handle < len(self.col_names):
            raise ModelError(f"make_binary references unknown variable handle {handle}")
        self.col_binary[handle] = True
        self.col_lower[handle], self.col_upper[handle] = 0.0, 1.0

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
    """Result of an LP or branch-and-bound solve.

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
    #: LPs solved, and the simplex iterations they took in total
    lp_count: int
    simplex_iterations: int


def relax(model: MilpModel) -> MilpModel:
    """The LP relaxation: a copy of the model with every binary flag cleared.
    A binary's bounds are already [0, 1], so it becomes continuous on [0, 1];
    everything else is untouched.  Idempotent."""
    out = copy.deepcopy(model)
    out.col_binary = array("b", bytes(len(out.col_binary)))
    return out


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _term_string(first: bool, coefficient: float, name: str) -> str:
    if first:
        return f"{_fmt(coefficient)} {name}"
    sign = "+" if coefficient >= 0 else "-"
    return f"{sign} {_fmt(abs(coefficient))} {name}"


def export_lp(model: MilpModel) -> str:
    """CPLEX-LP text in declaration order: Minimize, Subject To, Bounds,
    Binary, End.  Every variable gets a Bounds line so a parse round-trips."""
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
        elif lower == -INF:
            lines.append(f" {name} <= {_fmt(upper)}")
        else:
            lines.append(f" {_fmt(lower)} <= {name} <= {_fmt(upper)}")
    lines.append("Binary")
    lines.extend(f" {name}" for name, binary in zip(names, model.col_binary) if binary)
    lines.append("End")
    return "\n".join(lines) + "\n"


_SECTIONS = ("Minimize", "Subject To", "Bounds", "Binary", "End")


def _parse_number(token: str, line_no: int, col: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise LpSyntaxError(f"expected a number, got {token!r}", line_no, col) from None


def _parse_terms(tokens: list[str], line_no: int) -> list[tuple[str, float]]:
    """Parse `c1 x1 + c2 x2 - c3 x3 ...`; coefficients may be omitted (=1)."""
    terms: list[tuple[str, float]] = []
    sign = 1.0
    coef: float | None = None
    for col, tok in enumerate(tokens):
        if tok == "+":
            if coef is not None:
                raise LpSyntaxError("dangling coefficient before '+'", line_no, col)
            sign = 1.0
        elif tok == "-":
            if coef is None:
                sign = -sign
            else:
                raise LpSyntaxError("dangling coefficient before '-'", line_no, col)
        else:
            try:
                value = float(tok)
            except ValueError:
                name = tok
                terms.append((name, sign * (1.0 if coef is None else coef)))
                sign, coef = 1.0, None
                continue
            if coef is not None:
                raise LpSyntaxError("two consecutive numbers", line_no, col)
            coef = value
    if coef is not None:
        raise LpSyntaxError("trailing coefficient without a variable", line_no, len(tokens))
    return terms


def _parse_bound(tokens: list[str], line_no: int) -> tuple[str, float, float]:
    """`x free`, `x >= l`, `x <= u` or `l <= x <= u`, as (name, lower, upper)."""
    if len(tokens) == 2 and tokens[1] == "free":
        return tokens[0], -INF, INF
    if len(tokens) == 3 and tokens[1] in ("<=", ">="):
        value = _parse_number(tokens[2], line_no, 2)
        return (tokens[0], value, INF) if tokens[1] == ">=" else (tokens[0], -INF, value)
    if len(tokens) == 5 and tokens[1] == tokens[3] == "<=":
        return tokens[2], _parse_number(tokens[0], line_no, 0), _parse_number(tokens[4], line_no, 4)
    raise LpSyntaxError(f"unrecognized bounds line {' '.join(tokens)!r}", line_no)


def parse_lp(text: str) -> MilpModel:
    """The model :func:`export_lp` wrote: ``parse_lp(export_lp(m)) == m``.

    Reads exactly the writer's dialect in one pass: the five section headers
    in order, then one objective line, row, bound or list of binary names per
    line.  Each Bounds line declares its variable, so variables come back in
    declaration order; the objective and the rows, which precede the Bounds
    section, are resolved against those names at the end.
    """
    model = MilpModel()
    objective: tuple[int, list[tuple[str, float]]] | None = None
    rows: list[tuple[int, str, list[tuple[str, float]], str, float]] = []
    section = -1
    lines = text.splitlines()
    for line_no, line in enumerate(lines, start=1):
        if section + 1 < len(_SECTIONS) and line == _SECTIONS[section + 1]:
            section += 1
            if _SECTIONS[section] == "End":
                break
            continue
        tokens = line.split()
        try:
            if section == 0:
                if objective is not None or tokens[:1] != ["obj:"]:
                    raise LpSyntaxError("expected the one objective line 'obj: terms'", line_no)
                objective = line_no, _parse_terms(tokens[1:], line_no)
            elif section == 1:
                if len(tokens) < 3 or not tokens[0].endswith(":") or tokens[-2] not in SENSES:
                    raise LpSyntaxError("expected a row 'name: terms sense rhs'", line_no)
                body = tokens[1:-2]
                terms = [] if body == ["0"] else _parse_terms(body, line_no)
                rhs = _parse_number(tokens[-1], line_no, len(tokens) - 1)
                rows.append((line_no, tokens[0][:-1], terms, tokens[-2], rhs))
            elif section == 2:
                name, lower, upper = _parse_bound(tokens, line_no)
                model.add_variable(name, "continuous", lower, upper)
            elif section == 3:
                for name in tokens:
                    model.make_binary(model.variable_handle(name))
            else:
                raise LpSyntaxError("content before the objective section", line_no)
        except ModelError as err:
            raise LpSyntaxError(str(err), line_no) from None
    else:
        raise LpSyntaxError("missing End marker", len(lines) or 1)

    def handles(terms: list[tuple[str, float]], line_no: int) -> list[tuple[int, float]]:
        try:
            return [(model.variable_handle(name), coef) for name, coef in terms]
        except ModelError as err:
            raise LpSyntaxError(f"{err}: it has no Bounds line", line_no) from None

    if objective is not None:
        coefficients: dict[int, float] = {}
        for handle, coef in handles(objective[1], objective[0]):
            coefficients[handle] = coefficients.get(handle, 0.0) + coef
        model.set_objective(coefficients)
    for line_no, name, terms, sense, rhs in rows:
        try:
            model.add_constraint(name, handles(terms, line_no), sense, rhs)  # type: ignore[arg-type]
        except ModelError as err:
            raise LpSyntaxError(str(err), line_no) from None
    return model
