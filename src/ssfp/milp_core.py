"""Generic mixed-binary linear program container with LP-relaxation support
and a CPLEX-LP text format (writer and parser, used for round-trip checks and
external cross-checks).

A model is mutable while it is being built and must be treated as immutable
afterwards; solved models are shareable across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Literal, Mapping

INF = math.inf

Kind = Literal["binary", "continuous"]
Sense = Literal["<=", "=", ">="]

_SENSES = ("<=", "=", ">=")


class ModelError(ValueError):
    """Structural misuse of the model builder (duplicate names, bad handles)."""


class LpSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int = 0) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Variable:
    name: str
    kind: Kind
    lower: float
    upper: float
    objective: float


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[int, float], ...]  # (variable handle, coefficient)
    sense: Sense
    rhs: float


class MilpModel:
    """Minimization model over binary and continuous variables.

    ``add_variable`` and ``add_constraint`` return integer handles; constraint
    terms reference variables by handle.  Names must be unique.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self._var_index: dict[str, int] = {}
        self._con_index: dict[str, int] = {}

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

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
        if kind == "binary":
            lower, upper = 0.0, 1.0
        elif kind != "continuous":
            raise ModelError(f"unknown variable kind {kind!r}")
        if lower > upper:
            raise ModelError(f"variable {name!r} has empty bound interval [{lower}, {upper}]")
        handle = len(self.variables)
        self.variables.append(Variable(name, kind, float(lower), float(upper), float(objective)))
        self._var_index[name] = handle
        return handle

    def add_constraint(
        self,
        name: str,
        terms: Iterable[tuple[int, float]],
        sense: Sense,
        rhs: float,
    ) -> int:
        if name in self._con_index:
            raise ModelError(f"duplicate constraint name {name!r}")
        if sense not in _SENSES:
            raise ModelError(f"unknown constraint sense {sense!r}")
        merged: dict[int, float] = {}
        order: list[int] = []
        for handle, coef in terms:
            if not 0 <= handle < len(self.variables):
                raise ModelError(f"constraint {name!r} references unknown variable handle {handle}")
            if handle not in merged:
                merged[handle] = 0.0
                order.append(handle)
            merged[handle] += float(coef)
        clean = tuple((h, merged[h]) for h in order if merged[h] != 0.0)
        index = len(self.constraints)
        self.constraints.append(Constraint(name, clean, sense, float(rhs)))
        self._con_index[name] = index
        return index

    def set_objective(self, coefficients: Mapping[int, float]) -> None:
        """Replace all objective coefficients; unmentioned variables get 0."""
        for handle in coefficients:
            if not 0 <= handle < len(self.variables):
                raise ModelError(f"objective references unknown variable handle {handle}")
        for handle, var in enumerate(self.variables):
            coef = float(coefficients.get(handle, 0.0))
            if coef != var.objective:
                self.variables[handle] = Variable(var.name, var.kind, var.lower, var.upper, coef)

    def make_binary(self, handle: int) -> None:
        var = self.variables[handle]
        self.variables[handle] = Variable(var.name, "binary", 0.0, 1.0, var.objective)

    def structurally_equal(self, other: "MilpModel") -> bool:
        """Order-insensitive on variables, order-sensitive on constraints;
        terms compare as name -> coefficient mappings."""
        if {v.name for v in self.variables} != {v.name for v in other.variables}:
            return False
        for var in self.variables:
            o = other.variables[other.variable_handle(var.name)]
            if (var.kind, var.lower, var.upper, var.objective) != (o.kind, o.lower, o.upper, o.objective):
                return False
        if len(self.constraints) != len(other.constraints):
            return False
        for con, ocon in zip(self.constraints, other.constraints):
            if (con.name, con.sense, con.rhs) != (ocon.name, ocon.sense, ocon.rhs):
                return False
            mine = {self.variables[h].name: c for h, c in con.terms}
            theirs = {other.variables[h].name: c for h, c in ocon.terms}
            if mine != theirs:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MilpModel):
            return NotImplemented
        return self.structurally_equal(other)

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
    node of a branch-and-bound run.
    """

    status: Literal["optimal", "infeasible", "unbounded", "node_limit"]
    objective: float
    values: dict[str, float] = field(default_factory=dict)
    bound: float = -INF
    node_count: int = 0
    solve_time: float = 0.0
    root_bound: float = math.nan


def relax(model: MilpModel) -> MilpModel:
    """The LP relaxation: binaries become continuous on [0, 1]; everything
    else is untouched.  Idempotent."""
    out = MilpModel(model.name)
    for var in model.variables:
        out.add_variable(var.name, "continuous", var.lower, var.upper, var.objective)
    for con in model.constraints:
        out.add_constraint(con.name, con.terms, con.sense, con.rhs)
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
    lines = ["Minimize"]
    parts = [
        _term_string(i == 0, var.objective, var.name)
        for i, var in enumerate([v for v in model.variables if v.objective != 0.0])
    ]
    lines.append(" obj: " + " ".join(parts) if parts else " obj:")
    lines.append("Subject To")
    for con in model.constraints:
        terms = " ".join(
            _term_string(i == 0, coef, model.variables[h].name)
            for i, (h, coef) in enumerate(con.terms)
        )
        if not terms:
            terms = "0 " + model.variables[0].name if model.variables else "0"
        lines.append(f" {con.name}: {terms} {con.sense} {_fmt(con.rhs)}")
    lines.append("Bounds")
    for var in model.variables:
        if var.lower == -INF and var.upper == INF:
            lines.append(f" {var.name} free")
        elif var.upper == INF:
            lines.append(f" {var.name} >= {_fmt(var.lower)}")
        elif var.lower == -INF:
            lines.append(f" {var.name} <= {_fmt(var.upper)}")
        else:
            lines.append(f" {_fmt(var.lower)} <= {var.name} <= {_fmt(var.upper)}")
    lines.append("Binary")
    for var in model.variables:
        if var.kind == "binary":
            lines.append(f" {var.name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


_SECTION_STARTS = {
    "minimize": "objective",
    "min": "objective",
    "subject": "constraints",
    "st": "constraints",
    "s.t.": "constraints",
    "bounds": "bounds",
    "binary": "binary",
    "binaries": "binary",
    "bin": "binary",
    "end": "end",
}


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


def parse_lp(text: str) -> MilpModel:
    """Parse LP text as produced by :func:`export_lp` back into a model.

    Variables are declared in order of first mention; structural equality is
    order-insensitive on variables, so export/parse round-trips.
    """
    model = MilpModel()
    declared: dict[str, int] = {}
    bounds: dict[str, tuple[float, float]] = {}
    binaries: list[str] = []
    objective: list[tuple[str, float]] = []
    rows: list[tuple[str, list[tuple[str, float]], str, float]] = []

    def ensure(name: str, line_no: int) -> int:
        if not name or name[0].isdigit():
            raise LpSyntaxError(f"invalid variable name {name!r}", line_no)
        if name not in declared:
            declared[name] = model.add_variable(name, "continuous", 0.0, INF)
        return declared[name]

    section = None
    saw_end = False
    pending: list[str] = []  # token accumulator for multi-line rows
    pending_line = 0

    def flush_row(line_no: int) -> None:
        nonlocal pending
        if not pending:
            return
        line_no = pending_line or line_no
        tokens = pending
        pending = []
        if ":" in tokens[0]:
            name = tokens[0].rstrip(":")
            tokens = tokens[1:]
        elif len(tokens) > 1 and tokens[1] == ":":
            name, tokens = tokens[0], tokens[2:]
        else:
            raise LpSyntaxError("constraint row is missing a 'name:' prefix", line_no)
        sense_pos = [i for i, t in enumerate(tokens) if t in _SENSES]
        if len(sense_pos) != 1:
            raise LpSyntaxError("constraint row needs exactly one relational operator", line_no)
        i = sense_pos[0]
        if i != len(tokens) - 2:
            raise LpSyntaxError("right-hand side must be a single number", line_no)
        rhs = _parse_number(tokens[-1], line_no, len(tokens) - 1)
        rows.append((name, _parse_terms(tokens[:i], line_no), tokens[i], rhs))

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("\\", 1)[0].strip()  # backslash starts an LP comment
        if not line:
            continue
        head = line.split()[0].lower()
        if head in _SECTION_STARTS and (head != "bin" or section != "constraints"):
            if section == "constraints":
                flush_row(line_no)
            section = _SECTION_STARTS[head]
            if section == "end":
                saw_end = True
                break
            continue
        tokens = line.replace("<=", " <= ").replace(">=", " >= ").split()
        if section == "objective":
            if ":" in tokens[0]:
                tokens = tokens[1:]
            elif len(tokens) > 1 and tokens[1] == ":":
                tokens = tokens[2:]
            objective.extend(_parse_terms(tokens, line_no))
        elif section == "constraints":
            if ":" in tokens[0] or (len(tokens) > 1 and tokens[1] == ":"):
                flush_row(line_no)
                pending_line = line_no
            pending.extend(tokens)
            if any(t in _SENSES for t in tokens):
                flush_row(line_no)
        elif section == "bounds":
            # forms: `l <= x <= u`, `x >= l`, `x <= u`, `x free`
            if len(tokens) == 2 and tokens[1].lower() == "free":
                bounds[tokens[0]] = (-INF, INF)
            elif len(tokens) == 3 and tokens[1] in ("<=", ">="):
                value = _parse_number(tokens[2], line_no, 2)
                lo, hi = (value, INF) if tokens[1] == ">=" else (-INF, value)
                bounds[tokens[0]] = (lo, hi)
            elif len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<=":
                lo = _parse_number(tokens[0], line_no, 0)
                hi = _parse_number(tokens[4], line_no, 4)
                if lo > hi:
                    raise LpSyntaxError(f"empty bound interval [{lo}, {hi}]", line_no)
                bounds[tokens[2]] = (lo, hi)
            else:
                raise LpSyntaxError(f"unrecognized bounds line {line!r}", line_no)
        elif section == "binary":
            binaries.extend(tokens)
        else:
            raise LpSyntaxError("content before the objective section", line_no)
    if not saw_end:
        raise LpSyntaxError("missing End marker", len(text.splitlines()) or 1)

    obj_coef: dict[str, float] = {}
    for name, coef in objective:
        ensure(name, 1)
        obj_coef[name] = obj_coef.get(name, 0.0) + coef
    for name, terms, sense, rhs in rows:
        for var_name, _ in terms:
            ensure(var_name, 1)
    for name in list(bounds) + binaries:
        ensure(name, 1)

    binary_set = set(binaries)
    for name, handle in declared.items():
        lo, hi = bounds.get(name, (0.0, INF))
        kind: Kind = "binary" if name in binary_set else "continuous"
        if kind == "binary":
            lo, hi = 0.0, 1.0
        model.variables[handle] = Variable(name, kind, lo, hi, obj_coef.get(name, 0.0))
    for name, terms, sense, rhs in rows:
        handle_terms = [(declared[var_name], coef) for var_name, coef in terms]
        # a `0 x` placeholder row becomes an empty term list again
        model.add_constraint(name, handle_terms, sense, rhs)  # type: ignore[arg-type]
    return model
