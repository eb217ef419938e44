import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ssfp.milp_core import SENSES, MilpModel, ModelError, export_lp
from ssfp.models import build_do
from ssfp.instances import fig2_instance
from ssfp.solver import LoadedModel, solve_milp


def toy_model():
    m = MilpModel("toy")
    m.add_columns(["x"], "binary", objective=2.0)
    m.add_columns(["y"], "continuous", 0.0, 5.0, objective=3.0)
    m.add_rows([("c1", [0, 1], [1.0, 2.0], 3.0)], "<=")
    m.add_rows([("c2", [1], [1.0], 1.0)], ">=")
    return m


#: names HiGHS's LP reader refuses: LP keywords in any case, names that start
#: with inf or nan, and anything that is not an ASCII identifier
UNWRITABLE = ["st", "ST", "free", "bin", "integer", "inf_x", "information", "nano", "1x",
              "x:y", "a-b", "r:1", "\u00e9t\u00e9"]


class TestBuilder:
    def test_handles_usable_in_constraints(self):
        m = MilpModel()
        (x,) = m.add_columns(["x_1_8_9"], "binary")
        m.add_rows([("row", [x], [1.0], 1.0)], "<=")
        assert m.num_variables == 1 and m.num_constraints == 1

    def test_duplicate_names_rejected(self):
        m = MilpModel()
        m.add_columns(["x"], "binary")
        with pytest.raises(ModelError):
            m.add_columns(["x"], "continuous")
        m.add_rows([("c", [], [], 0.0)], "=")
        with pytest.raises(ModelError):
            m.add_rows([("c", [], [], 0.0)], "=")

    def test_unknown_handle_rejected(self):
        m = MilpModel()
        with pytest.raises(ModelError):
            m.add_rows([("c", [4], [1.0], 1.0)], "<=")
        with pytest.raises(ModelError):
            m.set_objective({7: 1.0})
        m.add_columns(["x"])
        with pytest.raises(ModelError):  # not the last variable
            m.install([-1])

    def test_a_bad_value_leaves_the_buffers_aligned(self):
        m = MilpModel()
        x, _ = m.add_columns(["x", "y"])
        with pytest.raises(ValueError):
            m.add_columns(["z"], objective="free")
        with pytest.raises(TypeError):  # a handle that is not an integer
            m.add_rows([("c", [x, 1.0], [1.0, 2.0], 1.0)], "<=")
        with pytest.raises(ValueError):
            m.add_rows([("c", [x], [1.0], "one")], "<=")
        m.add_rows([("d", [x], [3.0], 1.0)], "<=")
        assert (list(m.col_names), list(m.col_cost)) == (["x", "y"], [0.0, 0.0])
        assert (list(m.row_start), list(m.row_index), list(m.row_coef)) == ([0, 1], [x], [3.0])
        assert list(m.row_rhs) == [1.0]

    def test_binary_bounds_forced_to_unit_interval(self):
        m = MilpModel()
        (h,) = m.add_columns(["b"], "binary", lower=-3.0, upper=9.0)
        assert (m.col_lower[h], m.col_upper[h]) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "lower, upper",
        [(math.nan, 1.0), (0.0, math.nan), (math.inf, math.inf), (-math.inf, -math.inf)],
    )
    def test_bounds_no_real_value_meets_rejected(self, lower, upper):
        # NaN fails every comparison, so "lower > upper" alone let these through
        with pytest.raises(ModelError, match="variable 'x' has bounds"):
            MilpModel().add_columns(["x"], "continuous", lower, upper)

    def test_empty_bound_interval_rejected(self):
        with pytest.raises(ModelError, match="variable 'x' has empty bound interval"):
            MilpModel().add_columns(["x"], "continuous", 2.0, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_coefficients_that_are_not_finite_rejected(self, value):
        m = MilpModel()
        (x,) = m.add_columns(["x"])
        with pytest.raises(ModelError, match="variable 'y' has objective coefficient"):
            m.add_columns(["y"], objective=value)
        with pytest.raises(ModelError, match="variable 'x' has objective coefficient"):
            m.set_objective({x: value})
        with pytest.raises(ModelError, match="constraint 'c' has a coefficient"):
            m.add_rows([("c", [x], [value], 1.0)], "<=")
        with pytest.raises(ModelError, match="constraint 'c' has right-hand side"):
            m.add_rows([("c", [x], [1.0], value)], "<=")
        # nothing grew: the model is the one-column model it was, and equals itself
        only_x = MilpModel()
        only_x.add_columns(["x"])
        assert m == m and m == only_x

    @pytest.mark.parametrize(
        "name", ["inf", "nan", "1e3", "-1", "+", "-", "", "a b", "\tx", "x\n"] + UNWRITABLE
    )
    def test_variable_names_lp_text_cannot_carry_rejected(self, name):
        with pytest.raises(ModelError, match="cannot be written as LP text"):
            MilpModel().add_columns([name])

    @pytest.mark.parametrize("name", ["a b", "\tc", "c\n"])
    def test_constraint_names_with_whitespace_rejected(self, name):
        with pytest.raises(ModelError):
            MilpModel().add_rows([(name, [], [], 0.0)], "=")

    @pytest.mark.parametrize("name", UNWRITABLE + [""])
    def test_constraint_names_lp_text_cannot_carry_rejected(self, name):
        with pytest.raises(ModelError, match="cannot be written as LP text"):
            MilpModel().add_rows([(name, [], [], 0.0)], "=")

    @pytest.mark.parametrize("name", ["x", "_", "X_1", "e", "in", "na", "such", "st_", "ends"])
    def test_names_of_the_rule_accepted(self, name, highs_reads_back):
        m = MilpModel()
        (x,) = m.add_columns([name], objective=1.0)
        m.add_rows([(name, [x], [1.0], 1.0)], ">=")
        highs_reads_back(m)


def _state(m):
    """Every buffer of ``m`` and the names it has taken, as plain lists."""
    from ssfp.milp_core import _BUFFERS

    taken = (sorted(m._col_name_set), sorted(m._row_name_set))
    return [list(getattr(m, key)) for key in _BUFFERS] + [taken]


def _two_columns():
    m = MilpModel()
    m.add_columns(["x", "y"], "continuous", 0.0, 1.0)
    m.add_rows([("c", [0], [1.0], 1.0)], "<=")
    return m


#: refused ``install`` calls on ``_installable()``: (handles, message)
BAD_INSTALLS = {
    "unknown handle": ([0, 3], "unknown variable handle 3"),
    "negative handle": ([-1], "unknown variable handle -1"),
    "upper bound below 1": ([1, 2], "'w' cannot take the bounds \\[1.0, 0.5\\]"),
}


def _installable():
    """Columns x and y on [0, 1] and w on [0, 0.5], each at cost 2."""
    m = _two_columns()
    m.set_objective({0: 2.0, 1: 2.0})
    m.add_columns(["w"], "continuous", 0.0, 0.5, 2.0)
    return m


#: one refused family per entry: (add_rows arguments, expected error, message)
BAD_ROWS = {
    "duplicate in the batch": (([("r", [0], [1.0], 0), ("r", [1], [1.0], 0)], "<="),
                               ModelError, "duplicate constraint name 'r'"),
    "duplicate of the model": (([("r", [0], [1.0], 0), ("c", [1], [1.0], 0)], "<="),
                               ModelError, "duplicate constraint name 'c'"),
    "LP name rule": (([("r", [0], [1.0], 0), ("st", [1], [1.0], 0)], "<="),
                     ModelError, "'st' cannot be written as LP text"),
    "unknown handle": (([("r", [0], [1.0], 0), ("s", [2], [1.0], 0)], "<="),
                       ModelError, "'s' references unknown variable handle 2"),
    "negative handle": (([("r", [-1], [1.0], 0), ("s", [0], [1.0], 0)], "<="),
                        ModelError, "'r' references unknown variable handle -1"),
    "handle not an integer": (([("r", [0.5], [1.0], 0)], "<="), TypeError, None),
    "repeated handle": (([("r", [0], [1.0], 0), ("s", [1, 1], [1.0, 2.0], 0)], "<="),
                        ModelError, "'s' repeats a variable handle"),
    "NaN coefficient": (([("r", [0], [1.0], 0), ("s", [1], [math.nan], 0)], "<="),
                        ModelError, "'s' has a coefficient that is not finite"),
    "infinite coefficient": (([("r", [0], [math.inf], 0), ("s", [1], [1.0], 0)], "<="),
                             ModelError, "'r' has a coefficient that is not finite"),
    "zero coefficient": (([("r", [0], [1.0], 0), ("s", [1], [0.0], 0)], "<="),
                         ModelError, "'s' has a zero coefficient"),
    "infinite rhs": (([("r", [0], [1.0], 0), ("s", [1], [1.0], -math.inf)], "<="),
                     ModelError, "'s' has right-hand side -inf"),
    "NaN rhs": (([("r", [0], [1.0], math.nan)], "<="), ModelError, "'r' has right-hand side nan"),
    "rhs not a number": (([("r", [0], [1.0], "one")], "<="), ValueError, None),
    "unknown sense": (([("r", [0], [1.0], 0)], "<"), ModelError, "unknown constraint sense '<'"),
    "coefficient missing": (([("r", [0], [1.0], 0), ("s", [0, 1], [1.0], 0)], "<="),
                            ModelError, "'s' has 2 handles and 1 coefficients"),
}

#: one refused family per entry: (add_columns arguments, message)
BAD_COLUMNS = {
    "duplicate in the batch": ((["a", "a"],), "duplicate variable name 'a'"),
    "duplicate of the model": ((["a", "x"],), "duplicate variable name 'x'"),
    "LP name rule": ((["a", "inf_a"],), "'inf_a' cannot be written as LP text"),
    "unknown kind": ((["a"], "integer"), "unknown variable kind 'integer'"),
    "empty bounds": ((["a", "b"], "continuous", 2.0, 1.0), "'a' has empty bound interval"),
    "NaN bound": ((["a"], "continuous", math.nan, 1.0), "'a' has bounds"),
    "infinite objective": ((["a"], "continuous", 0.0, 1.0, math.inf), "'a' has objective"),
}


class TestFamilies:
    def test_a_family_equals_its_rows_one_at_a_time(self):
        rows = [("r", [0, 1], [1.0, -2.0], 0.5), ("s", [], [], 0.0), ("t", [1], [3.0], -1.0)]
        one_by_one, family = _two_columns(), _two_columns()
        for row in rows:
            one_by_one.add_rows([row], ">=")
        handles = family.add_rows(rows, ">=")
        assert family == one_by_one and handles == range(1, 4)
        columns = MilpModel()
        assert columns.add_columns(["a", "b"], "binary", objective=2.0) == range(0, 2)
        columns.add_columns([])
        singles = MilpModel()
        for name in ("a", "b"):
            singles.add_columns([name], "binary", objective=2.0)
        assert columns == singles

    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_a_refused_row_family_leaves_every_buffer(self, case):
        arguments, error, message = BAD_ROWS[case]
        m = _two_columns()
        before = _state(m)
        with pytest.raises(error, match=message):
            m.add_rows(*arguments)
        assert _state(m) == before
        # names the refused family held stay free
        m.add_rows([("r", [0], [1.0], 0), ("s", [1], [1.0], 0)], "<=")

    @pytest.mark.parametrize("case", sorted(BAD_COLUMNS))
    def test_a_refused_column_family_leaves_every_buffer(self, case):
        arguments, message = BAD_COLUMNS[case]
        m = _two_columns()
        before = _state(m)
        with pytest.raises(ModelError, match=message):
            m.add_columns(*arguments)
        assert _state(m) == before
        m.add_columns(["a", "b"])

    @pytest.mark.parametrize("case", sorted(BAD_INSTALLS))
    def test_a_refused_install_leaves_every_buffer(self, case):
        handles, message = BAD_INSTALLS[case]
        m = _installable()
        before = _state(m)
        with pytest.raises(ModelError, match=message):
            m.install(handles)
        assert _state(m) == before
        m.install([1])
        assert (list(m.col_lower), list(m.col_cost)) == ([0.0, 1.0, 0.0], [2.0, 0.0, 2.0])

    @pytest.mark.parametrize("case", sorted(BAD_INSTALLS))
    def test_a_loaded_model_refuses_install_as_a_model_does(self, case):
        handles, message = BAD_INSTALLS[case]
        m = _installable()
        before = _state(m)
        loaded = LoadedModel(m)
        loaded_columns = ([0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
        with pytest.raises(ModelError, match=message):
            loaded.install(handles)
        assert (loaded.lb.tolist(), loaded.cost.tolist()) == loaded_columns
        loaded.install([1])
        laid = ([0.0, 1.0, 0.0], [2.0, 0.0, 2.0])
        assert (loaded.lb.tolist(), loaded.cost.tolist()) == laid
        with pytest.raises(ModelError, match=message):
            loaded.install(handles)
        assert (loaded.lb.tolist(), loaded.cost.tolist()) == laid
        loaded.install([])
        assert (loaded.lb.tolist(), loaded.cost.tolist()) == loaded_columns
        assert _state(m) == before


class TestRootBound:
    """The LP relaxation, whose value a solve reports as ``root_bound``."""

    def test_binaries_become_unit_continuous(self):
        # the toy model with x declared continuous on [0, 1] is its own
        # relaxation, so its optimum is the toy model's root bound
        continuous = MilpModel("toy")
        continuous.add_columns(["x"], "continuous", 0.0, 1.0, objective=2.0)
        continuous.add_columns(["y"], "continuous", 0.0, 5.0, objective=3.0)
        continuous.add_rows([("c1", [0, 1], [1.0, 2.0], 3.0)], "<=")
        continuous.add_rows([("c2", [1], [1.0], 1.0)], ">=")
        toy = toy_model()
        assert list(toy.col_binary) == [True, False]
        assert solve_milp(toy, node_limit=1).root_bound == solve_milp(continuous).objective

    def test_solutions_remain_feasible_for_the_relaxation(self):
        # the relaxation keeps every row and bound, so any solved point must
        # satisfy the model's rows verbatim
        m = toy_model()
        solution = solve_milp(m)
        start, index, coef = m.row_start, m.row_index, m.row_coef
        for i, (sense, rhs) in enumerate(zip(m.row_sense, m.row_rhs)):
            lhs = sum(coef[k] * solution.x[index[k]] for k in range(start[i], start[i + 1]))
            if SENSES[sense] == "<=":
                assert lhs <= rhs + 1e-9
            elif SENSES[sense] == ">=":
                assert lhs >= rhs - 1e-9
            else:
                assert lhs == pytest.approx(rhs, abs=1e-9)
        for lower, upper, value in zip(m.col_lower, m.col_upper, solution.x):
            assert lower - 1e-9 <= value <= upper + 1e-9
        assert solution.root_bound <= solution.objective

    def test_four_cycle_fractional_point_is_lp_feasible(self):
        # relaxing the undirected model admits the half-unit flow cycle of
        # total cost 2, strictly below the integer optimum 3
        from ssfp.instances import four_cycle_instance

        built = build_do(four_cycle_instance(), flow="u")
        assert solve_milp(built.milp, node_limit=1).root_bound <= 2.0 + 1e-7


def _one_of_a_pair(name="m", col="x", kind="continuous", lower=0.0, upper=1.0, cost=2.0,
                   row="r", sense="<=", rhs=1.0, handle=0, coef=3.0, split=1):
    """Three columns and two rows; each keyword sets one entry of one buffer,
    and ``split`` says how many of the two terms go to the first row."""
    m = MilpModel(name)
    m.add_columns([col], kind, lower, upper, cost)
    m.add_columns(["y", "z"])
    handles, coefs = [handle, 2], [coef, 1.0]
    m.add_rows([(row, handles[:split], coefs[:split], rhs)], sense)
    m.add_rows([("s", handles[split:], coefs[split:], 0.0)], ">=")
    return m


class TestEquality:
    @pytest.mark.parametrize(
        "change",
        [{"col": "w"}, {"kind": "binary"}, {"lower": -1.0}, {"upper": 2.0}, {"cost": 2.5},
         {"row": "q"}, {"sense": "="}, {"rhs": 2.0}, {"handle": 1}, {"coef": 4.0},
         {"split": 2}],
        ids=lambda change: next(iter(change)),
    )
    def test_models_differing_in_one_buffer_entry_are_unequal(self, change):
        assert _one_of_a_pair() == _one_of_a_pair()
        assert _one_of_a_pair(**change) != _one_of_a_pair()

    def test_the_name_is_not_compared(self):
        assert _one_of_a_pair(name="a") == _one_of_a_pair(name="b")


class TestLpFormat:
    def test_empty_model_round_trips(self, highs_reads_back):
        m = MilpModel()
        text = export_lp(m)
        assert "Minimize" in text and text.rstrip().endswith("End")
        highs_reads_back(m)

    def test_simple_row_exported_verbatim(self):
        m = MilpModel()
        x, y = m.add_columns(["x", "y"])
        m.add_rows([("c", [x, y], [1.0, 2.0], 3.0)], "<=")
        assert " c: 1 x + 2 y <= 3" in export_lp(m).splitlines()

    def test_round_trip_toy(self, highs_reads_back):
        highs_reads_back(toy_model())

    def test_round_trip_fig2_do_u(self, highs_reads_back):
        highs_reads_back(build_do(fig2_instance().first_stage, flow="u").milp)

    def test_negative_and_free_bounds(self, highs_reads_back):
        m = MilpModel()
        m.add_columns(["a"], "continuous", -math.inf, math.inf, -1.5)
        m.add_columns(["b"], "continuous", 2.0, math.inf)
        m.add_rows([("c", [0, 1], [-2.5, 1.0], -4.0)], ">=")
        highs_reads_back(m)

    def test_column_bounded_only_above_keeps_its_infinite_lower_bound(self, highs_reads_back):
        # "a <= 5" alone would keep the format's default lower bound 0, and
        # the optimum -7 would read back as 0
        m = MilpModel()
        (a,) = m.add_columns(["a"], "continuous", -math.inf, 5.0, 1.0)
        m.add_rows([("c", [a], [1.0], -7.0)], ">=")
        assert " -inf <= a <= 5" in export_lp(m).splitlines()
        highs_reads_back(m)
        assert solve_milp(m).objective == -7.0

    def test_empty_row_placeholders_round_trip(self, highs_reads_back):
        for num_variables in (0, 1):
            m = MilpModel()
            m.add_columns([f"x{i}" for i in range(num_variables)])
            m.add_rows([("c", [], [], 3.0)], "<=")
            highs_reads_back(m)


#: names of the rule mixed with arbitrary text, which the builder may refuse
names = st.lists(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True) | st.text(max_size=6),
    min_size=1, max_size=8, unique=True,
)
coefs = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
).filter(lambda c: c == 0.0 or abs(c) > 1e-9)
bounds = st.floats(-100, 100, allow_nan=False) | st.just(-math.inf) | st.just(math.inf)


# the fixture's file is rewritten by each example
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_highs_reads_back_random_models(data, highs_reads_back):
    m = MilpModel()
    var_names = data.draw(names)
    handles = []
    for name in var_names:
        kind = data.draw(st.sampled_from(["binary", "continuous"]))
        lo = data.draw(bounds)
        hi = data.draw(bounds.map(lambda v: max(v, lo)))
        try:
            handles += m.add_columns([name], kind, lo, hi, data.draw(coefs))
        except ModelError:  # a name LP text cannot carry, or bounds no value meets
            continue
    terms_of = st.lists(st.sampled_from(handles), max_size=4, unique=True) if handles else st.just([])
    for name in data.draw(names):
        row_handles = data.draw(terms_of)
        row_coefs = [data.draw(coefs.filter(bool)) for _ in row_handles]
        sense = data.draw(st.sampled_from(["<=", "=", ">="]))
        try:
            m.add_rows([(name, row_handles, row_coefs, data.draw(coefs))], sense)
        except ModelError:
            continue
    highs_reads_back(m)
