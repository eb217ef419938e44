import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ssfp.milp_core import SENSES, MilpModel, ModelError, export_lp, relax
from ssfp.models import build_do
from ssfp.instances import fig2_instance
from ssfp.solver import LoadedModel, solve_milp


def toy_model():
    m = MilpModel("toy")
    x = m.add_variable("x", "binary", objective=2.0)
    y = m.add_variable("y", "continuous", 0.0, 5.0, objective=3.0)
    m.add_constraint("c1", [(x, 1.0), (y, 2.0)], "<=", 3.0)
    m.add_constraint("c2", [(y, 1.0)], ">=", 1.0)
    return m


#: names HiGHS's LP reader refuses: LP keywords in any case, names that start
#: with inf or nan, and anything that is not an ASCII identifier
UNWRITABLE = ["st", "ST", "free", "bin", "integer", "inf_x", "information", "nano", "1x",
              "x:y", "a-b", "r:1", "\u00e9t\u00e9"]


class TestBuilder:
    def test_handles_usable_in_constraints(self):
        m = MilpModel()
        x = m.add_variable("x_1_8_9", "binary")
        m.add_constraint("row", [(x, 1.0)], "<=", 1.0)
        assert m.num_variables == 1 and m.num_constraints == 1

    def test_duplicate_names_rejected(self):
        m = MilpModel()
        m.add_variable("x", "binary")
        with pytest.raises(ModelError):
            m.add_variable("x", "continuous")
        m.add_constraint("c", [], "=", 0.0)
        with pytest.raises(ModelError):
            m.add_constraint("c", [], "=", 0.0)

    def test_unknown_handle_rejected(self):
        m = MilpModel()
        with pytest.raises(ModelError):
            m.add_constraint("c", [(4, 1.0)], "<=", 1.0)
        with pytest.raises(ModelError):
            m.set_objective({7: 1.0})
        m.add_variable("x")
        with pytest.raises(ModelError):  # not the last variable
            m.make_binary(-1)

    def test_a_bad_value_leaves_the_buffers_aligned(self):
        m = MilpModel()
        x = m.add_variable("x")
        m.add_variable("y")
        with pytest.raises(ValueError):
            m.add_variable("z", objective="free")
        with pytest.raises(TypeError):  # a handle that is not an integer
            m.add_constraint("c", [(x, 1.0), (1.0, 2.0)], "<=", 1.0)
        with pytest.raises(ValueError):
            m.add_constraint("c", [(x, 1.0)], "<=", "one")
        m.add_constraint("d", [(x, 3.0)], "<=", 1.0)
        assert (list(m.col_names), list(m.col_cost)) == (["x", "y"], [0.0, 0.0])
        assert (list(m.row_start), list(m.row_index), list(m.row_coef)) == ([0, 1], [x], [3.0])
        assert list(m.row_rhs) == [1.0]

    def test_binary_bounds_forced_to_unit_interval(self):
        m = MilpModel()
        h = m.add_variable("b", "binary", lower=-3.0, upper=9.0)
        assert (m.col_lower[h], m.col_upper[h]) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "lower, upper",
        [(math.nan, 1.0), (0.0, math.nan), (math.inf, math.inf), (-math.inf, -math.inf)],
    )
    def test_bounds_no_real_value_meets_rejected(self, lower, upper):
        # NaN fails every comparison, so "lower > upper" alone let these through
        with pytest.raises(ModelError, match="variable 'x' has bounds"):
            MilpModel().add_variable("x", "continuous", lower, upper)

    def test_empty_bound_interval_rejected(self):
        with pytest.raises(ModelError, match="variable 'x' has empty bound interval"):
            MilpModel().add_variable("x", "continuous", 2.0, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_coefficients_that_are_not_finite_rejected(self, value):
        m = MilpModel()
        x = m.add_variable("x")
        with pytest.raises(ModelError, match="variable 'y' has objective coefficient"):
            m.add_variable("y", objective=value)
        with pytest.raises(ModelError, match="variable 'x' has objective coefficient"):
            m.set_objective({x: value})
        with pytest.raises(ModelError, match="constraint 'c' has a coefficient"):
            m.add_constraint("c", [(x, value)], "<=", 1.0)
        with pytest.raises(ModelError, match="constraint 'c' has right-hand side"):
            m.add_constraint("c", [(x, 1.0)], "<=", value)
        # nothing grew: the model is the one-column model it was, and equals itself
        only_x = MilpModel()
        only_x.add_variable("x")
        assert m == m and m == only_x

    def test_zero_coefficients_dropped_and_duplicates_merged(self):
        m = MilpModel()
        x = m.add_variable("x")
        y = m.add_variable("y")
        c = m.add_constraint("c", [(x, 1.0), (x, -1.0), (y, 2.0)], "<=", 1.0)
        assert (list(m.row_start), list(m.row_index), list(m.row_coef)) == ([0, 1], [y], [2.0])
        # first-seen order of the handles, not sorted
        d = m.add_constraint("d", [(y, 1.0), (x, 2.0), (y, 0.5)], "<=", 1.0)
        assert (m.row_start[d], list(m.row_index[1:]), list(m.row_coef[1:])) == (
            1, [y, x], [1.5, 2.0]
        )


    @pytest.mark.parametrize(
        "name", ["inf", "nan", "1e3", "-1", "+", "-", "", "a b", "\tx", "x\n"] + UNWRITABLE
    )
    def test_variable_names_lp_text_cannot_carry_rejected(self, name):
        with pytest.raises(ModelError, match="cannot be written as LP text"):
            MilpModel().add_variable(name)

    @pytest.mark.parametrize("name", ["a b", "\tc", "c\n"])
    def test_constraint_names_with_whitespace_rejected(self, name):
        with pytest.raises(ModelError):
            MilpModel().add_constraint(name, [], "=", 0.0)

    @pytest.mark.parametrize("name", UNWRITABLE + [""])
    def test_constraint_names_lp_text_cannot_carry_rejected(self, name):
        with pytest.raises(ModelError, match="cannot be written as LP text"):
            MilpModel().add_constraint(name, [], "=", 0.0)

    @pytest.mark.parametrize("name", ["x", "_", "X_1", "e", "in", "na", "such", "st_", "ends"])
    def test_names_of_the_rule_accepted(self, name, highs_reads_back):
        m = MilpModel()
        x = m.add_variable(name, objective=1.0)
        m.add_constraint(name, [(x, 1.0)], ">=", 1.0)
        highs_reads_back(m)


def _state(m):
    """Every buffer of ``m`` and the names it has taken, as plain lists."""
    from ssfp.milp_core import _BUFFERS

    taken = (sorted(m._col_name_set), sorted(m._row_name_set))
    return [list(getattr(m, key)) for key in _BUFFERS] + [taken]


#: refused ``set_columns`` calls on ``_two_columns()``: (handles, lower
#: bound, objective coefficient, message)
BAD_SET_COLUMNS = [
    ([0, 2], 1.0, 0.0, "unknown variable handle 2"),
    ([0, 1], 2.0, 0.0, "'x' cannot take the bounds \\[2.0, 1.0\\]"),
    ([1], math.nan, 0.0, "'y' cannot take the bounds"),
    ([0], 0.0, math.nan, "'x' has objective coefficient nan"),
]


def _two_columns():
    m = MilpModel()
    m.add_columns(["x", "y"], "continuous", 0.0, 1.0)
    m.add_constraint("c", [(0, 1.0)], "<=", 1.0)
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
        for name, handles, coefficients, rhs in rows:
            one_by_one.add_constraint(name, zip(handles, coefficients), ">=", rhs)
        handles = family.add_rows(rows, ">=")
        assert family == one_by_one and handles == range(1, 4)
        columns = MilpModel()
        assert columns.add_columns(["a", "b"], "binary", objective=2.0) == range(0, 2)
        columns.add_columns([])
        singles = MilpModel()
        for name in ("a", "b"):
            singles.add_variable(name, "binary", objective=2.0)
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

    @pytest.mark.parametrize("handles, lower, objective, message", BAD_SET_COLUMNS)
    def test_a_refused_set_columns_leaves_every_buffer(self, handles, lower, objective, message):
        m = _two_columns()
        before = _state(m)
        with pytest.raises(ModelError, match=message):
            m.set_columns(handles, lower, objective)
        assert _state(m) == before
        m.set_columns([1], 1.0, 0.0)
        assert (m.col_lower[1], m.col_cost[1]) == (1.0, 0.0)

    @pytest.mark.parametrize("handles, lower, objective, message", BAD_SET_COLUMNS)
    def test_a_loaded_model_refuses_set_columns_as_a_model_does(
        self, handles, lower, objective, message
    ):
        m = _two_columns()
        before = _state(m)
        loaded = LoadedModel(m)
        with pytest.raises(ModelError, match=message):
            loaded.set_columns(handles, lower, objective)
        assert (loaded.lb.tolist(), loaded.cost.tolist()) == ([0.0, 0.0], [0.0, 0.0])
        loaded.set_columns([1], 1.0, 2.0)
        assert (loaded.lb.tolist(), loaded.cost.tolist()) == ([0.0, 1.0], [0.0, 2.0])
        loaded.reset()
        assert (loaded.lb.tolist(), loaded.cost.tolist()) == ([0.0, 0.0], [0.0, 0.0])
        assert _state(m) == before

    def test_a_copy_shares_no_buffer(self):
        m = toy_model()
        text, state = export_lp(m), _state(m)
        twin = m.copy()
        assert twin == m and twin.name == m.name
        twin.add_columns(["z"], "binary")
        twin.add_rows([("c3", [0, 2], [1.0, 1.0], 1.0)], "<=")
        twin.set_columns([1], 1.0, 0.0)
        assert (export_lp(m), _state(m)) == (text, state)


class TestRelax:
    def test_binaries_become_unit_continuous(self):
        relaxed = relax(toy_model())
        binary = dict(zip(relaxed.col_names, relaxed.col_binary))
        assert binary == {"x": False, "y": False}
        assert relaxed.col_upper[0] == 1.0

    def test_idempotent_and_fixed_point_on_continuous(self):
        m = toy_model()
        once = relax(m)
        assert relax(once) == once
        continuous = MilpModel()
        continuous.add_variable("y", "continuous", 0.0, 2.0, 1.0)
        assert relax(continuous) == continuous

    def test_solutions_remain_feasible_for_the_relaxation(self):
        # relax() only widens variable kinds, so any solved point must
        # satisfy the relaxed model's rows verbatim
        from ssfp.solver import LoadedModel, solve_milp

        m = toy_model()
        solution = solve_milp(m)
        relaxed = relax(m)
        start, index, coef = relaxed.row_start, relaxed.row_index, relaxed.row_coef
        for i, (sense, rhs) in enumerate(zip(relaxed.row_sense, relaxed.row_rhs)):
            lhs = sum(coef[k] * solution.x[index[k]] for k in range(start[i], start[i + 1]))
            if SENSES[sense] == "<=":
                assert lhs <= rhs + 1e-9
            elif SENSES[sense] == ">=":
                assert lhs >= rhs - 1e-9
            else:
                assert lhs == pytest.approx(rhs, abs=1e-9)
        for lower, upper, value in zip(relaxed.col_lower, relaxed.col_upper, solution.x):
            assert lower - 1e-9 <= value <= upper + 1e-9

    def test_shares_no_buffer_with_its_source(self):
        m = toy_model()
        text = export_lp(m)
        relaxed = relax(m)
        z = relaxed.add_variable("z", "binary", objective=1.0)
        relaxed.add_constraint("c3", [(0, 1.0), (z, 1.0)], "<=", 1.0)
        relaxed.set_objective({z: 5.0})
        assert export_lp(m) == text
        assert list(m.col_binary) == [True, False]

    def test_four_cycle_fractional_point_is_lp_feasible(self):
        # relaxing the undirected model admits the half-unit flow cycle of
        # total cost 2, strictly below the integer optimum 3
        from ssfp.instances import four_cycle_instance

        built = build_do(four_cycle_instance(), flow="u")
        lp = solve_milp(relax(built.milp))
        assert lp.status == "optimal"
        assert lp.objective <= 2.0 + 1e-7


def _one_of_a_pair(name="m", col="x", kind="continuous", lower=0.0, upper=1.0, cost=2.0,
                   row="r", sense="<=", rhs=1.0, handle=0, coef=3.0, split=1):
    """Three columns and two rows; each keyword sets one entry of one buffer,
    and ``split`` says how many of the two terms go to the first row."""
    m = MilpModel(name)
    m.add_variable(col, kind, lower, upper, cost)
    m.add_variable("y")
    z = m.add_variable("z")
    terms = [(handle, coef), (z, 1.0)]
    m.add_constraint(row, terms[:split], sense, rhs)
    m.add_constraint("s", terms[split:], ">=", 0.0)
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
        x = m.add_variable("x")
        y = m.add_variable("y")
        m.add_constraint("c", [(x, 1.0), (y, 2.0)], "<=", 3.0)
        assert " c: 1 x + 2 y <= 3" in export_lp(m).splitlines()

    def test_round_trip_toy(self, highs_reads_back):
        highs_reads_back(toy_model())

    def test_round_trip_fig2_do_u(self, highs_reads_back):
        highs_reads_back(build_do(fig2_instance().first_stage, flow="u").milp)

    def test_negative_and_free_bounds(self, highs_reads_back):
        m = MilpModel()
        m.add_variable("a", "continuous", -math.inf, math.inf, -1.5)
        m.add_variable("b", "continuous", 2.0, math.inf)
        m.add_constraint("c", [(0, -2.5), (1, 1.0)], ">=", -4.0)
        highs_reads_back(m)

    def test_column_bounded_only_above_keeps_its_infinite_lower_bound(self, highs_reads_back):
        # "a <= 5" alone would keep the format's default lower bound 0, and
        # the optimum -7 would read back as 0
        m = MilpModel()
        a = m.add_variable("a", "continuous", -math.inf, 5.0, 1.0)
        m.add_constraint("c", [(a, 1.0)], ">=", -7.0)
        assert " -inf <= a <= 5" in export_lp(m).splitlines()
        highs_reads_back(m)
        assert solve_milp(m).objective == -7.0

    def test_empty_row_placeholders_round_trip(self, highs_reads_back):
        for num_variables in (0, 1):
            m = MilpModel()
            for i in range(num_variables):
                m.add_variable(f"x{i}")
            m.add_constraint("c", [], "<=", 3.0)
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
def test_export_parse_round_trip_random_models(data, highs_reads_back):
    m = MilpModel()
    var_names = data.draw(names)
    handles = []
    for name in var_names:
        kind = data.draw(st.sampled_from(["binary", "continuous"]))
        lo = data.draw(bounds)
        hi = data.draw(bounds.map(lambda v: max(v, lo)))
        try:
            handles.append(m.add_variable(name, kind, lo, hi, data.draw(coefs)))
        except ModelError:  # a name LP text cannot carry, or bounds no value meets
            continue
    terms_of = st.lists(st.sampled_from(handles), max_size=4, unique=True) if handles else st.just([])
    for name in data.draw(names):
        terms = [(h, data.draw(coefs)) for h in data.draw(terms_of)]
        sense = data.draw(st.sampled_from(["<=", "=", ">="]))
        try:
            m.add_constraint(name, terms, sense, data.draw(coefs))
        except ModelError:
            continue
    highs_reads_back(m)
