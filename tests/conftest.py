"""Fixtures shared by the test modules."""
import pytest

# ssfp first: it loads scipy's HiGHS extension from its file, and the suite
# should run on that path, not on a module scipy.optimize already imported.
# The HiGHS imports after it go through scipy.optimize, as an outside check.
from ssfp import solver
from scipy.optimize._highspy._core import HighsStatus, HighsVarType, _Highs
from ssfp.graph_core import EdgePipeSet
from ssfp.instances import random_grid_instance
from ssfp.milp_core import export_lp


def criterion_4_corpus(count=200):
    """The first ``count`` of the 200 seeded 3x3-grid two-stage instances of
    acceptance criterion 4, each small enough for the exhaustive oracle."""
    return [
        random_grid_instance(3, 3, num_pipe_types=1, num_groups=1 + seed % 2,
                             terminals_per_group=2 + (seed // 2) % 2, num_scenarios=2,
                             seed=seed)
        for seed in range(count)
    ]


def pilot_instance(seed):
    """The criterion-5/6 pilot instance of ``seed``: a 3x3 grid, 2 pipe
    types, 2 groups of 2 terminals, 2 scenarios."""
    return random_grid_instance(
        3, 3, num_pipe_types=2, num_groups=2, terminals_per_group=2, num_scenarios=2, seed=seed
    )


def _pair_set(graph, items):
    """The set of ``(pipe, (u, v))`` items, each edge given by its endpoints."""
    return EdgePipeSet(frozenset((p, graph.edge_id(u, v)) for p, (u, v) in items))


@pytest.fixture(scope="session")
def pair_set():
    return _pair_set


@pytest.fixture
def highs_reads_back(tmp_path):
    """``check(model)`` asserts that HiGHS's own LP reader reads
    ``export_lp(model)`` back exactly, buffer for buffer.  HiGHS numbers the
    columns by first appearance, so columns are matched by name."""

    def check(model):
        path = tmp_path / "model.lp"
        path.write_text(export_lp(model))
        highs = _Highs()
        highs.setOptionValue("output_flag", False)
        assert highs.readModel(str(path)) == HighsStatus.kOk
        highs.ensureRowwise()
        lp = highs.getLp()
        names = list(lp.col_names_)
        assert sorted(names) == sorted(model.col_names)
        # integrality_ is empty when no column is integer
        binary = [kind == HighsVarType.kInteger for kind in lp.integrality_] or [False] * len(names)
        assert dict(zip(names, zip(binary, lp.col_lower_, lp.col_upper_, lp.col_cost_))) == dict(
            zip(model.col_names, zip(model.col_binary, model.col_lower, model.col_upper, model.col_cost))
        )
        assert list(lp.row_names_) == model.row_names
        form = solver.LoadedModel(model)
        assert list(lp.row_lower_) == form.row_lower.tolist()
        assert list(lp.row_upper_) == form.row_upper.tolist()
        # each attribute read copies the whole array out of HiGHS
        matrix = lp.a_matrix_
        read_start, read_index, read_value = matrix.start_, matrix.index_, matrix.value_
        start, index, value = model.row_start, model.row_index, model.row_coef
        for i in range(model.num_constraints):
            read = range(read_start[i], read_start[i + 1])
            # the writer gives an empty row the placeholder term "0 x"
            assert sorted(
                (names[read_index[k]], read_value[k]) for k in read if read_value[k] != 0.0
            ) == sorted((model.col_names[index[k]], value[k]) for k in range(start[i], start[i + 1]))

    return check
