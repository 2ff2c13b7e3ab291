"""Tests of the benchmark's own machinery: tracer, inputs and statistics.

Run with ``python3 -m pytest certbench/tests``.
"""

import sys

import numpy as np
import pytest

import kalgrad
from kalgrad import numerics
from kalgrad.model import ContinuousModel, DynamicalModel
import report
import run
import tracer as tracer_mod
import workloads
from tracer import NO_PARENT, SETUP_CELL, Tracer, self_times


def _span(span_id, start, end, parent, name=0, cell=0, error=0):
    return [span_id, name, start, end, parent, cell, error]


def test_self_time_of_synthetic_nested_call():
    # root [0, 100] holds a [10, 30] (which holds g [12, 20]) and b [40, 90].
    spans = np.array(
        [
            _span(0, 0, 100, NO_PARENT),
            _span(1, 10, 30, 0),
            _span(2, 12, 20, 1),
            _span(3, 40, 90, 0),
        ],
        dtype=np.int64,
    )
    assert self_times(spans).tolist() == [30, 12, 8, 50]


def test_self_times_of_traced_cell_add_up_to_its_root_span():
    cell = workloads.discrete_sweep(0)[0]
    tr = Tracer(kalgrad)
    tr.cell = 0
    with tr:
        workloads.call(cell)
    spans = tr.spans()
    roots = spans[spans[:, 4] == NO_PARENT]
    assert [tr.names[i] for i in roots[:, 1]] == ["equivalence.check_discrete"]
    root_duration = roots[0, 3] - roots[0, 2]
    assert self_times(spans).sum() == pytest.approx(root_duration, rel=1e-12)
    assert (self_times(spans) >= 0).all()


def _kalgrad_modules():
    return [m for n, m in sys.modules.items() if n == "kalgrad" or n.startswith("kalgrad.")]


def test_every_copy_of_solve_psd_is_the_wrapper_while_installed():
    original = numerics.solve_psd
    holders = [m for m in _kalgrad_modules() if getattr(m, "solve_psd", None) is original]
    assert {m.__name__ for m in holders} >= {
        "kalgrad.numerics", "kalgrad.ekf", "kalgrad.natgrad", "kalgrad.equivalence",
        "kalgrad.expfam", "kalgrad.bucy",
    }
    observe_gain = kalgrad.ekf._OBSERVERS[kalgrad.ekf.GAIN]
    methods = [vars(cls)[m] for cls in (DynamicalModel, ContinuousModel) for m in tracer_mod.MODEL_METHODS]

    tr = Tracer(kalgrad)
    with tr:
        wrapper = numerics.solve_psd
        assert wrapper is not original and wrapper.__wrapped__ is original
        assert all(m.solve_psd is wrapper for m in holders)
        assert kalgrad.ekf._OBSERVERS[kalgrad.ekf.GAIN].__wrapped__ is observe_gain
        now = [vars(cls)[m] for cls in (DynamicalModel, ContinuousModel) for m in tracer_mod.MODEL_METHODS]
        assert all(new.__wrapped__ is old for new, old in zip(now, methods))
    assert all(m.solve_psd is original for m in holders)
    assert kalgrad.ekf._OBSERVERS[kalgrad.ekf.GAIN] is observe_gain
    assert [vars(cls)[m] for cls in (DynamicalModel, ContinuousModel) for m in tracer_mod.MODEL_METHODS] == methods


def test_numerical_error_counts_once_at_the_innermost_span():
    cell = next(c for c in workloads.discrete_sweep(0) if c.label.startswith("logistic-static alpha=1 "))
    tr = Tracer(kalgrad)
    tr.cell = 0
    with tr, pytest.raises(kalgrad.NumericalError):
        workloads.call(cell)
    spans = tr.spans()
    failing = spans[spans[:, 6] == 1]
    assert [tr.names[i] for i in failing[:, 1]] == ["expfam.check_mean"]


def _flatten(value):
    """Every array and scalar reachable from a cell's inputs, in order."""
    if isinstance(value, workloads.Cell):
        return _flatten(value.kwargs) + _flatten(value.linear)
    if isinstance(value, dict):
        return [x for k in sorted(value) for x in [k] + _flatten(value[k])]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _flatten(v)]
    if hasattr(value, "observations"):  # a Scenario
        return _flatten(value.true_states) + _flatten(value.observations) + [value.seed]
    if isinstance(value, (DynamicalModel, ContinuousModel)):
        return [value.name] + _flatten(value.init_state)
    if isinstance(value, np.ndarray):
        return [value.dtype.str, value.shape, value.tobytes()]
    return [value]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_bit_identical_inputs(name):
    make = workloads.WORKLOADS[name]
    first, again, other = make(7), make(7), make(8)
    assert [c.label for c in first] == [c.label for c in again]
    assert [_flatten(c) for c in first] == [_flatten(c) for c in again]
    assert [_flatten(c) for c in first] != [_flatten(c) for c in other]


def test_percentile_needs_ten_samples_beyond_it():
    assert report.tail_percentile(np.arange(100.0), 90) == pytest.approx(89.1)
    assert report.tail_percentile(np.arange(90.0), 90) is None
    assert report.tail_percentile(np.arange(1000.0), 99) is not None
    assert report.tail_percentile([], 50) is None


def test_setup_spans_are_kept_apart_from_cells():
    tr = Tracer(kalgrad)
    with tr:
        cells = workloads.long_horizon(0)
    spans = tr.spans()
    assert (spans[:, 5] == SETUP_CELL).all()
    names = {tr.names[i] for i in spans[:, 1]}
    assert "model.generate_scenario" in names
    metrics = report.layer_metrics(spans, tr.names, {}, len(cells))
    assert metrics["model.generate_scenario.ms_per_cell"][0] > 0


def test_attempted_and_failed_count_inputs_not_repeats():
    cells = [workloads.Cell(label=f"c{i}", kind=workloads.DISCRETE, kwargs={}, steps=1) for i in range(3)]
    outcomes = {"c0": workloads.Outcome(), "c1": workloads.Outcome(error="aborted"), "c2": workloads.Outcome()}
    bench = run.Bench("fake", cells, lambda cell: (1e-3, outcomes[cell.label]))
    for passes in (1, 4):
        while bench.cells_run < passes * len(cells):
            list(bench.one_pass())
        result = bench._result({})
        assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, True)
    outcomes["c2"] = workloads.Outcome(missed="too far")
    list(bench.one_pass())
    result = bench._result({})
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 2, False)
