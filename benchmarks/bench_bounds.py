"""E3: the analytic worst-case guarantees (Theorem 3.1 versus prior work).

Pure computation (no simulation): tabulates ``Π(n, |L|)`` and the exponential
baseline guarantee over a grid of sizes and labels, classifies their growth,
and reports where the crossover falls.  Also sweeps the exponent of the
exploration polynomial ``P``: how the guarantee's growth depends on the
degree of ``P``, the constant the UXS substitution tunes.

The guarantee grid is the registered E3 :class:`ExperimentSpec` (the
``"bounds"`` problem kind, one cell per (n, L)); the ablation keeps driving
``run_sweep`` directly because each exponent needs its own live cost model.
``test_bound_scaling_as_users_run_it`` runs the default grid with no model
override, the way ``repro experiment E3`` does: the sweep resolves the
cells' ``"paper"`` model itself, so its per-cell cost is part of the time.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.experiment_spec import experiment_spec, run_experiment
from repro.analysis.fitting import fit_power_law
from repro.exploration.cost_model import PaperCostModel
from repro.runtime import ScenarioSpec
from repro.runtime.executors import run_sweep

from ._harness import emit, run_once

SIZES = (2, 4, 8, 16, 32)
LABELS = (1, 2, 4, 8, 16, 32, 64)

SPEC = experiment_spec("E3", sizes=SIZES, labels=LABELS)

GOLDEN_E3 = Path(__file__).resolve().parents[1] / "tests" / "golden" / "e3_full.txt"


def test_bound_scaling(benchmark, paper_model):
    result = run_once(benchmark, run_experiment, SPEC, model=paper_model)
    emit("e3_bound_scaling", result.render())
    # The crossover: for long enough labels the polynomial guarantee wins.
    largest_label = max(row["label"] for row in result.rows)
    for row in result.rows:
        if row["label"] == largest_label:
            assert row["baseline_bound"] > row["rv_bound"]
    # The RV bound depends on the label only through its length.
    by_length = {}
    for row in result.rows:
        by_length.setdefault((row["n"], row["label_length"]), set()).add(row["rv_bound"])
    assert all(len(values) == 1 for values in by_length.values())


def test_bound_scaling_as_users_run_it(benchmark):
    result = run_once(benchmark, run_experiment, experiment_spec("E3"))
    assert result.render() + "\n" == GOLDEN_E3.read_text(encoding="utf-8")


def test_bound_ablation_on_exploration_polynomial(benchmark):
    """How the degree of P(k) propagates into the degree of Π(n, m).

    Each exponent gets its own live cost model (the registry's ``paper``
    model has the paper's fixed exponent), so the sweep passes the model as
    an override on top of the same ``bounds`` cells.
    """

    def sweep():
        rows = []
        cells = [
            ScenarioSpec(problem="bounds", family="path", size=n, labels=(2, 3), cost_model="paper")
            for n in (4, 8, 16, 32)
        ]
        for exponent in (1, 2, 3):
            model = PaperCostModel(length_coefficient=1, length_exponent=exponent)
            result = run_sweep(cells, model=model)
            sizes = [record.graph_size for record in result]
            bounds = [record.extra_dict["rv_bound"] for record in result]
            fit = fit_power_law(sizes, bounds)
            rows.append((exponent, fit.slope, bounds[-1]))
        return rows

    rows = run_once(benchmark, sweep)
    lines = ["P(k) exponent -> fitted degree of Pi(n, 2) in n, Pi(32, 2):"]
    for exponent, slope, largest in rows:
        lines.append(f"  P(k) = k^{exponent}:  degree ~ {slope:.1f}   Pi(32, 2) = {largest:.3e}")
    emit("e3_bound_ablation_P_exponent", "\n".join(lines))
    degrees = [slope for _exponent, slope, _largest in rows]
    assert degrees == sorted(degrees)
