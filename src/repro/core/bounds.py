"""Analytic cost bounds: Theorem 3.1's ``Π(n, m)`` versus the exponential baseline.

The quantitative content of the paper is a comparison of worst-case bounds:

* the prior state of the art guarantees rendezvous only after a number of
  edge traversals exponential in the size of the graph and in the (larger)
  label;
* Algorithm RV-asynch-poly guarantees rendezvous after at most ``Π(n, m)``
  edge traversals, a polynomial in the size ``n`` and in ``m``, the binary
  length of the *smaller* label.

This module packages both bounds (they are computed by the cost model) into
comparison records used by experiment E3 and by the CLI.  It also exposes the
log–log slope estimator used to check empirically that ``Π`` grows
polynomially while the baseline bound grows exponentially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..exploration.cost_model import CostModel, PaperCostModel

__all__ = ["BoundComparison", "compare_bounds", "growth_exponent_estimate"]


@dataclass(frozen=True)
class BoundComparison:
    """Worst-case guarantees for one parameter setting.

    Attributes
    ----------
    n:
        Graph size.
    label:
        The (smaller) agent label ``L``.
    label_length:
        Binary length ``|L|``.
    rv_bound:
        ``Π(n, |L|)`` — the guarantee of Theorem 3.1.
    baseline_bound:
        ``(2P(n)+1)^L · 2P(n)`` — the trajectory length of the naive
        exponential algorithm (its cost when the adversary delays the other
        agent until it stops).
    """

    n: int
    label: int
    label_length: int
    rv_bound: int
    baseline_bound: int


def compare_bounds(
    sizes: Sequence[int],
    labels: Sequence[int],
    model: Optional[CostModel] = None,
) -> List[BoundComparison]:
    """Compute bound comparisons over a grid of sizes and labels."""
    model = model if model is not None else PaperCostModel()
    comparisons: List[BoundComparison] = []
    for n in sizes:
        for label in labels:
            label_length = label.bit_length()
            comparisons.append(
                BoundComparison(
                    n=n,
                    label=label,
                    label_length=label_length,
                    rv_bound=model.pi_bound(n, label_length),
                    baseline_bound=model.baseline_trajectory_length(n, label),
                )
            )
    return comparisons


def growth_exponent_estimate(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Estimate the exponent ``e`` of a power law ``y ≈ c · x^e`` by log–log regression.

    A polynomial of degree ``d`` yields an estimate close to ``d`` (and, in
    particular, bounded); an exponential yields an estimate that keeps growing
    with the range of ``x``.  Used by the bound and scaling experiments.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs with matching lengths")
    log_x = [math.log(float(x)) for x in xs]
    log_y = [math.log(float(y)) for y in ys]
    mean_x = sum(log_x) / len(log_x)
    mean_y = sum(log_y) / len(log_y)
    numerator = sum((lx - mean_x) * (ly - mean_y) for lx, ly in zip(log_x, log_y))
    denominator = sum((lx - mean_x) ** 2 for lx in log_x)
    if denominator == 0:
        raise ValueError("all x values are identical; cannot fit a power law")
    return numerator / denominator
