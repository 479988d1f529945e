"""Cost models: the polynomial ``P``, trajectory lengths, and analytic bounds.

Every trajectory of the paper (Definitions 3.1–3.8) traverses a number of
edges that depends only on its parameter ``k`` — never on the graph or the
start node — because the underlying exploration sequence for parameter ``k``
has fixed length ``P(k)``.  This module computes those lengths *exactly* by
the same recurrences the constructions use:

====================  =====================================================
trajectory            number of edge traversals
====================  =====================================================
``R(k)``              ``P(k)``
``X(k)``              ``2 P(k)``
``Q(k)``              ``Σ_{i=1..k} |X(i)|``
``Y'(k)``             ``(P(k)+1) |Q(k)| + P(k)``
``Y(k)``              ``2 |Y'(k)|``
``Z(k)``              ``Σ_{i=1..k} |Y(i)|``
``A'(k)``             ``(P(k)+1) |Z(k)| + P(k)``
``A(k)``              ``2 |A'(k)|``
``B(k)``              ``2 |A(4k)| · |Y(k)|``
``K(k)``              ``2 (|B(4k)| + |A(8k)|) · |X(k)|``
``Ω(k)``              ``(2k-1) |K(k)| · |X(k)|``
====================  =====================================================

On top of the lengths it provides the analytic quantities of the paper:

* ``esst_bound(n)`` — the cost bound of Theorem 2.1;
* ``pi_bound(n, m)`` — the rendezvous bound ``Π(n, m)`` of Theorem 3.1;
* ``baseline_trajectory_length(n, L)`` — the cost of the naive exponential
  algorithm sketched at the beginning of §3.

Two concrete models are provided.  :class:`SimulationCostModel` uses a small
configurable ``P`` so that trajectories can actually be executed, and a
calibrated (non-worst-case) budget for Algorithm SGL.  :class:`PaperCostModel`
uses a larger, Reingold-flavoured ``P`` and the honest worst-case budgets; it
is meant for computing bounds (experiment E3), not for running agents.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..exceptions import ExplorationError
from ..runtime.registry import COST_MODELS
from .uxs import PseudoRandomUXS, UXSProvider

__all__ = [
    "CostModel",
    "SimulationCostModel",
    "PaperCostModel",
    "default_cost_model",
]


class CostModel:
    """Bundle of the exploration-sequence provider and all derived lengths.

    Parameters
    ----------
    uxs:
        The universal-exploration-sequence provider; ``P(k)`` is defined as
        ``uxs.length(k)``.
    name:
        Identifier used in reports.
    """

    def __init__(self, uxs: UXSProvider, name: str = "cost-model") -> None:
        self._uxs = uxs
        self._name = name
        self._cache: Dict[Tuple[str, int], int] = {}
        self._sums: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Identifier of the model (used in tables)."""
        return self._name

    @property
    def uxs(self) -> UXSProvider:
        """The exploration-sequence provider backing this model."""
        return self._uxs

    def P(self, k: int) -> int:  # noqa: N802 - matches the paper's notation
        """Number of edge traversals of ``R(k, ·)`` (the paper's ``P(k)``)."""
        return self._uxs.length(k)

    def uxs_terms(self, k: int) -> Sequence[int]:
        """The exploration sequence for parameter ``k``."""
        return self._uxs.terms(k)

    # ------------------------------------------------------------------
    # exact trajectory lengths (Definitions 3.1 - 3.8)
    # ------------------------------------------------------------------
    def _memo(self, key: str, k: int, compute) -> int:
        cache_key = (key, k)
        if cache_key not in self._cache:
            self._cache[cache_key] = compute(k)
        return self._cache[cache_key]

    def _running_sum(self, key: str, k: int, term: Callable[[int], int]) -> int:
        """``Σ_{i=1..k} term(i)`` from a table of prefix sums.

        ``self._sums[key][i]`` is the sum of the first ``i`` terms; a query
        past the end of the table extends it from the largest prefix already
        cached, one term at a time in a loop: filling it up to ``k`` costs
        ``k`` terms in total, and the call depth does not grow with ``k``.
        """
        table = self._sums.setdefault(key, [0])
        for i in range(len(table), k + 1):
            table.append(table[-1] + term(i))
        return table[k] if k > 0 else 0

    def len_R(self, k: int) -> int:
        """Length of ``R(k, ·)``."""
        return self.P(k)

    def len_X(self, k: int) -> int:
        """Length of ``X(k, ·) = R(k, ·) then backtrack`` (Definition 3.1)."""
        return self._memo("X", k, lambda k: 2 * self.P(k))

    def len_Q(self, k: int) -> int:
        """Length of ``Q(k, ·) = X(1)X(2)...X(k)`` (Definition 3.2).

        Filled as a running sum: ``|Q(k)| = |Q(k-1)| + |X(k)|``.
        """
        return self._running_sum("Q", k, self.len_X)

    def len_Y_prime(self, k: int) -> int:
        """Length of ``Y'(k, ·)`` (Definition 3.3): ``Q`` at every trunk node."""
        return self._memo(
            "Y'", k, lambda k: (self.P(k) + 1) * self.len_Q(k) + self.P(k)
        )

    def len_Y(self, k: int) -> int:
        """Length of ``Y(k, ·) = Y'(k, ·) then backtrack`` (Definition 3.3)."""
        return self._memo("Y", k, lambda k: 2 * self.len_Y_prime(k))

    def len_Z(self, k: int) -> int:
        """Length of ``Z(k, ·) = Y(1)Y(2)...Y(k)`` (Definition 3.4).

        Filled as a running sum: ``|Z(k)| = |Z(k-1)| + |Y(k)|``.
        """
        return self._running_sum("Z", k, self.len_Y)

    def len_A_prime(self, k: int) -> int:
        """Length of ``A'(k, ·)`` (Definition 3.5): ``Z`` at every trunk node."""
        return self._memo(
            "A'", k, lambda k: (self.P(k) + 1) * self.len_Z(k) + self.P(k)
        )

    def len_A(self, k: int) -> int:
        """Length of ``A(k, ·) = A'(k, ·) then backtrack`` (Definition 3.5)."""
        return self._memo("A", k, lambda k: 2 * self.len_A_prime(k))

    def len_B(self, k: int) -> int:
        """Length of ``B(k, ·) = Y(k, ·)^{2|A(4k)|}`` (Definition 3.6)."""
        return self._memo("B", k, lambda k: 2 * self.len_A(4 * k) * self.len_Y(k))

    def repetitions_B(self, k: int) -> int:
        """Number of copies of ``Y(k)`` inside ``B(k)`` (= ``2 |A(4k)|``)."""
        return 2 * self.len_A(4 * k)

    def len_K(self, k: int) -> int:
        """Length of ``K(k, ·) = X(k, ·)^{2(|B(4k)| + |A(8k)|)}`` (Def. 3.7)."""
        return self._memo(
            "K", k, lambda k: self.repetitions_K(k) * self.len_X(k)
        )

    def repetitions_K(self, k: int) -> int:
        """Number of copies of ``X(k)`` inside ``K(k)``."""
        return 2 * (self.len_B(4 * k) + self.len_A(8 * k))

    def len_Omega(self, k: int) -> int:
        """Length of ``Ω(k, ·) = X(k, ·)^{(2k-1)|K(k)|}`` (Definition 3.8)."""
        return self._memo(
            "Omega", k, lambda k: self.repetitions_Omega(k) * self.len_X(k)
        )

    def repetitions_Omega(self, k: int) -> int:
        """Number of copies of ``X(k)`` inside ``Ω(k)`` (= ``(2k-1)|K(k)|``)."""
        return (2 * k - 1) * self.len_K(k)

    # ------------------------------------------------------------------
    # Algorithm RV-asynch-poly structure
    # ------------------------------------------------------------------
    def segment_length(self, k: int, bit: int) -> int:
        """Length of the segment processing ``bit`` in iteration ``k``.

        Processing bit 1 means following ``B(2k)`` twice, bit 0 means
        following ``A(4k)`` twice (§3.1, pseudocode).
        """
        if bit not in (0, 1):
            raise ExplorationError(f"bit must be 0 or 1, got {bit}")
        return 2 * self.len_B(2 * k) if bit == 1 else 2 * self.len_A(4 * k)

    def piece_length(self, k: int, bits: Sequence[int]) -> int:
        """Exact length of the ``k``-th piece for a modified label ``bits``.

        A *piece* is everything between two consecutive fences (§3.2): the
        segments for bits ``1 .. min(k, s)`` separated by borders ``K(k)``.
        The fence ``Ω(k)`` that follows the piece is *not* included.
        """
        s = len(bits)
        limit = min(k, s)
        total = 0
        for i in range(1, limit + 1):
            total += self.segment_length(k, bits[i - 1])
            if i < limit:
                total += self.len_K(k)
        return total

    # ------------------------------------------------------------------
    # analytic bounds of the paper
    # ------------------------------------------------------------------
    def esst_phase_cost(self, i: int) -> int:
        """Upper bound on the cost of phase ``i`` of Procedure ESST.

        The agent walks at most three times along the trunk ``R(2i, ·)`` and at
        most twice along each ``R(i, ·)`` launched from the ``P(2i)+1`` trunk
        nodes (proof of Theorem 2.1), plus one edge traversal to finish the
        current edge when a phase is aborted mid-edge.
        """
        if i < 3 or i % 3 != 0:
            raise ExplorationError("ESST phases are the multiples of 3, starting at 3")
        return 3 * self.P(2 * i) + (self.P(2 * i) + 1) * 2 * self.P(i) + 1

    def esst_bound(self, n: int) -> int:
        """Bound of Theorem 2.1 on the total cost of ESST in a graph of size ``n``."""
        if n < 1:
            raise ExplorationError("graph size must be >= 1")
        last_phase = 9 * n + 3
        return sum(self.esst_phase_cost(i) for i in range(3, last_phase + 1, 3))

    def modified_label_length(self, label_length: int) -> int:
        """Length ``l`` of the modified label of a label of binary length ``m``.

        The transformation doubles every bit and appends ``01``:
        ``l = 2 m + 2`` (§3.1).
        """
        if label_length < 1:
            raise ExplorationError("label length must be >= 1")
        return 2 * label_length + 2

    def final_piece_index(self, n: int, label_length: int) -> int:
        """The piece index ``2(n + l) + 1`` by which meeting is guaranteed."""
        l = self.modified_label_length(label_length)
        return 2 * (n + l) + 1

    def pi_bound(self, n: int, label_length: int) -> int:
        """The polynomial bound ``Π(n, m)`` of Theorem 3.1.

        ``n`` is the size of the graph and ``label_length`` is
        ``m = min(|L1|, |L2|)``, the binary length of the smaller label.
        Follows the proof's estimate: meeting is guaranteed by the time one
        agent completes its ``N = 2(n + l) + 1``-th piece, and each piece ``k``
        is bounded by ``N (2|A(4k)| + 2|B(2k)| + |K(k)|)``.
        """
        if n < 1:
            raise ExplorationError("graph size must be >= 1")
        N = self.final_piece_index(n, label_length)
        total = 0
        for k in range(1, N + 1):
            piece_bound = N * (
                2 * self.len_A(4 * k) + 2 * self.len_B(2 * k) + self.len_K(k)
            )
            total += piece_bound + self.len_Omega(k)
        return total

    def baseline_trajectory_length(self, n: int, label: int) -> int:
        """Cost of the naive exponential algorithm's full trajectory.

        The simple algorithm sketched at the start of §3: an agent with label
        ``L`` in a graph of known size ``n`` follows
        ``(R(n, v) R̄(n, v))^{(2P(n)+1)^L}`` and stops.  Its trajectory length
        is ``(2P(n)+1)^L · 2P(n)`` — exponential in ``L``.
        """
        if label < 1:
            raise ExplorationError("labels are strictly positive integers")
        repetitions = (2 * self.P(n) + 1) ** label
        return repetitions * 2 * self.P(n)

    def baseline_repetitions(self, n: int, label: int) -> int:
        """Number of ``X(n)`` repetitions of the naive algorithm: ``(2P(n)+1)^L``."""
        if label < 1:
            raise ExplorationError("labels are strictly positive integers")
        return (2 * self.P(n) + 1) ** label

    # ------------------------------------------------------------------
    # Algorithm SGL budget (pluggable: subclasses may replace Π(E(n), |L|))
    # ------------------------------------------------------------------
    def rendezvous_budget(self, size_bound: int, label_length: int) -> int:
        """The number of RV-asynch-poly traversals an explorer performs in SGL.

        In the paper this is ``Π(E(n), |L|)``.  Subclasses may override it
        with a smaller calibrated budget so that Algorithm SGL can actually be
        executed (the honest ``Π`` has polynomial degree ≈ 25).
        """
        return self.pi_bound(size_bound, label_length)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self._name!r})"


class SimulationCostModel(CostModel):
    """Cost model sized for actually *running* the algorithms.

    Uses a small pseudo-UXS length polynomial (default ``P(k) = 2k² + 8``)
    and a calibrated SGL budget.  The structure of every trajectory is exactly
    the paper's; only the constants of ``P`` differ, which is what makes
    end-to-end simulation tractable.
    """

    def __init__(
        self,
        length_coefficient: int = 2,
        length_exponent: int = 2,
        length_offset: int = 8,
        seed: int = 2013,
        sgl_budget_coefficient: int = 25,
    ) -> None:
        uxs = PseudoRandomUXS(
            length_coefficient=length_coefficient,
            length_exponent=length_exponent,
            length_offset=length_offset,
            seed=seed,
        )
        super().__init__(uxs, name=f"simulation[{uxs.describe()}]")
        self._sgl_budget_coefficient = sgl_budget_coefficient

    def rendezvous_budget(self, size_bound: int, label_length: int) -> int:
        """A calibrated polynomial budget ``c · s² · (ℓ + 2) + 8 P(s)``.

        ``s`` is the size bound the explorer derived from ESST (the final
        phase index, which exceeds the true size ``n``), and ``ℓ`` is the
        binary length of the agent's own label.  The budget is intentionally
        generous for the graph sizes used in tests and benchmarks while being
        executable.  The trade-off: Theorem 3.1 no longer guarantees that
        Phase 2 lasts long enough, so every run checks that each agent output
        exactly the true set of labels instead of relying on the theorem.
        """
        if size_bound < 1:
            raise ExplorationError("size bound must be >= 1")
        return (
            self._sgl_budget_coefficient * size_bound * size_bound * (label_length + 2)
            + 4 * self.P(size_bound)
        )


class PaperCostModel(CostModel):
    """Cost model with a Reingold-flavoured ``P`` for analytic bounds.

    ``P(k) = coefficient · k^exponent`` with a cubic default.  Intended for
    computing the exact values of the paper's bounds (experiment E3); running
    agents under this model is possible but pointless — the whole point of
    the paper is that the bound is a *polynomial*, not that it is small.
    """

    def __init__(self, length_coefficient: int = 1, length_exponent: int = 3) -> None:
        uxs = PseudoRandomUXS(
            length_coefficient=length_coefficient,
            length_exponent=length_exponent,
            length_offset=0,
            seed=1973,
        )
        super().__init__(
            uxs,
            name=f"paper[P(k) = {length_coefficient} * k^{length_exponent}]",
        )


def default_cost_model() -> SimulationCostModel:
    """Return the cost model used by examples and tests unless overridden."""
    return SimulationCostModel()


# ----------------------------------------------------------------------
# runtime registry entries
# ----------------------------------------------------------------------
COST_MODELS.register("simulation", SimulationCostModel)
COST_MODELS.register("default", SimulationCostModel)
COST_MODELS.register("paper", PaperCostModel)
