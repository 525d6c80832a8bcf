"""One configuration through the stacked engine: :class:`BatchedModel`.

The repository has one oracle and one vectorised engine:

* :class:`repro.core.model.AnalyticalModel` — the scalar *reference*; one
  :meth:`~repro.core.model.AnalyticalModel.evaluate` call walks every
  cluster class, destination pair and journey length at one load and
  returns the full per-class :class:`~repro.core.model.ModelResult`
  breakdown;
* :class:`repro.core.stacked.StackedModel` — the production engine, the
  same closed forms vectorised over ``(cells × loads)`` with exact
  per-resource saturation (see ``docs/batched_engine.md``).

:class:`BatchedModel` is the single-configuration view every analysis
entry point uses: latencies, utilisations and saturation loads are row 0
of a one-cell :class:`~repro.core.stacked.StackedModel` built on first
use, and per-point breakdowns come from the scalar oracle it wraps.

This module also declares :data:`ENGINE_VERSION` and the shared bracket
refinement :func:`refine_monotone_crossing`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro._util import require
from repro.core.model import AnalyticalModel, ModelResult, TrafficPatternLike
from repro.core.parameters import ClusterClass, MessageSpec, ModelOptions, SystemConfig
from repro.core.stacked import ResourceRates, StackedModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep imports batch)
    from repro.core.sweep import LoadSweep

__all__ = ["BatchedModel", "ENGINE_VERSION", "refine_monotone_crossing"]

#: Version tag of the engine's numerics, embedded in on-disk cache keys
#: (:mod:`repro.io.cache`).  Bump whenever a change alters any number the
#: closed forms produce — saturation loads, latencies, resource rates —
#: or the evaluation path that produces them, so stale cached results can
#: never be mistaken for fresh ones (``tests/goldens/engine.json`` pins
#: the numbers each tag stands for).
ENGINE_VERSION = "batch/2"


def refine_monotone_crossing(
    lo: float,
    hi: float,
    crossed: Callable[[np.ndarray], np.ndarray],
    *,
    rel_tol: float,
    points: int = 33,
    max_rounds: int = 100,
) -> tuple[float, float]:
    """Narrow ``[lo, hi]`` to the cell where a monotone condition flips.

    ``crossed(grid) -> bool array`` evaluates the condition over a whole
    load grid at once; the bracket invariant is ``not crossed(lo)`` and
    ``crossed(hi)``.  Each round probes *points* evenly spaced loads and
    keeps the cell containing the first ``True``, shrinking the bracket by
    ``points - 1`` per vectorised evaluation, until ``hi - lo <= rel_tol *
    hi``, the bracket stops making progress at float64 resolution, or
    *max_rounds* rounds have run (the relative test alone cannot terminate
    when the crossing sits at ``lo == 0`` exactly, where the bracket can
    only shrink toward a denormal ``hi``).  Used by the capacity planner's
    latency-budget search and the knee search; the stacked engine runs the
    same decision sequence per row.
    """
    for _ in range(max_rounds):
        if hi - lo <= rel_tol * hi:
            break
        grid = np.linspace(lo, hi, points)
        above = crossed(grid)
        if not above.any():  # pragma: no cover - callers guarantee crossed(hi)
            lo, hi = hi, hi * 2.0
            continue
        first = int(np.argmax(above))
        if first == 0:  # bracket degenerated to the crossing itself
            break
        new_lo, new_hi = float(grid[first - 1]), float(grid[first])
        if new_lo <= lo and new_hi >= hi:  # float64 resolution reached
            break
        lo, hi = new_lo, new_hi
    return lo, hi


class BatchedModel:
    """One configuration evaluated as a one-cell :class:`StackedModel`.

    The wrapped scalar model stays available as :attr:`reference_model`;
    it supplies the per-point :class:`ModelResult` breakdowns and is the
    oracle the equivalence tests compare against.

    Parameters match :class:`~repro.core.model.AnalyticalModel`.
    """

    def __init__(
        self,
        system: SystemConfig,
        message: MessageSpec,
        options: ModelOptions | None = None,
        pattern: TrafficPatternLike | None = None,
    ) -> None:
        self._attach(AnalyticalModel(system, message, options, pattern))

    def _attach(self, model: AnalyticalModel) -> None:
        self._model = model
        self.system = model.system
        self.message = model.message
        self.options = model.options
        self.pattern = model.pattern
        self._stack: StackedModel | None = None

    @classmethod
    def from_model(cls, model: AnalyticalModel) -> "BatchedModel":
        """Engine wrapping an existing scalar model (cached on it).

        The engine's :attr:`reference_model` *is* the given instance — no
        duplicate :class:`AnalyticalModel` is constructed.  Repeated calls
        with the same model reuse one stack, so entry points such as
        ``find_saturation_load`` and ``sweep_load`` pack the model once per
        model object; if the model's attributes were reassigned since the
        engine was cached, a fresh engine is built instead of returning
        stale results.
        """
        require(isinstance(model, AnalyticalModel), "model must be an AnalyticalModel")
        cached = getattr(model, "_batched_engine", None)
        if cached is None or not cached._wraps(model):
            cached = cls.__new__(cls)
            cached._attach(model)
            model._batched_engine = cached  # type: ignore[attr-defined]
        return cached

    def _wraps(self, model: AnalyticalModel) -> bool:
        """True if this engine still reflects *model*'s state."""
        return (
            self._model is model
            and self.system is model.system
            and self.message is model.message
            and self.options is model.options
            and self.pattern is model.pattern
        )

    @property
    def _cell(self) -> StackedModel:
        """The one-cell stack, packed on first use."""
        if self._stack is None:
            self._stack = StackedModel([self._model])
        return self._stack

    @property
    def reference_model(self) -> AnalyticalModel:
        """The scalar reference implementation this engine was built from."""
        return self._model

    @property
    def cluster_classes(self) -> tuple[ClusterClass, ...]:
        """The class decomposition the engine evaluates over."""
        return self._model.cluster_classes

    def evaluate_many(
        self, loads: "np.ndarray | list[float]", *, with_results: bool = True
    ) -> "LoadSweep":
        """Evaluate the model at every load in *loads* (Eqs. 1-3).

        Latencies come from the stack in one vectorised pass.  With
        ``with_results=True`` each point's :class:`ModelResult` breakdown
        is added from the scalar :attr:`reference_model`; latency-only
        callers pass ``with_results=False`` and get empty ``results``.
        """
        from repro.core.sweep import LoadSweep

        loads_arr = np.asarray(loads, dtype=np.float64)
        require(loads_arr.ndim == 1, "loads must be a non-empty 1-D sequence")
        latencies = self._cell.evaluate_latencies(loads_arr)[0]
        results: tuple[ModelResult, ...] = ()
        if with_results:
            results = tuple(self._model.evaluate(float(load)) for load in loads_arr)
        return LoadSweep(loads=loads_arr, latencies=latencies, results=results)

    def evaluate(self, generation_rate: float) -> ModelResult:
        """Single-point breakdown, from the scalar :attr:`reference_model`."""
        return self._model.evaluate(float(generation_rate))

    def zero_load_latency(self) -> float:
        """Mean latency in the λ_g → 0 limit (pure transmission time)."""
        return float(self._cell.zero_load_latencies()[0])

    def resource_utilizations(self, loads: "np.ndarray | list[float]") -> tuple[ResourceRates, ...]:
        """Utilisation of every modelled queue *and* channel over the grid.

        The enumeration (names, kinds, values) matches
        :func:`repro.analysis.bottleneck.model_bottlenecks`, which is built
        on this method.
        """
        return self._cell.resource_utilizations(0, loads)

    def saturation_loads(self) -> dict[str, float]:
        """Per-resource saturation rates ``λ*`` (ρ = 1), keyed like
        ``ModelResult.saturated_resources``.

        Concentrator entries are exact closed forms; source-queue entries
        invert the single-resource monotone utilisation (see
        :mod:`repro.core.stacked`).  Resources that cannot saturate the
        model (zero-weight destination pairs, zero-rate queues) are left
        out, mirroring ``AnalyticalModel.evaluate``.
        """
        return self._cell.saturation_loads()[0]

    def saturation_load(self) -> float:
        """Smallest ``λ_g`` at which any modelled queue reaches ρ = 1."""
        return float(self._cell.saturation_load()[0])

    def binding_resource(self) -> str:
        """Name of the resource whose saturation rate is smallest."""
        return self._cell.binding_resources()[0]
