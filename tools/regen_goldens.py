"""Regenerate the golden digest corpora: simulator trajectories and engine outputs.

The trajectory corpus (``tests/goldens/trajectories.json``) pins one sha256
digest of the canonical trajectory
(:func:`repro.simulation.eventcore.trajectory_digest`) per (scenario, seed,
granularity) golden point.  CI replays every entry — message-granularity
points under **both** event engines — so either engine drifting from its
pinned trajectory fails by name.

The engine corpus (``tests/goldens/engine.json``) pins one sha256 per
registry scenario over the analytical engine's outputs, every float
canonicalised with :meth:`float.hex` (bit-exact, not rounded): the
per-resource saturation map, the binding resource, the zero-load latency,
the auto load grid and its latency curve, every resource utilisation at
0.9 λ*, and the budget capacity (at the spec's latency budget, or at 2.5×
the zero-load latency when the spec has none).  CI replays it through the
``BatchedModel`` facade (:func:`engine_outputs`) and through one stack of
every scenario (:func:`stacked_engine_outputs`).

Regen protocol (the RF003 discipline, applied to trajectories)
--------------------------------------------------------------
Trajectory digests embed ``TRAJECTORY_VERSION``, so they go stale exactly
when that tag is bumped — which is also the only legitimate moment to
regenerate (the engine corpus follows the same protocol with
``ENGINE_VERSION`` in ``src/repro/core/batch.py``):

1. change the simulator, bump ``TRAJECTORY_VERSION`` in
   ``src/repro/simulation/runner.py``, and regenerate the reprolint
   fingerprints (``python -m tools.reprolint --write-fingerprints``);
2. regenerate this corpus in the same commit::

       PYTHONPATH=src python -m tools.regen_goldens

3. eyeball the diff: an intentional semantic change rewrites every
   digest; a version-only bump rewrites them too (the version is hashed),
   but an *unintentional* trajectory change without a bump is caught by
   the suite before you ever get here.

Never hand-edit digests, and never regenerate to silence a failure you
cannot explain — that failure is the corpus doing its job.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GOLDENS_PATH = ROOT / "tests" / "goldens" / "trajectories.json"
GOLDENS_SCHEMA = "repro.goldens.trajectories/1"
ENGINE_GOLDENS_PATH = ROOT / "tests" / "goldens" / "engine.json"
ENGINE_GOLDENS_SCHEMA = "repro.goldens.engine/1"
#: Budget used for the capacity output when a spec configures none,
#: as a multiple of the scenario's zero-load latency.
ENGINE_BUDGET_FACTOR = 2.5

#: The corpus: (scenario, seed, granularity, load, (warmup, measured, drain)).
#: Message points span the registry's topology/traffic families; flit
#: points are smaller (the flit engine is ~50x slower per message).
GOLDEN_SPECS: tuple[tuple[str, int, str, float, tuple[int, int, int]], ...] = (
    ("544", 0, "message", 3e-4, (100, 600, 100)),
    ("544", 1, "message", 3e-4, (100, 600, 100)),
    ("544", 2024, "message", 3e-4, (100, 600, 100)),
    ("544-hotspot", 0, "message", 3e-4, (100, 600, 100)),
    ("544-hotspot", 1, "message", 3e-4, (100, 600, 100)),
    ("544-local", 0, "message", 3e-4, (100, 600, 100)),
    ("544-local", 2024, "message", 3e-4, (100, 600, 100)),
    ("het8-extreme", 0, "message", 3e-4, (100, 600, 100)),
    ("het8-extreme", 1, "message", 3e-4, (100, 600, 100)),
    ("het8-uniform", 0, "message", 3e-4, (100, 600, 100)),
    ("het8-uniform", 2024, "message", 3e-4, (100, 600, 100)),
    ("1120", 0, "message", 2e-4, (100, 400, 100)),
    ("544", 0, "flit", 3e-4, (20, 120, 20)),
    ("544", 1, "flit", 3e-4, (20, 120, 20)),
    ("het8-uniform", 0, "flit", 3e-4, (20, 120, 20)),
    ("het8-uniform", 1, "flit", 3e-4, (20, 120, 20)),
)


def golden_trajectory(scenario, seed, granularity, load, window, *, engine="reference"):
    """Run one golden point and return its trajectory."""
    from repro.cluster.system import HeterogeneousSystem
    from repro.core.parameters import ModelOptions
    from repro.scenarios.registry import get_scenario
    from repro.simulation.fabric import ResolvedFabric
    from repro.simulation.metrics import MeasurementWindow
    from repro.simulation.rng import make_streams

    spec = get_scenario(scenario)
    fabric = ResolvedFabric(HeterogeneousSystem(spec.system), spec.message, ModelOptions())
    mw = MeasurementWindow(*window)
    if granularity == "message":
        from repro.simulation.wormhole import MessageLevelWormholeSimulator

        sim = MessageLevelWormholeSimulator(
            fabric, mw, load, make_streams(seed), spec.pattern, engine=engine
        )
    else:
        from repro.simulation.flitsim import FlitLevelSimulator

        sim = FlitLevelSimulator(fabric, mw, load, make_streams(seed), spec.pattern)
    sim.run()
    return sim.trajectory()


def golden_digest(scenario, seed, granularity, load, window, *, engine="reference"):
    """Digest of one golden point (what the corpus pins)."""
    from repro.simulation.eventcore import trajectory_digest

    return trajectory_digest(
        golden_trajectory(scenario, seed, granularity, load, window, engine=engine)
    )


def build_corpus() -> dict:
    """Compute every golden entry with the reference engine."""
    from repro.simulation.runner import TRAJECTORY_VERSION

    entries = []
    for scenario, seed, granularity, load, window in GOLDEN_SPECS:
        entries.append(
            {
                "scenario": scenario,
                "seed": seed,
                "granularity": granularity,
                "load": load,
                "window": list(window),
                "digest": golden_digest(scenario, seed, granularity, load, window),
            }
        )
    return {
        "schema": GOLDENS_SCHEMA,
        "trajectory_version": TRAJECTORY_VERSION,
        "regen": "PYTHONPATH=src python -m tools.regen_goldens  (see the module docstring for the protocol)",
        "entries": entries,
    }


def _canonical(value):
    """JSON-ready copy of *value* with every float as its exact ``float.hex``."""
    if isinstance(value, float):  # includes numpy.float64
        return float(value).hex()
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)) or hasattr(value, "tolist"):
        return [_canonical(item) for item in value]
    return value


def engine_digest(outputs: dict) -> str:
    """sha256 of one scenario's canonicalised engine outputs."""
    import hashlib

    text = json.dumps(_canonical(outputs), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def engine_budget(spec, zero_load_latency: float) -> float:
    """The latency budget the corpus plans capacity against."""
    import math

    if math.isfinite(spec.latency_budget):
        return spec.latency_budget
    return ENGINE_BUDGET_FACTOR * zero_load_latency


def engine_outputs(spec, engine) -> dict:
    """Every pinned output of one scenario, through a ``BatchedModel``."""
    from repro.analysis.capacity import max_load_for_latency
    from repro.core.sweep import auto_load_grid

    lam = engine.saturation_load()
    zero = engine.zero_load_latency()
    grid = auto_load_grid(engine)
    plan = max_load_for_latency(
        spec.system, spec.message, engine_budget(spec, zero), options=spec.options, engine=engine
    )
    return {
        "saturation_loads": engine.saturation_loads(),
        "binding_resource": engine.binding_resource(),
        "zero_load_latency": zero,
        "grid": grid,
        "curve": engine.evaluate_many(grid, with_results=False).latencies,
        "utilizations": [
            (r.resource, r.kind, r.utilization) for r in engine.resource_utilizations([0.9 * lam])
        ],
        "capacity": plan.achieved,
    }


def stacked_engine_outputs(specs) -> list:
    """:func:`engine_outputs` for every spec at once, through one ``StackedModel``."""
    import numpy as np

    from repro.core.stacked import StackedModel

    stack = StackedModel.from_specs(specs)
    saturation = stack.saturation_loads()
    binding = stack.binding_resources()
    lam = stack.saturation_load()
    zero = stack.zero_load_latencies()
    grids = stack.auto_load_grids()
    curves = stack.evaluate_latencies(grids)
    capacity = stack.loads_at_budget(np.array([engine_budget(s, z) for s, z in zip(specs, zero)]))
    return [
        {
            "saturation_loads": saturation[c],
            "binding_resource": binding[c],
            "zero_load_latency": zero[c],
            "grid": grids[c],
            "curve": curves[c],
            "utilizations": [
                (r.resource, r.kind, r.utilization)
                for r in stack.resource_utilizations(c, [0.9 * lam[c]])
            ],
            "capacity": capacity[c],
        }
        for c in range(len(specs))
    ]


def build_engine_corpus() -> dict:
    """Digest every registry scenario through the ``BatchedModel`` facade."""
    from repro.core.batch import ENGINE_VERSION, BatchedModel
    from repro.scenarios.registry import iter_scenarios

    entries = []
    for name, spec in iter_scenarios():
        engine = BatchedModel(spec.system, spec.message, spec.options, spec.pattern)
        entries.append({"scenario": name, "digest": engine_digest(engine_outputs(spec, engine))})
    return {
        "schema": ENGINE_GOLDENS_SCHEMA,
        "engine_version": ENGINE_VERSION,
        "regen": "PYTHONPATH=src python -m tools.regen_goldens  (see the module docstring for the protocol)",
        "entries": entries,
    }


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    check_only = "--check" in argv
    stale = False
    for path, corpus in (
        (GOLDENS_PATH, build_corpus()),
        (ENGINE_GOLDENS_PATH, build_engine_corpus()),
    ):
        text = json.dumps(corpus, indent=2) + "\n"
        if check_only:
            current = path.read_text(encoding="utf-8") if path.exists() else ""
            if current != text:
                print(f"{path} is stale; rerun without --check", file=sys.stderr)
                stale = True
            else:
                print(f"{path} is up to date")
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path} ({len(corpus['entries'])} entries)")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
