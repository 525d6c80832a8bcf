"""The three workloads: inputs made from a seed, the timed calls, and the
output checks run outside the timed region.

Each workload drives one public entry point of ``repro``:

* ``validate-544`` — ``Experiment("544").validate(points=5,
  messages=20000, engine="array")``, timed once cold and then warm on the
  same ``Experiment``.  Nearly all of it is ``repro.simulation``.
* ``explore-544`` — a 500-cell design grid through ``explore_grid`` with
  an empty cache, then replayed from that cache.  The only workload in
  ``repro.scenarios`` grid expansion, ``repro.core.stacked`` and
  ``repro.io.cache``; it never simulates.
* ``calibrate-jobs2`` — ``calibrate_options(["544", "het8-split"],
  messages=10000, jobs=2)``: the only workload through the supervised
  ``repro.exec`` pool.

Checks return one list of failure messages per timed call; a call with
any failure counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import tempfile

#: Cells of the explore grid compared against a per-cell ``BatchedModel``.
CHECK_CELLS = (0, 123, 249, 376, 499)

#: ``explore_grid``'s default knee threshold (latency = 4 x zero-load).
KNEE_FACTOR = 4.0


def _canon(value):
    """JSON-stable form with every float as its exact hex spelling."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def digest_of(value) -> str:
    text = json.dumps(_canon(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class Workload:
    """Inputs from a seed (``__init__``, ``setup``), per-cycle state
    (``fresh``, ``close``), timed ``calls``, and ``check`` and ``digest``
    of their outputs."""

    name = ""

    def setup(self) -> None:
        pass

    def fresh(self) -> None:
        pass

    def close(self) -> None:
        pass


class Validate544(Workload):
    name = "validate-544"

    def __init__(self, seed: int) -> None:
        self.sim_seed = random.Random(seed).randrange(1, 1_000_000)

    def setup(self) -> None:
        from repro import Experiment
        from repro.simulation import kernel_available

        self.kernel_available = kernel_available()
        self.exp = Experiment("544")

    def calls(self, warm: int):
        def run():
            return self.exp.validate(points=5, messages=20_000, engine="array", seed=self.sim_seed)

        yield "cold", run
        for _ in range(warm):
            yield "warm", run

    @staticmethod
    def _essence(result) -> dict:
        cols = result.data["columns"]
        return {
            "load": cols["load"],
            "model": cols["model"],
            "simulation": cols["simulation"],
            "sim_events": result.data["sim_events"],
        }

    def check(self, outputs: list, full: bool) -> "list[list[str]]":
        from repro import AnalyticalModel
        from repro.simulation import (
            MeasurementWindow,
            MessageLevelWormholeSimulator,
            make_streams,
            trajectory_digest,
        )

        first = self._essence(outputs[0])
        failures: list = [[] for _ in outputs]
        if not self.kernel_available:
            failures[0].append("compiled event kernel unavailable: array engine would fall back")
        if len(first["load"]) != 5 or not _finite(first["model"] + first["simulation"]):
            failures[0].append("validate curve is not 5 finite points")
        for i, out in enumerate(outputs[1:], 1):
            if digest_of(self._essence(out)) != digest_of(first):
                failures[i].append("warm validate differs from the cold one")
        if not full:
            return failures
        spec = self.exp.spec
        scalar = AnalyticalModel(spec.system, spec.message, spec.options, spec.pattern)
        if [scalar.evaluate(lam).latency for lam in first["load"]] != first["model"]:
            failures[0].append("model latencies differ from the scalar AnalyticalModel")
        digests = []
        for engine in ("reference", "array"):
            sim = MessageLevelWormholeSimulator(
                self.exp.session().fabric,
                MeasurementWindow.scaled_paper(2_000),
                first["load"][0],
                make_streams(self.sim_seed),
                spec.pattern,
                engine=engine,
            )
            sim.run()
            digests.append(trajectory_digest(sim.trajectory()))
        if digests[0] != digests[1]:
            failures[0].append("reference and array trajectories differ")
        return failures

    def digest(self, outputs: list) -> str:
        return digest_of(self._essence(outputs[0]))


class Explore544(Workload):
    name = "explore-544"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        # 25 bandwidths in [240, 1010]: each grid step of 31.25 jittered by
        # at most +-10, so values stay distinct and ordered.
        self.bandwidths = tuple(
            round(250.0 + 31.25 * i + rng.uniform(-10.0, 10.0), 2) for i in range(25)
        )

    def setup(self) -> None:
        from repro.scenarios import AxisSpec, DesignGrid, get_scenario

        self.grid = DesignGrid(
            base=get_scenario("544"),
            axes=(
                AxisSpec("system.icn2.bandwidth", self.bandwidths),
                AxisSpec("message.length_flits", (16, 24, 32, 48)),
                AxisSpec("message.flit_bytes", (64.0, 128.0, 256.0, 512.0, 1024.0)),
            ),
        )

    def fresh(self) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="explore-cache-")

    def calls(self, warm: int):
        import repro.experiments as experiments

        def run():
            return experiments.explore_grid(self.grid, cache=self.cache_dir)

        yield "cold", run
        for _ in range(warm):
            yield "warm", run

    def check(self, outputs: list, full: bool) -> "list[list[str]]":
        failures: list = [[] for _ in outputs]
        cold = outputs[0].data
        cols = cold["columns"]
        if cold["stacked"] is not True:
            failures[0].append("serial explore fell back from the stacked engine to per-cell")
        if cold["evaluated"] != 500 or cold["cache_hits"] != 0 or len(cols["cell"]) != 500:
            failures[0].append(
                f"cold call: {len(cols['cell'])} rows, evaluated={cold['evaluated']}, "
                f"hits={cold['cache_hits']} (want 500/500/0)"
            )
        if cold["partial"] or cold["errors"]:
            failures[0].append("cold call is partial")
        for name in ("saturation_load", "zero_load_latency", "knee_load"):
            if not _finite(cols[name]):
                failures[0].append(f"non-finite {name} rows")
        want = digest_of(cols)
        for i, out in enumerate(outputs[1:], 1):
            data = out.data
            if data["evaluated"] != 0 or data["cache_hits"] != 500:
                failures[i].append(
                    f"replay evaluated {data['evaluated']} cells with {data['cache_hits']} hits"
                )
            if digest_of(data["columns"]) != want:
                failures[i].append("replay table differs from the cold table")
        if full:
            failures[0].extend(self._per_cell_mismatches(cols))
        return failures

    def _per_cell_mismatches(self, cols: dict) -> "list[str]":
        from repro import BatchedModel
        from repro.core.batch import refine_monotone_crossing

        import numpy as np

        out = []
        cells = self.grid.cells()
        for k in CHECK_CELLS:
            spec = cells[k].spec
            engine = BatchedModel(spec.system, spec.message, spec.options, spec.pattern)
            lam = engine.saturation_load()
            zero = engine.zero_load_latency()
            threshold = KNEE_FACTOR * zero

            def beyond(grid: np.ndarray) -> np.ndarray:
                lat = engine.evaluate_many(grid, with_results=False).latencies
                return ~(np.isfinite(lat) & (lat < threshold))

            knee, _ = refine_monotone_crossing(0.0, lam * (1.0 - 1e-9), beyond, rel_tol=1e-6)
            want = (lam, engine.binding_resource(), zero, knee)
            got = tuple(
                cols[c][k]
                for c in ("saturation_load", "binding_resource", "zero_load_latency", "knee_load")
            )
            if want != got:
                out.append(f"cell {k} differs from a per-cell BatchedModel: {got} != {want}")
        return out

    def digest(self, outputs: list) -> str:
        return digest_of(outputs[0].data["columns"])

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class CalibrateJobs2(Workload):
    name = "calibrate-jobs2"
    scenarios = ("544", "het8-split")

    def __init__(self, seed: int) -> None:
        self.sim_seed = random.Random(seed).randrange(1, 1_000_000)

    def _call(self, jobs):
        import repro.experiments.calibrate as calibrate

        return calibrate.calibrate_options(
            list(self.scenarios), messages=10_000, jobs=jobs, seed=self.sim_seed
        )

    def calls(self, warm: int):
        # Every call forks a fresh pool, so workers resolve paths cold each
        # time; a warm call saves only the parent's one-time costs.
        yield "cold", lambda: self._call(2)
        for _ in range(warm):
            yield "warm", lambda: self._call(2)

    @staticmethod
    def _essence(result) -> dict:
        data = result.data
        return {
            "ranking": data["ranking"],
            "score": data["columns"]["score"],
            "sim_latencies": [s["sim_latencies"] for s in data["scenarios"]],
        }

    def check(self, outputs: list, full: bool) -> "list[list[str]]":
        failures: list = [[] for _ in outputs]
        if full:
            # One serial calibration per run: the parallel ranking must equal
            # it (and the scores too: tables are bit-identical for any jobs).
            serial = self._essence(self._call(None))
            got = self._essence(outputs[0])
            if got["ranking"] != serial["ranking"]:
                failures[0].append("ranking differs from the serial calibration")
            elif digest_of(got) != digest_of(serial):
                failures[0].append("scores differ from the serial calibration")
        for i, out in enumerate(outputs):
            data = out.data
            if data["partial"] or data["errors"]:
                failures[i].append("calibration is partial")
            if data["simulated_points"] != 8 or len(data["combinations"]) != 96:
                failures[i].append(
                    f"{data['simulated_points']} simulated points and "
                    f"{len(data['combinations'])} combinations (want 8 and 96)"
                )
            if not all(_finite(s["sim_latencies"]) for s in data["scenarios"]):
                failures[i].append("non-finite simulated latencies")
            if i and self.digest([out]) != self.digest(outputs):
                failures[i].append("warm calibration differs from the cold one")
        return failures

    def digest(self, outputs: list) -> str:
        return digest_of(self._essence(outputs[0]))


WORKLOADS = {cls.name: cls for cls in (Validate544, Explore544, CalibrateJobs2)}
