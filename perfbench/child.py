"""One process of a benchmark run.

Usage (from ``run.py``; the configuration is one JSON argument)::

    python3 perfbench/child.py '{"role": "measure", "workload": "explore-544",
        "seed": 1, "trace": false, "warm": 2, "deadline": <time.monotonic()>,
        "t_spawn": <time.monotonic()>, "out": "<record path>"}'

Roles:

* ``build`` loads (compiling if needed) the event kernel and reports
  interpreter facts;
* ``setup`` imports ``repro`` and builds the workload's inputs, and
  reports how long that took from process start;
* ``measure`` does the same set-up, then forks one process per *cycle*
  until ``deadline``.  A cycle is a fresh process holding the built
  inputs and nothing else: it times one cold call and ``warm`` repeats,
  checks their outputs outside the timed region, and sends a record back
  through a pipe.  The first cycle also makes the costly reference
  checks; every later cycle must reproduce its result digest.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

#: Minimum cycles of each kind (``True`` = traced) before the deadline
#: may end the measurement, whatever the deadline says.
MINIMUM = {False: {False: 2}, True: {True: 2, False: 1}}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def build(cfg: dict) -> dict:
    import numpy

    from repro.simulation import kernel_available

    return {
        "kernel_available": kernel_available(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def _set_up(cfg: dict):
    t0 = time.perf_counter()
    import repro  # noqa: F401  (the timed import)

    import_s = time.perf_counter() - t0
    scipy_loaded = "scipy" in sys.modules

    from workloads import WORKLOADS

    workload = WORKLOADS[cfg["workload"]](cfg["seed"])
    workload.setup()
    info = {
        "setup_s": time.monotonic() - cfg["t_spawn"],
        "import_s": import_s,
        "scipy_loaded": scipy_loaded,
    }
    return workload, info


def setup(cfg: dict) -> dict:
    return _set_up(cfg)[1]


def _cycle(workload, trace: bool, warm: int, full_check: bool) -> dict:
    """Body of one forked cycle: time the calls, check, describe them."""
    import tracing

    rec = tracing.Recorder()
    if trace:
        tracing.install(rec)
    else:
        tracing.watch_supervisor(rec)
    workload.fresh()
    samples: dict = {}
    outputs = []
    try:
        for phase, call in workload.calls(warm):
            with rec.span(f"bench.{phase}"):
                start = time.perf_counter()
                outputs.append(call())
                seconds = time.perf_counter() - start
            samples.setdefault(phase, []).append(seconds)
        rss = peak_rss_mb()
        rec.recording = False
        failures = workload.check(outputs, full_check)
        failures[0].extend(tracing.supervisor_failures(rec.counters))
        digest = workload.digest(outputs)
    finally:
        workload.close()
    record = {
        "trace": trace,
        "samples": samples,
        "peak_rss_mb": rss,
        "failures": failures,
        "digest": digest,
        "counters": dict(rec.counters),
    }
    if trace:
        record["spans"] = rec.spans
    return record


def _fork_cycle(workload, trace: bool, warm: int, full_check: bool) -> dict:
    """Run :func:`_cycle` in a forked process and return its record."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # the cycle process: never returns
        os.close(read_fd)
        code = 0
        try:
            payload = {"record": _cycle(workload, trace, warm, full_check)}
        except BaseException:
            payload = {"error": traceback.format_exc()}
            code = 1
        try:
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(payload, pipe)
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    payload = json.loads(text) if text else {}
    if "record" not in payload or os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(
            f"cycle process exited {os.waitstatus_to_exitcode(status)}:\n"
            + payload.get("error", "(no output)")
        )
    return payload["record"]


def measure(cfg: dict) -> dict:
    """Cycles of the workload until the deadline; see the module docstring.

    A cycle starts only if it should end by the deadline ("should" takes
    the slowest cycle so far) or while :data:`MINIMUM` is not yet met.
    """
    workload, info = _set_up(cfg)
    kinds = (True, False) if cfg["trace"] else (False,)
    minimum = MINIMUM[cfg["trace"]]
    cycles: list = []
    expected = 0.0
    while True:
        short = any(sum(c["trace"] == t for c in cycles) < n for t, n in minimum.items())
        if cycles and not short and time.monotonic() + expected > cfg["deadline"]:
            break
        trace = kinds[len(cycles) % len(kinds)]
        start = time.monotonic()
        record = _fork_cycle(workload, trace, cfg["warm"], full_check=not cycles)
        cycles.append(record)
        if any(record["failures"]) or record["digest"] != cycles[0]["digest"]:
            break  # a failed cycle is reported, not timed further
        timed = sum(sum(v) for v in record["samples"].values())
        # The first cycle's wall includes its reference checks.
        expected = max(expected, timed if len(cycles) == 1 else time.monotonic() - start)
    info["cycles"] = cycles
    return info


def main() -> None:
    cfg = json.loads(sys.argv[1])
    record = {"build": build, "setup": setup, "measure": measure}[cfg["role"]](cfg)
    Path(cfg["out"]).write_text(json.dumps(record))


if __name__ == "__main__":
    main()
