"""Layered benchmark of the ``repro`` package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload validate-544 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

Each run first loads the compiled event kernel (building it into
``.perfbench-work/`` when absent).  Then, within ``--seconds``, it starts
a few processes (``child.py``) that only set up, for ``setup_s``, and
one that sets up and forks one fresh process per *cycle* of the
workload: a cold call and its warm repeats.  With ``--trace 0`` it
reports the end-to-end metrics as medians over set-ups and cycles; with
``--trace 1`` it alternates traced and untraced cycles and reports
per-layer self times, work counters and the tracing overhead.  Every
cycle's outputs are checked; a failed check or a silent fallback makes
the run fail (exit 1) instead of being timed.  The last line of
standard output is one JSON object.

``--compare`` prints per-layer self-time, counter and metric deltas
between two result files written to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

#: A run must end within 180 s; children get what is left of this.
HARD_LIMIT_S = 170.0

#: Warm calls after the cold one in an untraced cycle (traced cycles make one).
WARM_REPS = {"validate-544": 2, "explore-544": 2, "calibrate-jobs2": 1}

#: Set-up-only processes per run, besides the one that measures.
EXTRA_SETUPS = 2

#: Every workload reports the same end-to-end metrics: ``cold_s`` is its
#: first call in a fresh process, ``warm_s`` the same call repeated in
#: that process.  The report names them per workload as below.
ALIASES = {
    "validate-544": ("validate_cold_s", "validate_warm_s"),
    "explore-544": ("explore_cold_s", "explore_replay_s"),
    "calibrate-jobs2": ("calibrate_s", "calibrate_warm_s"),
}

#: Per-layer metrics in report order.  Every name is reported on every
#: workload, as 0 where the workload never enters that layer.  Times are
#: self times (see ``tracing.SPANNED``), medians over the traced cycles;
#: counters must repeat exactly across the traced cycles of one seed.
PER_LAYER = (
    ("import.repro_s", "s"),
    ("import.scipy_loaded", "flag"),
    ("scenarios.grid_cells_s", "s"),
    ("core.plan_build_s", "s"),
    ("core.stacked_solve_s", "s"),
    ("core.batched_s", "s"),
    ("core.scalar_eval_s", "s"),
    ("core.cells", "count"),
    ("core.groups", "count"),
    ("simulation.session_build_s", "s"),
    ("simulation.run_cold_s", "s"),
    ("simulation.run_warm_s", "s"),
    ("simulation.first_touch_s", "s"),
    ("simulation.events", "count"),
    ("simulation.resolve_calls", "count"),
    ("simulation.kernel_available", "flag"),
    ("simulation.kernel_compiled", "flag"),
    ("io.cache_key_s", "s"),
    ("io.cache_get_s", "s"),
    ("io.cache_put_s", "s"),
    ("io.cache_hits", "count"),
    ("io.cache_misses", "count"),
    ("io.cache_bytes_written", "bytes"),
    ("exec.journal_s", "s"),
    ("exec.supervised_s", "s"),
    ("exec.items", "count"),
    ("exec.attempts", "count"),
    ("experiments.self_s", "s"),
    ("validation.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Root span of each timed call -> the phase it belongs to.
PHASE_OF_ROOT = {"bench.cold": "cold", "bench.warm": "warm"}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def median(values):
    return statistics.median(values) if values else float("nan")


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (float("nan"),) * 2
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding *path* (Linux ``/proc/mounts``)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) >= 3 and (target == parts[1] or target.startswith(parts[1].rstrip("/") + "/")):
            if len(parts[1]) >= len(best):
                best, kind = parts[1], parts[2]
    return kind


class Runner:
    """Starts the processes of one run, one at a time, in the checkout."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.t_start = time.monotonic()
        self.kernel_dir = WORK / "kernel"
        self.tmp_dir = WORK / "tmp"
        shutil.rmtree(self.tmp_dir, ignore_errors=True)  # left by a killed run
        for d in (self.kernel_dir, self.tmp_dir, OUT):
            d.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.env["REPRO_EVENTCORE_CACHE"] = str(self.kernel_dir)
        self.env["TMPDIR"] = str(self.tmp_dir)
        self.n_spawned = 0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.t_start)

    def spawn(self, role: str, **cfg) -> dict:
        self.n_spawned += 1
        out = self.tmp_dir / f"child-{os.getpid()}-{self.n_spawned}.json"
        cfg.update(role=role, workload=self.workload, seed=self.seed, out=str(out))
        timeout = self.remaining()
        if timeout <= 1:
            raise BenchError(f"no time left for the {role} process")
        cfg["t_spawn"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{role} process exceeded the run's time limit")
        finally:
            try:  # pool workers a crashed child left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-15:]
            raise BenchError(f"{role} process exited {proc.returncode}:\n" + "\n".join(tail))
        try:
            return json.loads(out.read_text())
        finally:
            out.unlink()

    def build(self) -> dict:
        before = set(self.kernel_dir.glob("*.so"))
        info = self.spawn("build")
        info["kernel_compiled"] = bool(set(self.kernel_dir.glob("*.so")) - before)
        info["nproc"] = os.cpu_count()
        info["cpus_usable"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        info["cache_fs"] = fs_type(self.tmp_dir)
        info["kernel_fs"] = fs_type(self.kernel_dir)
        return info

    def measure(self, seconds: float, trace: bool) -> "tuple[list, list]":
        """Set-up samples and cycle records of one run of *seconds*.

        :data:`EXTRA_SETUPS` set-up-only processes run first; then one
        process sets up once more and forks cycles until the *seconds*
        are used (see ``child.measure``).
        """
        deadline = time.monotonic() + seconds
        setups = [self.spawn("setup") for _ in range(EXTRA_SETUPS)]
        warm = 1 if trace else WARM_REPS[self.workload]
        record = self.spawn("measure", trace=trace, warm=warm, deadline=deadline)
        cycles = record.pop("cycles")
        return setups + [record], cycles


def _failed_ops(cycles: list) -> "tuple[int, int, list]":
    """Operations attempted and failed across cycles, with the messages.

    Every cycle must reproduce the result digest of the first, fully
    checked cycle; a cycle that does not counts as one more failure.
    """
    attempted = failed = 0
    messages = []
    for c in cycles:
        attempted += len(c["failures"])
        failed += sum(1 for fails in c["failures"] if fails)
        messages.extend(m for fails in c["failures"] for m in fails)
        if c["digest"] != cycles[0]["digest"]:
            failed += 1
            messages.append("a cycle's result digest differs from the first cycle's")
    return attempted, failed, messages


def end_to_end(workload: str, setups: list, cycles: list) -> "tuple[dict, list]":
    cold, warm = ALIASES[workload]
    metrics = {
        "setup_s": ("s", [r["setup_s"] for r in setups], ""),
        "cold_s": ("s", [c["samples"]["cold"][0] for c in cycles], cold),
        "warm_s": ("s", [s for c in cycles for s in c["samples"]["warm"]], warm),
        "peak_rss_mb": ("MB", [c["peak_rss_mb"] for c in cycles], ""),
    }
    lines = []
    for name, (unit, values, alias) in metrics.items():
        lo, hi = quartiles(values)
        lines.append(
            f"  {name:<12} {median(values):>12.6g} {unit:<5} median of n={len(values):<3}"
            f" [q1 {lo:.6g}, q3 {hi:.6g}]  {alias}"
        )
    return {name: {"value": median(v), "unit": u} for name, (u, v, _) in metrics.items()}, lines


def _cycle_wall(record: dict) -> float:
    return sum(sum(v) for v in record["samples"].values())


def _traced_cycle(record: dict, build: dict, setups: list) -> "tuple[dict, dict]":
    """Self times (plus per-layer sums) and counters of one traced cycle."""
    summary = tracing.summarize([tuple(s) for s in record["spans"]], PHASE_OF_ROOT)
    total, phases = summary["total"], summary["phases"]
    times = {f"{name}_s": total.get(name, 0.0) for name, *_ in tracing.SPANNED}
    cold = phases.get("cold", {}).get("simulation.run", 0.0)
    warm = phases.get("warm", {}).get("simulation.run", 0.0)
    times.update({
        "simulation.run_cold_s": cold,
        "simulation.run_warm_s": warm,
        "simulation.first_touch_s": cold - warm,
        "import.repro_s": median([r["import_s"] for r in setups]),
        "trace.wall_s": _cycle_wall(record),
    })
    for layer in tracing.LAYERS + ("bench",):
        times[f"layer:{layer}"] = sum(v for k, v in total.items() if tracing.layer_of(k) == layer)
    counts = dict(record["counters"])
    counts.update({
        "simulation.kernel_available": int(build["kernel_available"]),
        "simulation.kernel_compiled": int(build["kernel_compiled"]),
        "import.scipy_loaded": int(any(r["scipy_loaded"] for r in setups)),
    })
    return times, {name: int(counts.get(name, 0)) for name, unit in PER_LAYER if unit != "s"}


def per_layer(setups: list, cycles: list, build: dict) -> "tuple[dict, list, dict]":
    traced = [_traced_cycle(c, build, setups) for c in cycles if c["trace"]]
    untraced_wall = median([_cycle_wall(c) for c in cycles if not c["trace"]])
    times = {k: median([t[k] for t, _ in traced]) for k in traced[0][0]}
    times["trace.overhead_s"] = times["trace.wall_s"] - untraced_wall
    counters = [c for _, c in traced]
    messages = []
    differ = sorted(k for k in counters[0] if any(c[k] != counters[0][k] for c in counters))
    if differ:
        messages.append(f"work counters differ between traced cycles of one seed: {differ}")
    metrics = {
        name: {"value": times[name] if unit == "s" else counters[0][name], "unit": unit}
        for name, unit in PER_LAYER
    }
    wall = times["trace.wall_s"]
    lines = [
        f"  per-layer self time, median of {len(traced)} traced cycles: wall {wall:.4f} s,"
        f" untraced {untraced_wall:.4f} s, tracing overhead {times['trace.overhead_s']:+.4f} s",
        "  (parent process only: spans inside pool workers are not recorded)",
    ]
    for layer in tracing.LAYERS + ("bench",):
        sub = times["import.repro_s"] if layer == "import" else times[f"layer:{layer}"]
        share = "set-up" if layer == "import" else f"{100 * sub / wall:5.1f}%"
        lines.append(f"  {layer:<12} {sub:>10.4f} s  {share}")
        for name, unit in PER_LAYER:
            if tracing.layer_of(name) == layer:
                value = metrics[name]["value"]
                text = f"{value:>10.4f}" if unit == "s" else f"{value:>10d}"
                lines.append(f"    {name:<30} {text} {unit}")
    layers = {"import": times["import.repro_s"]}
    layers.update({layer: times[f"layer:{layer}"] for layer in tracing.LAYERS[1:] + ("bench",)})
    extra = {"cycles": [t for t, _ in traced], "layers": layers, "messages": messages}
    return metrics, lines, extra


def run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    build = runner.build()
    setups, cycles = runner.measure(args.seconds, bool(args.trace))
    attempted, failed, messages = _failed_ops(cycles)
    host = {k: build[k] for k in ("nproc", "cpus_usable", "cache_fs", "kernel_fs", "python", "numpy")}
    digest = cycles[0]["digest"]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={int(args.trace)}"
        f" set-ups={len(setups)} cycles={len(cycles)}"
    )
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"digest {args.workload} seed={args.seed} {digest}")
    extra: dict = {}
    if failed:
        metrics, lines = {}, ["  no metrics: the outputs failed their checks"]
    elif args.trace:
        metrics, lines, extra = per_layer(setups, cycles, build)
        messages.extend(extra["messages"])
        failed += len(extra["messages"])
    else:
        metrics, lines = end_to_end(args.workload, setups, cycles)
        metrics["success_ratio"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}
        lines.append(f"  {'success_ratio':<12} {1.0:>12.6g} ratio {attempted} of {attempted} operations passed")
    print("\n".join(lines))
    for m in messages:
        print(f"FAILED: {m}", file=sys.stderr)
    kind = "trace" if args.trace else "run"
    result_file = OUT / f"{kind}-{args.workload}-seed{args.seed}.json"
    result_file.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "host": host,
        "digest": digest,
        "metrics": metrics,
        "failures": messages,
        "setups": setups,
        "cycles": [
            {"trace": c["trace"], "samples": c["samples"], "peak_rss_mb": c["peak_rss_mb"]}
            for c in cycles
        ],
        "layers": extra.get("layers"),
        "layer_times": extra.get("cycles"),
        "spans": [c["spans"] for c in cycles if c["trace"]] or None,
    }))
    print(f"wrote {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _result_files(path: Path) -> dict:
    """Result files under *path* (a file or a directory) by (workload, mode)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        data = json.loads(f.read_text())
        out[(data["workload"], "trace" if data["trace"] else "run")] = (f, data)
    return out


def _delta_line(name: str, va, vb, unit: str) -> str:
    rel = f"{100 * (vb - va) / va:+7.1f}%" if va else "      -"
    fmt = "d" if isinstance(va, int) and isinstance(vb, int) else ".6g"
    return f"    {name:<30} {va:>14{fmt}} -> {vb:>14{fmt}} {unit:<6} {vb - va:+14{fmt}} {rel}"


def compare(path_a: str, path_b: str) -> int:
    """Per workload: layer self-time, per-layer metric and counter deltas."""
    a, b = _result_files(Path(path_a)), _result_files(Path(path_b))
    common = sorted(set(a) & set(b))
    if not common:
        print("perfbench: no workload appears in both result sets", file=sys.stderr)
        return 2
    for key in common:
        (fa, da), (fb, db) = a[key], b[key]
        print(f"{key[0]} ({key[1]}): {fa} (seed {da['seed']}) -> {fb} (seed {db['seed']})")
        same = "equal" if da["digest"] == db["digest"] else "differ"
        print(f"  result digests {same}")
        if da.get("layers") and db.get("layers"):
            print("  layer self time (s)")
            for layer in da["layers"]:
                print(_delta_line(layer, da["layers"][layer], db["layers"].get(layer, 0.0), "s"))
        print("  metrics")
        for name, ma in da["metrics"].items():
            mb = db["metrics"].get(name)
            if mb is not None:
                print(_delta_line(name, ma["value"], mb["value"], ma["unit"]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--compare", nargs=2, metavar=("A", "B"),
        help="two result files, or two directories of them, from .perfbench-out/",
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
