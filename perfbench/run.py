"""End-to-end trace-replay benchmark of the DHL fleet, with per-layer attribution.

Run from the root of a checkout::

    python3 perfbench/run.py --workload day-served --seed 0 --seconds 30 --trace 0

One run synthesises and encodes the workload's traces from ``--seed``
(set-up), then replays them into the fleet in turn for ``--seconds``
seconds, checking every replay.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced replays of the
first trace and reports the per-layer table.  Every metric is printed with
its unit, then the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any check fails.

Workloads, metrics and the layer map are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import json
import multiprocessing.resource_tracker
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
#: Encoded traces live here for the length of a run.
TRACE_DIR = HERE / ".traces"

#: Imports timed in a fresh interpreter as part of set-up.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.traffic, repro.fleet.shard; "
    "print(time.perf_counter() - t)"
)
IMPORT_REPEATS = 3

#: End-to-end metrics: name -> (unit, better).  ``sim_*`` are virtual-time
#: outputs of the simulation, deterministic for a seed; the rest are host.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_served_frac": ("ratio", "higher"),
    "sim_miss_rate": ("ratio", "lower"),
    "sim_p50_s": ("sim_s", "lower"),
    "sim_p99_s.search": ("sim_s", "lower"),
    "sim_p99_s.analytics": ("sim_s", "lower"),
    "sim_p99_s.backup": ("sim_s", "lower"),
    "sim_goodput_gbps": ("Gbit/s", "higher"),
    "sim_launch_energy_mj": ("MJ", "lower"),
}

#: Per-layer metrics: name -> (unit, better).  ``host_*`` units are host
#: time, ``sim_s`` virtual time; counts are deterministic for a seed.
PER_LAYER = {
    "synth.records": ("count", "lower"),
    "synth.s": ("host_s", "lower"),
    "codec.records": ("count", "lower"),
    "codec.bytes": ("B", "lower"),
    "codec.encode_s": ("host_s", "lower"),
    "codec.decode_s": ("host_s", "lower"),
    "replay.s": ("host_s", "lower"),
    "replay.peak_pending": ("count", "lower"),
    "replay.max_lateness_s": ("sim_s", "lower"),
    "engine.processes": ("count", "lower"),
    "engine.timeouts": ("count", "lower"),
    "engine.events": ("count", "lower"),
    "engine.s": ("host_s", "lower"),
    "engine.ns_per_event": ("host_ns", "lower"),
    "dhlsim.opens": ("count", "lower"),
    "dhlsim.reads": ("count", "lower"),
    "dhlsim.closes": ("count", "lower"),
    "dhlsim.launches": ("count", "lower"),
    "dhlsim.resumes": ("count", "lower"),
    "dhlsim.s": ("host_s", "lower"),
    "dispatch.submits": ("count", "lower"),
    "dispatch.admitted": ("count", "higher"),
    "dispatch.shed": ("count", "lower"),
    "dispatch.submit_s": ("host_s", "lower"),
    "dispatch.picks": ("count", "lower"),
    "dispatch.pick_s": ("host_s", "lower"),
    "dispatch.proc_s": ("host_s", "lower"),
    "dispatch.mean_depth_at_pick": ("jobs", "lower"),
    "dispatch.wait_p50_s": ("sim_s", "lower"),
    "dispatch.wait_p99_s": ("sim_s", "lower"),
    "cache.lookups": ("count", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.evictions": ("count", "lower"),
    "cache.hit_rate": ("ratio", "higher"),
    "cache.s": ("host_s", "lower"),
    "sla.observes": ("count", "lower"),
    "sla.s": ("host_s", "lower"),
    "sla.ns_per_observe": ("host_ns", "lower"),
    "sla.report_s": ("host_s", "lower"),
    "sla.p99_s": ("sim_s", "lower"),
    "shard.epochs": ("count", "lower"),
    "shard.forwarded": ("count", "lower"),
    "shard.notes": ("count", "lower"),
    "shard.round_trips": ("count", "lower"),
    "shard.bytes": ("B", "lower"),
    "shard.s": ("host_s", "lower"),
    "shard.wait_s": ("host_s", "lower"),
    "shard.spawn_s": ("host_s", "lower"),
    "shard.merge_s": ("host_s", "lower"),
    "unattributed_s": ("host_s", "lower"),
    "trace.jobs_per_s": ("1/s", "higher"),
    "trace.untraced_jobs_per_s": ("1/s", "higher"),
    "trace.slowdown": ("x", "lower"),
}

#: Per-layer metrics that are host times: reported as medians over the
#: traced replays.  Every other per-layer metric must repeat exactly.
HOST_LAYER_METRICS = frozenset(
    name for name, (unit, _better) in PER_LAYER.items()
    if unit.startswith("host_")
) | {"trace.jobs_per_s", "trace.untraced_jobs_per_s", "trace.slowdown"}

#: On the sharded workload these layers run inside the pod workers,
#: out of the parent's reach; they are attributed from a serial-executor
#: replay of the same plan, whose digest must equal the process replay's.
#: Intake lateness is measured where pods inject their jobs, so it too
#: comes from the serial replay.
IN_POD_PREFIXES = ("engine.", "dhlsim.", "dispatch.", "cache.", "sla.s", "sla.observes",
                   "sla.ns_per_observe", "replay.max_lateness_s")


def _load_program():
    """Put this checkout's ``src`` first on the path and import the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC.relative_to(ROOT)}/repro")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: imported repro from {origin}, not this checkout")
    import probes
    import workloads

    return workloads, probes


def _import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; do not pick up an enclosing repository
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(workloads, traces, trace: int) -> dict:
    import numpy

    return {
        "schema": workloads.SCHEMA,
        "workload": traces[0].workload.name,
        "seed": traces[0].seed,
        "trace": trace,
        "config_sha256": [inputs.config_sha256 for inputs in traces],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": _git_rev(),
    }


def expected_digests(traces, failures: list[str]) -> list[str | None]:
    """The recorded digest of each trace for this workload and seed, if recorded.

    A record made for another config is a failure, not a pass.
    """
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        recorded = json.load(handle)
    first = traces[0]
    entry = recorded["workloads"].get(first.workload.name, {}).get(str(first.seed))
    if entry is None:
        return [None] * len(traces)
    digests: list[str | None] = []
    for inputs, record in zip(traces, entry["traces"]):
        if record["config_sha256"] != inputs.config_sha256:
            failures.append(
                f"expected.json was recorded for config {record['config_sha256']}, "
                f"trace {inputs.trace} of this run has config {inputs.config_sha256}"
            )
            digests.append(None)
        else:
            digests.append(record["digest"])
    return digests


@contextlib.contextmanager
def trace_file(workload_name: str, seed: int, trace: int, tag: str = ""):
    """A fresh trace path inside the checkout, removed when the block ends."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload_name}-{seed}-{trace}-{os.getpid()}{tag}.dht"
    try:
        yield path
    finally:
        path.unlink(missing_ok=True)


def _replay_checked(workloads, inputs, digest, failures, **kwargs):
    run = workloads.replay(inputs, **kwargs)
    failures.extend(workloads.check(inputs, run, digest))
    return run


def _setup(workloads, workload, seed, paths):
    """Build every trace; set-up time is the median import time plus all builds."""
    imports = statistics.median(_import_seconds() for _ in range(IMPORT_REPEATS))
    started = time.perf_counter()
    traces = [workloads.prepare(workload, seed, trace, path)
              for trace, path in enumerate(paths)]
    return traces, imports + time.perf_counter() - started


def _until(deadline: float, durations: list[float], minimum: int) -> bool:
    """Whether to start another replay: below the minimum, or time for one more."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() + durations[-1] < deadline


def measure_end_to_end(workloads, probes, traces, setup_s, seconds, digests, failures):
    """Replay the traces in turn, each at least once, for ``seconds``."""
    runs = []
    walls: list[float] = []
    worker_peaks: list[float] = []
    deadline = time.perf_counter() + seconds
    with probes.worker_memory(worker_peaks):
        while _until(deadline, walls, minimum=len(traces)):
            index = len(runs) % len(traces)
            runs.append(_replay_checked(workloads, traces[index], digests[index], failures))
            walls.append(runs[-1].wall_s)
    for inputs in traces:
        seen = {run.digest for run in runs if run.trace == inputs.trace}
        if len(seen) != 1:
            failures.append(f"replays of trace {inputs.trace} disagree: {sorted(seen)}")
    parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": statistics.median(run.result.n_records / run.wall_s for run in runs),
        "peak_rss_mb": parent_mb + max(worker_peaks, default=0.0),
    }
    metrics.update(workloads.sim_metrics([run.fleet for run in runs[:len(traces)]]))
    return runs, metrics


def _traced_replay(workloads, probes, inputs, engine):
    clock = probes.LayerClock()
    with probes.install(clock):
        run = workloads.replay(inputs, engine=engine, span_iter=clock.iterate)
    return run, probes.layer_metrics(clock, run.wall_s)


def _report_metrics(inputs, run, setup_clock) -> dict[str, float]:
    """Per-layer counts read off the reports and the traced set-up."""
    fleet = run.fleet
    shard = run.shard
    lookups = fleet.cache_hits + fleet.cache_misses
    return {
        "synth.records": inputs.n_records,
        "synth.s": setup_clock.self_s["synth"],
        "codec.bytes": inputs.trace_path.stat().st_size,
        "codec.encode_s": setup_clock.self_s["codec.encode"],
        "replay.peak_pending": run.result.peak_pending,
        "dhlsim.launches": fleet.launches,
        "dispatch.admitted": fleet.n_jobs - fleet.shed - fleet.failovers,
        "dispatch.shed": fleet.shed,
        "cache.hits": fleet.cache_hits,
        "cache.misses": fleet.cache_misses,
        "cache.evictions": fleet.cache_evictions,
        "cache.hit_rate": fleet.cache_hits / lookups if lookups else 0.0,
        "sla.p99_s": fleet.p99_s,
        "shard.epochs": shard.epochs if shard is not None else 0,
        "shard.forwarded": shard.forwarded if shard is not None else 0,
        "shard.notes": sum(shard.remote_outcomes.values()) if shard is not None else 0,
    }


def measure_layers(workloads, probes, inputs, seconds, digest, failures):
    setup_clock = probes.LayerClock()
    with trace_file(inputs.workload.name, inputs.seed, inputs.trace, ".traced") as path:
        workloads.prepare(
            inputs.workload, inputs.seed, inputs.trace, path,
            span_iter=setup_clock.iterate, span_call=setup_clock.call,
        )
        if not filecmp.cmp(path, inputs.trace_path, shallow=False):
            failures.append("traced set-up encoded a different trace")
    runs = []
    samples: list[dict[str, float]] = []
    untraced_walls: list[float] = []
    deadline = time.perf_counter() + seconds
    cycle_s: list[float] = []
    while _until(deadline, cycle_s, minimum=1):
        started = time.perf_counter()
        untraced = _replay_checked(workloads, inputs, digest, failures)
        untraced_walls.append(untraced.wall_s)
        run, layers = _traced_replay(workloads, probes, inputs, "process")
        failures.extend(workloads.check(inputs, run, digest))
        runs += [untraced, run]
        if inputs.plan is not None:
            serial, pod_layers = _traced_replay(workloads, probes, inputs, "serial")
            failures.extend(workloads.check(inputs, serial, digest))
            runs.append(serial)
            layers.update({
                name: value for name, value in pod_layers.items()
                if name.startswith(IN_POD_PREFIXES)
            })
        layers.update(_report_metrics(inputs, run, setup_clock))
        layers["trace.jobs_per_s"] = inputs.n_records / run.wall_s
        samples.append(layers)
        cycle_s.append(time.perf_counter() - started)
    digests = {run.digest for run in runs}
    if len(digests) != 1:
        failures.append(f"traced, untraced and serial digests disagree: {sorted(digests)}")
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        if name in ("trace.untraced_jobs_per_s", "trace.slowdown"):
            continue
        values = [sample[name] for sample in samples]
        if name in HOST_LAYER_METRICS:
            metrics[name] = statistics.median(values)
        elif len(set(values)) != 1:
            failures.append(f"{name} did not repeat across traced replays: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = values[0]
    metrics["trace.untraced_jobs_per_s"] = statistics.median(
        inputs.n_records / wall for wall in untraced_walls
    )
    metrics["trace.slowdown"] = (
        metrics["trace.untraced_jobs_per_s"] / metrics["trace.jobs_per_s"]
    )
    return runs, metrics


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: int,
                  workload=None, digests_override: list[str | None] | None = None):
    """One benchmark run; returns ``(result, manifest, failures, replays)``.

    ``workload`` and ``digests_override`` let the self-test run a tiny
    copy of a workload against digests of its choosing, one per trace.
    The traced run replays only the first trace.
    """
    workloads, probes = _load_program()
    if workload is None:
        if workload_name not in workloads.WORKLOADS:
            raise SystemExit(
                f"perfbench: unknown workload {workload_name!r}; "
                f"choose from {sorted(workloads.WORKLOADS)}"
            )
        workload = workloads.WORKLOADS[workload_name]
    failures: list[str] = []
    n_traces = 1 if trace else workload.traces
    with contextlib.ExitStack() as stack:
        paths = [stack.enter_context(trace_file(workload.name, seed, index))
                 for index in range(n_traces)]
        traces, setup_s = _setup(workloads, workload, seed, paths)
        digests = (digests_override if digests_override is not None
                   else expected_digests(traces, failures))
        if trace:
            runs, metrics = measure_layers(workloads, probes, traces[0], seconds,
                                           digests[0], failures)
            table = PER_LAYER
        else:
            runs, metrics = measure_end_to_end(
                workloads, probes, traces, setup_s, seconds, digests, failures
            )
            table = END_TO_END
    attempted = sum(run.result.n_records for run in runs)
    failed = attempted if failures else sum(run.fleet.failed for run in runs)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": table[name][0]} for name in table
        },
    }
    return result, manifest(workloads, traces, trace), failures, runs


def stop_helpers() -> None:
    """Stop and reap the resource tracker that spawning shard workers starts.

    ``multiprocessing`` leaves that helper to exit on its own once this
    process has gone, so without this a run would end with a process of
    its own still alive.  Safe to call when no helper was started.
    """
    multiprocessing.resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_helpers()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, run_manifest, failures, runs = run_benchmark(
        args.workload, args.seed, args.seconds, args.trace
    )
    table = PER_LAYER if args.trace else END_TO_END
    print(f"manifest {json.dumps(run_manifest, sort_keys=True)}")
    digests = {run.trace: run.digest for run in runs}
    walls = ", ".join(f"{run.wall_s:.3f}" for run in runs)
    print(f"replays {len(runs)}, digests by trace {digests}, replay walls (host s) {walls}")
    for name, entry in result["metrics"].items():
        print(f"  {name:32s} {_format(entry['value']):>14s} {entry['unit']:8s} "
              f"({table[name][1]} is better)")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
