"""Per-layer host-time attribution from outside the program.

The traced run wraps the public entry points of each layer — and the
DES processes each layer spawns — in spans, and charges every span its
*self* time: its duration minus the spans of other layers nested in
it.  Spans are aggregated as they close (a sum and a count per name),
so tracing holds no per-event state.  Nothing under ``src/`` changes;
:func:`install` patches classes and modules for the duration of a
``with`` block and restores them on exit.

Process resumes are attributed by where the generator's code lives:
``repro/dhlsim`` to ``dhlsim``, the control plane to ``dispatch.proc``
and the cache to ``cache``.  Anything else the engine runs (its own
resource callbacks, the heap) stays in the ``engine`` span's self time.
"""

from __future__ import annotations

import contextlib
import multiprocessing.connection
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

import repro.fleet.shard as shard_module
import repro.traffic.replay as replay_module
from repro.core.percentiles import percentile
from repro.dhlsim.api import DhlApi
from repro.fleet.cache import RackCache
from repro.fleet.controlplane import ControlHooks, ControlPlane
from repro.fleet.sla import SlaTracker
from repro.sim.engine import Environment

_perf = time.perf_counter

#: Generator code locations and the layer their resumes are charged to.
_PROCESS_LAYERS = (
    ("/repro/dhlsim/", "dhlsim"),
    ("/repro/fleet/controlplane.py", "dispatch.proc"),
    ("/repro/fleet/cache.py", "cache"),
)

#: ``RackCache`` methods charged to the cache; ``lookup`` is also counted.
_CACHE_METHODS = (
    "record_hit", "record_miss", "begin_fetch", "finish_fetch", "fail_fetch",
    "acquire", "release", "evict", "rehome", "evictable", "idle_entries",
)


class LayerClock:
    """Self time and call count per span name, plus work counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.waits_s: list[float] = []
        self.max_lateness_s = 0.0
        self.envs: dict[int, Environment] = {}
        self._stack: list[list[float]] = []

    def call(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span named ``name``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _perf() - start
                stack.pop()
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration

        return span

    def iterate(self, name: str, iterable: Iterable) -> Iterator:
        """``iterable`` with every ``next`` in a span named ``name``."""
        step = self.call(name, iter(iterable).__next__)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item


class _TimedGenerator:
    """Stands in for a process generator; every resume is one span."""

    __slots__ = ("send", "throw", "close")

    def __init__(self, clock: LayerClock, name: str, generator) -> None:
        self.send = clock.call(name, generator.send)
        self.throw = clock.call(name, generator.throw)
        self.close = generator.close


def _layer_of(generator) -> str | None:
    code = getattr(generator, "gi_code", None)
    filename = code.co_filename.replace("\\", "/") if code is not None else ""
    for fragment, layer in _PROCESS_LAYERS:
        if fragment in filename:
            return layer
    return None


@contextlib.contextmanager
def _patched(targets: list[tuple[Any, str, Any]]):
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in targets]
    try:
        for owner, name, value in targets:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def _worker_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@contextlib.contextmanager
def worker_memory(peaks: list[float]):
    """Record the summed peak RSS (MB) of each process executor's workers.

    Read from ``/proc`` just before the executor stops its workers, so
    it runs on every replay, traced or not, at the cost of one file read
    per worker.
    """
    executor = shard_module._ProcessExecutor
    close = executor.__dict__["close"]

    def close_and_measure(self):
        peaks.append(sum(_worker_hwm_mb(proc.pid) for proc in self.procs))
        return close(self)

    with _patched([(executor, "close", close_and_measure)]):
        yield


@contextlib.contextmanager
def install(clock: LayerClock):
    """Patch every layer's entry points to report into ``clock``."""
    env_run = Environment.__dict__["run"]
    env_process = Environment.__dict__["process"]
    env_timeout = Environment.__dict__["timeout"]
    counts = clock.counts
    envs = clock.envs
    timed_run = clock.call("engine", env_run)

    def run(self, until=None):
        envs[id(self)] = self
        return timed_run(self, until)

    def process(self, generator):
        counts["engine.processes"] += 1
        layer = _layer_of(generator)
        if layer is not None:
            generator = _TimedGenerator(clock, layer, generator)
        return env_process(self, generator)

    def timeout(self, delay, value=None):
        counts["engine.timeouts"] += 1
        return env_timeout(self, delay, value)

    def counted(name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    submit = clock.call("dispatch.submit", ControlPlane.__dict__["submit"])

    def timed_submit(self, fjob):
        # A monolithic plane submits each arrival from its own intake
        # process, due at the arrival time.  Pod planes (they carry an
        # outcome hook) are fed through ``inject`` instead.
        lateness = self.env.now - fjob.job.arrival_s
        if lateness > clock.max_lateness_s and self.outcome_hook is None:
            clock.max_lateness_s = lateness
        return submit(self, fjob)

    inject = ControlPlane.__dict__["inject"]

    def timed_inject(self, fjob, at):
        # Sharded intake: a job handed over after its delivery time
        # would be late; forwarded jobs are due ``interpod_latency_s``
        # after arrival, which is the model, not generator lateness.
        lateness = self.env.now - at
        if lateness > clock.max_lateness_s:
            clock.max_lateness_s = lateness
        return inject(self, fjob, at)

    pick = clock.call("dispatch.pick", ControlHooks.__dict__["pick_dispatch"])

    def timed_pick(self, lane, pending):
        counts["dispatch.depth_at_pick"] += len(pending)
        chosen = pick(self, lane, pending)
        clock.waits_s.append(self.plane.env.now - chosen.job.arrival_s)
        return chosen

    bound_jobs = replay_module.bound_jobs

    def timed_bound_jobs(*args, **kwargs):
        return clock.iterate("replay", bound_jobs(*args, **kwargs))

    connection = multiprocessing.connection.Connection
    send_bytes = connection.__dict__["_send_bytes"]
    recv_bytes = connection.__dict__["_recv_bytes"]

    def counted_send_bytes(self, buf):
        counts["shard.bytes"] += len(buf)
        return send_bytes(self, buf)

    def counted_recv_bytes(self, maxsize=None):
        buffer = recv_bytes(self, maxsize)
        counts["shard.bytes"] += buffer.getbuffer().nbytes
        return buffer

    executor = shard_module._ProcessExecutor
    receive = executor.__dict__["_receive"].__func__
    targets: list[tuple[Any, str, Any]] = [
        (Environment, "run", run),
        (Environment, "process", process),
        (Environment, "timeout", timeout),
        (DhlApi, "open", counted("dhlsim.opens", DhlApi.__dict__["open"])),
        (DhlApi, "read", counted("dhlsim.reads", DhlApi.__dict__["read"])),
        (DhlApi, "close", counted("dhlsim.closes", DhlApi.__dict__["close"])),
        (ControlPlane, "submit", timed_submit),
        (ControlPlane, "inject", timed_inject),
        (ControlHooks, "pick_dispatch", timed_pick),
        (RackCache, "lookup", counted(
            "cache.lookups", clock.call("cache", RackCache.__dict__["lookup"]))),
        (SlaTracker, "observe", clock.call("sla.observe", SlaTracker.__dict__["observe"])),
        (SlaTracker, "report", clock.call("sla.report", SlaTracker.__dict__["report"])),
        (SlaTracker, "tenant_report",
         clock.call("sla.report", SlaTracker.__dict__["tenant_report"])),
        (replay_module, "bound_jobs", timed_bound_jobs),
        (shard_module, "run_sharded", clock.call("shard", shard_module.run_sharded)),
        (shard_module, "_merge_states", clock.call("shard.merge", shard_module._merge_states)),
        (shard_module, "merge_sla_states",
         clock.call("sla.report", shard_module.merge_sla_states)),
        (shard_module, "report_from_state",
         clock.call("sla.report", shard_module.report_from_state)),
        (shard_module, "tenant_report_from_state",
         clock.call("sla.report", shard_module.tenant_report_from_state)),
        (executor, "__init__", clock.call("shard.spawn", executor.__dict__["__init__"])),
        (executor, "_receive", staticmethod(clock.call("shard.wait", receive))),
        (connection, "_send_bytes", counted_send_bytes),
        (connection, "_recv_bytes", counted_recv_bytes),
    ]
    targets += [
        (RackCache, name, clock.call("cache", RackCache.__dict__[name]))
        for name in _CACHE_METHODS
    ]
    with _patched(targets):
        yield clock


#: The span whose self time each replay-phase layer time reports.
#: (Set-up's ``synth`` and ``codec.encode`` spans are read by the caller.)
REPLAY_SPANS = {
    "codec.decode_s": "codec.decode",
    "replay.s": "replay",
    "engine.s": "engine",
    "dhlsim.s": "dhlsim",
    "dispatch.submit_s": "dispatch.submit",
    "dispatch.pick_s": "dispatch.pick",
    "dispatch.proc_s": "dispatch.proc",
    "cache.s": "cache",
    "sla.s": "sla.observe",
    "sla.report_s": "sla.report",
    "shard.s": "shard",
    "shard.wait_s": "shard.wait",
    "shard.spawn_s": "shard.spawn",
    "shard.merge_s": "shard.merge",
}


def layer_metrics(clock: LayerClock, wall_s: float) -> dict[str, float]:
    """Per-layer times and counts of one traced replay call."""
    metrics = {name: clock.self_s[span] for name, span in REPLAY_SPANS.items()}
    metrics["unattributed_s"] = wall_s - sum(metrics.values())
    counts = clock.counts
    events = sum(env._eid for env in clock.envs.values())
    metrics["engine.processes"] = counts["engine.processes"]
    metrics["engine.timeouts"] = counts["engine.timeouts"]
    metrics["engine.events"] = events
    metrics["engine.ns_per_event"] = (
        metrics["engine.s"] / events * 1e9 if events else 0.0
    )
    metrics["codec.records"] = clock.calls["codec.decode"] - 1  # the final StopIteration
    for name in ("dhlsim.opens", "dhlsim.reads", "dhlsim.closes"):
        metrics[name] = counts[name]
    metrics["dhlsim.resumes"] = clock.calls["dhlsim"]
    metrics["dispatch.submits"] = clock.calls["dispatch.submit"]
    picks = clock.calls["dispatch.pick"]
    metrics["dispatch.picks"] = picks
    metrics["dispatch.mean_depth_at_pick"] = (
        counts["dispatch.depth_at_pick"] / picks if picks else 0.0
    )
    waits = sorted(clock.waits_s)
    metrics["dispatch.wait_p50_s"] = percentile(waits, 50.0) if waits else 0.0
    metrics["dispatch.wait_p99_s"] = percentile(waits, 99.0) if waits else 0.0
    metrics["cache.lookups"] = counts["cache.lookups"]
    observes = clock.calls["sla.observe"]
    metrics["sla.observes"] = observes
    metrics["sla.ns_per_observe"] = (
        metrics["sla.s"] / observes * 1e9 if observes else 0.0
    )
    metrics["shard.round_trips"] = clock.calls["shard.wait"]
    metrics["shard.bytes"] = counts["shard.bytes"]
    metrics["replay.max_lateness_s"] = max(clock.max_lateness_s, 0.0)
    return metrics
