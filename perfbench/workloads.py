"""Workload definitions for the end-to-end trace-replay benchmark.

A workload is one trace shape, one fleet and one replay path.  All
three share the trace shape of :func:`repro.traffic.default_spec`
(three diurnal tenants plus one flash crowd per period) and the same
fleet: 20 tracks, 60 carts, 2 stations per rack, a 120-dataset catalog
with 20 hot datasets, EDF dispatch, LRU rack caches and shedding past
queue depth 64.  Arrivals are open-loop in virtual time.

A run's trace is ``periods`` periods of ``active_s`` seconds of demand,
each synthesised from its own seed drawn from the run's ``--seed`` and
starting ``period_s`` after the previous one.  Days follow each other
directly; overload hours are spaced three hours apart so each starts
with drained queues, as a single overload hour does.

A run replays ``traces`` such traces, each from its own sub-seeds and
each into a fresh fleet, and reports the mean of their ``sim_*``
metrics.  The per-tenant tails follow the seed's congestion episodes,
so they need many periods to repeat across seeds; independent traces
give them, and each trace costs one replay of its own length where a
longer single trace would be replayed whole on every timing replay.

Everything here calls the program only through its public API.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.fleet.cache import CacheConfig
from repro.fleet.controlplane import AdmissionControl, FleetReport, FleetScenario
from repro.fleet.shard import ShardPlan, ShardReport, signature_digest
from repro.fleet.topology import DatasetCatalog, FleetSpec
from repro.traffic import (
    DAY_S,
    BinaryTraceWriter,
    ReplayConfig,
    ReplayResult,
    TraceRecord,
    default_spec,
    expected_records,
    read_binary_header,
    read_binary_records,
    replay_fleet,
    replay_fleet_sharded,
    synthesise,
    trace_header,
)

SCHEMA = "perfbench/2"

DEFAULT_SEED = 0
#: Never used while sizing the workloads; recorded so a later claim
#: can be re-checked on a seed nobody tuned against.
HELD_OUT_SEED = 7919

TENANTS = ("search", "analytics", "backup")

N_TRACKS = 20
CART_POOL = 60
STATIONS_PER_RACK = 2
QUEUE_DEPTH = 64
CATALOG = DatasetCatalog(n_datasets=120, hot_count=20)
REPLAY_CONFIG = ReplayConfig(max_pending=2048, lookahead_s=120.0, chunk_records=256)
N_PODS = 2
INTERPOD_LATENCY_S = 60.0
SHARD_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: trace size, replay path and regime."""

    name: str
    active_s: float
    """Seconds of demand per period: one ``default_spec`` horizon."""
    period_s: float
    """Spacing of the periods; the fleet idles after ``active_s``."""
    periods: int
    requests_per_period: int
    sharded: bool
    traces: int = 1
    """Independent traces per run; the ``sim_*`` metrics are their mean."""
    min_served_frac: float = 0.0
    """Regime guard: a serving workload must serve at least this share."""
    min_shed_frac: float = 0.0
    """Regime guard: an overload workload must shed at least this share."""
    min_tenant_completions: int = 0
    """Each tenant needs this many completions, so that at least ten
    samples lie beyond its p99."""


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("day-served", DAY_S, DAY_S, 4, 25_000, sharded=False, traces=4,
                 min_served_frac=0.95, min_tenant_completions=1000),
        Workload("day-sharded", DAY_S, DAY_S, 4, 25_000, sharded=True, traces=4,
                 min_served_frac=0.95, min_tenant_completions=1000),
        Workload("hour-overload", 3600.0, 3 * 3600.0, 8, 60_000, sharded=False,
                 traces=3, min_shed_frac=0.8, min_tenant_completions=1000),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything set-up produces: the encoded trace and the fleet to run."""

    workload: Workload
    seed: int
    trace: int
    """Which of the run's ``workload.traces`` traces this is."""
    trace_path: Path
    """The encoded binary trace on disk; replays stream it back."""
    n_records: int
    scenario: FleetScenario
    plan: ShardPlan | None
    config_sha256: str


def _canonical(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def config_sha256(workload: Workload, specs, scenario, plan) -> str:
    """SHA-256 of the canonical JSON of trace specs, scenario and plan."""
    payload = {
        "schema": SCHEMA,
        "workload": _canonical(workload),
        "trace_specs": _canonical(list(specs)),
        "scenario": _canonical(scenario),
        "plan": None if plan is None else {
            "n_pods": plan.n_pods,
            "interpod_latency_s": plan.interpod_latency_s,
        },
        "replay": _canonical(REPLAY_CONFIG),
    }
    rendered = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def period_specs(workload: Workload, seed: int, trace: int = 0):
    """One ``default_spec`` per period of ``trace``, each with its own derived seed."""
    periods = workload.periods
    seeds = np.random.SeedSequence(seed).generate_state(periods * workload.traces)
    specs = []
    for sub_seed in (int(value) for value in seeds[trace * periods:(trace + 1) * periods]):
        base = default_spec(seed=sub_seed, horizon_s=workload.active_s,
                            catalog=CATALOG)
        specs.append(default_spec(
            seed=sub_seed,
            horizon_s=workload.active_s,
            rate_scale=workload.requests_per_period / expected_records(base),
            catalog=CATALOG,
        ))
    return specs


def _identity(_name: str, iterable):
    return iterable


def prepare(workload: Workload, seed: int, trace: int, trace_path: Path,
            span_iter: Callable[[str, Iterable], Iterable] = _identity,
            span_call: Callable[[str, Callable], Callable] | None = None) -> Inputs:
    """Set-up of one trace: synthesise and encode it, build scenario and plan.

    The trace is streamed to ``trace_path``, as a recorded trace would
    sit on disk, so neither set-up nor replay holds it in memory and
    ``peak_rss_mb`` measures the program's working set.
    ``span_iter``/``span_call`` let the traced run time the synthesis
    iteration and the encoder calls; the untraced run passes neither.
    """
    specs = period_specs(workload, seed, trace)
    horizon_s = workload.period_s * workload.periods
    header = dataclasses.replace(trace_header(specs[0]), seed=seed,
                                 horizon_s=horizon_s)
    with open(trace_path, "wb") as handle:
        writer = BinaryTraceWriter(handle, header)
        write = writer.write if span_call is None else span_call("codec.encode", writer.write)
        for index, spec in enumerate(specs):
            offset = index * workload.period_s
            for record in span_iter("synth", synthesise(spec)):
                write(TraceRecord(
                    arrival_s=record.arrival_s + offset,
                    tenant=record.tenant,
                    dataset=record.dataset,
                    size_bytes=record.size_bytes,
                    kind=record.kind,
                    deadline_s=record.deadline_s + offset,
                ))
    scenario = FleetScenario(
        spec=FleetSpec(n_tracks=N_TRACKS, stations_per_rack=STATIONS_PER_RACK,
                       cart_pool=CART_POOL),
        catalog=CATALOG,
        targets=specs[0].targets,
        policy="edf",
        cache=CacheConfig(policy="lru"),
        admission=AdmissionControl(max_queue_depth=QUEUE_DEPTH, failover_links=0),
        seed=seed,
        horizon_s=horizon_s,
        retain_records=False,
    )
    plan = (
        ShardPlan(scenario=scenario, n_pods=N_PODS,
                  interpod_latency_s=INTERPOD_LATENCY_S)
        if workload.sharded else None
    )
    return Inputs(
        workload=workload,
        seed=seed,
        trace=trace,
        trace_path=trace_path,
        n_records=writer.count,
        scenario=scenario,
        plan=plan,
        config_sha256=config_sha256(workload, specs, scenario, plan),
    )


@dataclass(frozen=True)
class Replay:
    """One timed replay call and what it returned."""

    trace: int
    result: ReplayResult
    shard: ShardReport | None
    wall_s: float
    digest: str

    @property
    def fleet(self) -> FleetReport:
        return self.result.fleet


def replay(inputs: Inputs, engine: str = "process",
           span_iter: Callable[[str, Iterable], Iterable] = _identity) -> Replay:
    """Decode and replay the trace; time only the replay call."""
    with open(inputs.trace_path, "rb") as stream:
        header = read_binary_header(stream)
        records: Iterator = span_iter("codec.decode", read_binary_records(stream, header))
        started = time.perf_counter()
        if inputs.plan is not None:
            result, shard = replay_fleet_sharded(
                inputs.plan, records, config=REPLAY_CONFIG, header=header,
                engine=engine, workers=SHARD_WORKERS,
            )
        else:
            result = replay_fleet(inputs.scenario, records, config=REPLAY_CONFIG,
                                  header=header)
            shard = None
        wall_s = time.perf_counter() - started
    return Replay(trace=inputs.trace, result=result, shard=shard, wall_s=wall_s,
                  digest=signature_digest(result.fleet))


def in_system_bound(inputs: Inputs) -> int:
    """Live-job bound: racks x depth + stations + 1 per independent plane.

    A sharded report sums per-pod peaks, and each pod's plane can hold
    one extra job in ``submit``, so the bound grows by one per pod.
    """
    spec = inputs.scenario.spec
    planes = inputs.plan.n_pods if inputs.plan is not None else 1
    return spec.n_racks * QUEUE_DEPTH + spec.total_stations + planes


def check(inputs: Inputs, run: Replay, expected_digest: str | None) -> list[str]:
    """Every correctness check of one replay; returns the failures."""
    fleet = run.fleet
    workload = inputs.workload
    failures: list[str] = []

    def require(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    resolved = fleet.served + fleet.shed + fleet.failovers + fleet.failed
    require(resolved == fleet.n_jobs == inputs.n_records == run.result.n_records,
            f"outcomes {resolved}, n_jobs {fleet.n_jobs}, replayed "
            f"{run.result.n_records} and synthesised {inputs.n_records} differ")
    tenants = fleet.tenant_sla.classes if fleet.tenant_sla is not None else ()
    require(sorted(row.kind for row in tenants) == sorted(TENANTS),
            f"tenants {[row.kind for row in tenants]} != {sorted(TENANTS)}")
    require(sum(row.n_jobs for row in tenants) == fleet.n_jobs,
            "per-tenant job counts do not sum to n_jobs")
    require(run.result.peak_pending <= REPLAY_CONFIG.max_pending,
            f"peak_pending {run.result.peak_pending} > {REPLAY_CONFIG.max_pending}")
    require(run.result.peak_in_system <= in_system_bound(inputs),
            f"peak_in_system {run.result.peak_in_system} > {in_system_bound(inputs)}")
    if run.shard is not None:
        notes = sum(run.shard.remote_outcomes.values())
        require(run.shard.forwarded == notes,
                f"forwarded {run.shard.forwarded} != remote outcomes {notes}")
    if expected_digest is not None:
        require(run.digest == expected_digest,
                f"digest {run.digest} != recorded {expected_digest}")
    served_frac = fleet.served / fleet.n_jobs
    require(served_frac >= workload.min_served_frac,
            f"served share {served_frac:.4f} < {workload.min_served_frac}")
    shed_frac = fleet.shed / fleet.n_jobs
    require(shed_frac >= workload.min_shed_frac,
            f"shed share {shed_frac:.4f} < {workload.min_shed_frac}")
    for row in tenants:
        require(row.n_completed >= workload.min_tenant_completions,
                f"tenant {row.kind} completed {row.n_completed} < "
                f"{workload.min_tenant_completions}")
    return failures


def sim_metrics(fleets: Sequence[FleetReport]) -> dict[str, float]:
    """The deterministic virtual-time end-to-end metrics: means over ``fleets``."""
    per_fleet = [_sim_metrics(fleet) for fleet in fleets]
    return {name: statistics.fmean(metrics[name] for metrics in per_fleet)
            for name in per_fleet[0]}


def _sim_metrics(fleet: FleetReport) -> dict[str, float]:
    metrics = {
        "sim_served_frac": fleet.served / fleet.n_jobs,
        "sim_miss_rate": fleet.deadline_miss_rate,
        "sim_p50_s": fleet.sla.overall.p50_s,
    }
    for tenant in TENANTS:
        metrics[f"sim_p99_s.{tenant}"] = fleet.tenant_sla.for_kind(tenant).p99_s
    metrics["sim_goodput_gbps"] = fleet.goodput_bytes_per_s * 8 / 1e9
    metrics["sim_launch_energy_mj"] = fleet.launch_energy_j / 1e6
    return metrics
