"""The control plane's intake keeps the event schedule it always had.

``ControlPlane.start_intake`` feeds a lazy job stream into the plane
without a process: a kick-off event where the intake process's first
resume was, then one timeout per later arrival.  The digests below were
recorded from the process-driven intake; a replay that moves one event
moves them.
"""

import json
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError, DataIntegrityError
from repro.fleet.controlplane import (
    AdmissionControl,
    ControlPlane,
    _FleetJob,
    default_scenario,
)
from repro.fleet.shard import signature_digest
from repro.fleet.topology import FleetTopology
from repro.sim import Environment
from repro.traffic import (
    bench_scenario,
    default_spec,
    read_trace,
    replay_fleet,
    synthesise,
    trace_header,
    write_trace,
)
from repro.traffic.codec import JsonlTraceWriter

SPEC = default_spec(seed=2, horizon_s=1800.0, rate_scale=0.02)

#: ``signature_digest`` of each replay below, recorded before the
#: intake process was replaced.  ``failover_links=0`` sheds overflow,
#: one link fails it over.
DIGESTS = {
    (0, "fcfs"): "8d0ac3f400a6c9a4ef9949f2a5551be6d0ca1f1850a3d64daf0340986bdcfec8",
    (0, "sjf"): "a7b74877535fbe477c355f246bc1ddbb02dddd7ac86b04d16f2e23a1e81a8c33",
    (0, "edf"): "fe092e79b49f150e97af60e28ca3da01aaa48e80b927b6103ea6b1fdb86c12d7",
    (1, "fcfs"): "a9259f38e27929eb2bdbd8d40b7b6aee932a9dfb693214cd712d34d906a01ef7",
    (1, "sjf"): "a8307049832dfe4408bfa3ef085109a15a5d39c727783a9a03fd335c859b98c5",
    (1, "edf"): "a857a7a949ae9b113a83af1262b1a3f42c2f5637456f885cd159a0c5d810d832",
}


def scenario(policy, failover_links):
    return replace(
        bench_scenario(SPEC, SPEC.horizon_s),
        policy=policy,
        admission=AdmissionControl(max_queue_depth=8,
                                   failover_links=failover_links),
    )


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("intake") / "trace.bin")
    write_trace(path, trace_header(SPEC), synthesise(SPEC), fmt="bin")
    return path


class TestScheduleIdentity:
    @pytest.mark.parametrize("links,policy", sorted(DIGESTS))
    def test_replay_digest_is_unchanged(self, trace_path, links, policy):
        header, records = read_trace(trace_path)
        result = replay_fleet(scenario(policy, links), records, header=header)
        fleet = result.fleet
        assert signature_digest(fleet) == DIGESTS[(links, policy)]
        resolved = fleet.served + fleet.shed + fleet.failovers + fleet.failed
        assert fleet.sla.overall.n_jobs == resolved == result.n_records
        assert fleet.served > 0
        assert (fleet.failovers if links else fleet.shed) > 0

    def test_backwards_jsonl_arrival_reaches_the_caller(self, tmp_path):
        records = list(synthesise(SPEC))[:50]
        path = tmp_path / "backwards.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            writer = JsonlTraceWriter(handle, trace_header(SPEC))
            for record in records[:40]:
                writer.write(record)
        # The writer refuses a backwards arrival, so append it by hand.
        late = records[10]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "t": late.arrival_s, "tenant": late.tenant,
                "dataset": late.dataset, "bytes": late.size_bytes,
                "kind": late.kind, "deadline": late.deadline_s,
            }) + "\n")
        header, decoded = read_trace(str(path))
        with pytest.raises(DataIntegrityError,
                           match=r"non-decreasing: record 40 arrives at"):
            replay_fleet(scenario("edf", 0), decoded, header=header)


def _plane():
    env = Environment()
    fleet = default_scenario(policy="fcfs", cache=None, horizon_s=600.0)
    topology = FleetTopology(env, fleet.spec, fleet.catalog)
    return env, ControlPlane(env, topology, fleet)


def _job(job_id, arrival_s, dataset):
    return _FleetJob(job_id, arrival_s, 1e12, "interactive", dataset, 1e12,
                     arrival_s + 120.0, 0)


class TestStartIntake:
    def test_submits_each_job_at_its_arrival_time(self):
        env, plane = _plane()
        dataset = next(iter(plane.topology.homes))
        arrivals = [0.0, 0.0, 2.5, 2.5, 7.0]
        seen = []
        submit = plane.submit

        def recording_submit(fjob):
            seen.append((fjob.job_id, env.now))
            submit(fjob)

        plane.submit = recording_submit
        plane.start_workers()
        plane.start_intake(_job(i, t, dataset) for i, t in enumerate(arrivals))
        env.run(until=plane._done)
        assert seen == list(enumerate(arrivals))
        assert plane.drained

    def test_costs_one_kick_off_event_and_one_timeout_per_later_arrival(self):
        env, plane = _plane()
        dataset = next(iter(plane.topology.homes))
        pulled = []

        def stream():
            for job_id, arrival in enumerate([0.0, 3.0, 3.0, 4.0]):
                pulled.append(job_id)
                yield _job(job_id, arrival, dataset)

        before = env._eid
        plane.start_intake(stream())
        assert env._eid == before + 1  # the kick-off event; no process
        assert pulled == []  # nothing is pulled before the kick-off
        env.step()  # kick-off: submits job 0, pulls job 1, waits for it
        assert pulled == [0, 1]
        assert [entry[0] for entry in env._queue] == [3.0]
        env.step()  # submits jobs 1 and 2 (both due at 3.0), waits for 3
        assert pulled == [0, 1, 2, 3]
        assert [entry[0] for entry in env._queue] == [4.0]
        env.step()
        assert not env._queue
        # No workers run, so these three are every event the intake made.
        assert env._eid == before + 3
        assert plane._submitted == 4 and plane._intake_closed

    def test_empty_stream_closes_intake(self):
        env, plane = _plane()
        plane.start_intake(iter(()))
        env.run(until=plane._done)
        assert plane.drained

    def test_run_rejects_an_empty_stream(self):
        _env, plane = _plane()
        with pytest.raises(ConfigurationError, match="no jobs arrived"):
            plane.run(iter(()))
