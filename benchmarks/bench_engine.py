"""Engine fast-path benches: the ``BENCH_engine.json`` gate, exercised.

The committed baseline pins the DES-core optimisation as an invariant:
>=2x events/sec over the frozen reference engine on the mixed
microbenchmark.  These benches re-measure the gated workload and the
dhlsim shuttle scenario under pytest-benchmark, and check the committed
baseline both for internal consistency (its own floors) and against a
fresh run (:func:`repro.sim.bench.compare_to_baseline`).
"""

from pathlib import Path

from repro.sim.bench import (
    GATE_FLOOR,
    GATE_WORKLOAD,
    MIN_TRIALS,
    OPTIMISED,
    REFERENCE,
    SCHEMA,
    WORKLOADS,
    _paired_medians,
    compare_to_baseline,
    load_baseline,
    report_payload,
    run_engine_bench,
)

BASELINE = Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def test_microbench_gate(benchmark):
    """The gated workload: optimised engine timed, speedup recorded."""
    fn, n = WORKLOADS[GATE_WORKLOAD]

    benchmark(lambda: fn(OPTIMISED, n))
    # The gate ratio is timed explicitly, exactly as run_engine_bench
    # times it (warm-up, interleaved pairs, medians, gc paused), so it
    # also holds under --benchmark-disable runs of the harness.
    timing = _paired_medians(
        lambda: fn(OPTIMISED, n), lambda: fn(REFERENCE, n), MIN_TRIALS
    )

    assert timing.optimised_events == timing.reference_events, (
        "engines disagree on event counts"
    )
    speedup = timing.reference_s / timing.optimised_s
    benchmark.extra_info["events_per_sec"] = round(
        timing.optimised_events / timing.optimised_s, 1
    )
    benchmark.extra_info["speedup_vs_reference"] = round(speedup, 3)
    assert speedup >= GATE_FLOOR, (
        f"{GATE_WORKLOAD} speedup {speedup:.2f}x (IQR "
        f"{timing.ratio_iqr:.2f}x) fell below the {GATE_FLOOR:.1f}x gate"
    )


def test_dhlsim_shuttle_scenario(benchmark):
    """Events/sec of a full dhlsim bulk campaign on the optimised engine."""
    from repro.dhlsim import DhlApi, DhlSystem
    from repro.sim import Environment
    from repro.storage import synthetic_dataset
    from repro.units import TB

    def run():
        env = Environment()
        system = DhlSystem(env, stations_per_rack=2)
        dataset = synthetic_dataset(6 * 256 * TB, name="bench")
        system.load_dataset(dataset)
        api = DhlApi(system)
        env.run(until=api.bulk_transfer(dataset))
        return env._eid

    events = benchmark(run)
    assert events == 212  # the pinned bulk-campaign schedule
    if benchmark.stats is not None:
        benchmark.extra_info["events_per_sec"] = round(
            events / benchmark.stats.stats.min, 1
        )


def test_committed_baseline_is_internally_consistent():
    """The committed artefact must prove the gate on its own numbers."""
    baseline = load_baseline(str(BASELINE))
    assert baseline["schema"] == SCHEMA
    gate = baseline["gate"]
    assert gate["workload"] == GATE_WORKLOAD
    assert gate["passed"] and gate["speedup"] >= GATE_FLOOR
    assert baseline["events_identical"]
    for name, entry in baseline["workloads"].items():
        assert entry["speedup"] >= entry["floor"], (
            f"committed {name} speedup {entry['speedup']}x is below its "
            f"{entry['floor']}x floor"
        )


def test_fresh_bench_matches_committed_baseline(benchmark):
    """A fresh full bench must show no regression against the baseline."""
    report = benchmark.pedantic(
        lambda: run_engine_bench(repeats=2, include_scenario=False,
                                 include_replicate=False),
        rounds=1, iterations=1,
    )
    problems = compare_to_baseline(
        report_payload(report), load_baseline(str(BASELINE))
    )
    benchmark.extra_info["gate_speedup"] = round(report.gate_speedup, 3)
    assert not problems, "; ".join(problems)
