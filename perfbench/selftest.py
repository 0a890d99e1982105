"""Self-test of the benchmark at tiny scale (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It runs a tiny copy of every workload, traced and untraced, and
asserts that:

* every metric named in ``BENCHMARK.json`` is emitted, with the unit
  and direction ``BENCHMARK.json`` gives it, and no other metric is;
* the tiny runs pass every check;
* a perturbed expected digest makes the check fail;
* ``expected.json`` was recorded for the workloads as configured now.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

#: Tiny sizes that keep each workload in its regime: a quarter day of
#: light demand, and two ten-minute bursts at 1.5 times the overload
#: hour's rate.  Two traces each, so a run's traces are checked apart.
TINY = {
    "day-served": dict(active_s=21600.0, period_s=21600.0, periods=1,
                       requests_per_period=1500, traces=2),
    "day-sharded": dict(active_s=21600.0, period_s=21600.0, periods=1,
                        requests_per_period=1500, traces=2),
    "hour-overload": dict(active_s=600.0, period_s=1800.0, periods=2,
                          requests_per_period=15_000, traces=2),
}


def _check_declared(result: dict, declared: list[dict], table: dict) -> None:
    emitted = result["metrics"]
    names = [entry["name"] for entry in declared]
    assert sorted(emitted) == sorted(names), (
        f"emitted {sorted(set(emitted) ^ set(names))} differ from BENCHMARK.json"
    )
    for entry in declared:
        name = entry["name"]
        assert emitted[name]["unit"] == entry["unit"], (name, emitted[name], entry)
        assert table[name] == (entry["unit"], entry["better"]), (name, table[name], entry)
        assert isinstance(emitted[name]["value"], (int, float)), (name, emitted[name])


#: A seed with no entry in ``expected.json``: the tiny runs check their
#: own digests against each other, not against recorded full-size ones.
TINY_SEED = 424242


def main() -> int:
    workloads, _probes = run._load_program()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        tiny = dataclasses.replace(workload, min_tenant_completions=0, **TINY[name])
        digests = {index: set() for index in range(tiny.traces)}
        for trace, declared, table in ((0, bench["end_to_end"], run.END_TO_END),
                                       (1, bench["per_layer"], run.PER_LAYER)):
            result, _manifest, failures, runs = run.run_benchmark(
                name, seed=TINY_SEED, seconds=0.0, trace=trace, workload=tiny,
            )
            assert result["correct"] and not failures, (name, trace, failures)
            assert result["attempted"] >= 1 and result["failed"] == 0, (name, result)
            _check_declared(result, declared, table)
            for replay in runs:
                digests[replay.trace].add(replay.digest)
        assert all(len(seen) == 1 for seen in digests.values()), (name, digests)
        by_trace = [seen.pop() for seen in digests.values()]
        assert len(set(by_trace)) == tiny.traces, (name, "two traces replayed alike")
        digest = by_trace[0]
        perturbed = ("0" if digest[0] != "0" else "1") + digest[1:]
        result, _manifest, failures, _runs = run.run_benchmark(
            name, seed=TINY_SEED, seconds=0.0, trace=0, workload=tiny,
            digests_override=[perturbed] + [None] * (tiny.traces - 1),
        )
        assert not result["correct"], (name, "a perturbed digest passed")
        assert any("digest" in failure for failure in failures), failures
        assert result["failed"] == result["attempted"], result
        print(f"{name}: tiny runs pass, perturbed digest fails", flush=True)

    with open(run.EXPECTED_PATH, encoding="utf-8") as handle:
        recorded = json.load(handle)
    for name, workload in workloads.WORKLOADS.items():
        entry = recorded["workloads"][name][str(workloads.DEFAULT_SEED)]
        assert len(entry["traces"]) == workload.traces, (
            f"{name}: expected.json is stale; run perfbench/record.py"
        )
        for trace, record in enumerate(entry["traces"]):
            with run.trace_file(name, workloads.DEFAULT_SEED, trace) as path:
                inputs = workloads.prepare(workload, workloads.DEFAULT_SEED, trace, path)
            assert record["config_sha256"] == inputs.config_sha256, (
                f"{name}: expected.json is stale; run perfbench/record.py"
            )
        assert str(workloads.HELD_OUT_SEED) in recorded["workloads"][name]
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        run.stop_helpers()
