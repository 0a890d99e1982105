"""Record the expected digest and ``sim_*`` values of each workload and seed.

Run from the root of a checkout when the program's simulated behaviour
changes on purpose::

    python3 perfbench/record.py

It records the default seed, the held-out seed and seeds 1-20 of every
workload (about half an hour on two cores), and rewrites
``perfbench/expected.json``, which ``run.py`` checks every replay
against.  Each seed has one digest per trace of the run, and each
digest carries its trace's config hash, so a digest recorded for
another configuration fails loudly instead of passing by accident.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    workloads, _probes = run._load_program()
    seeds = [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED, *range(1, 21)]
    recorded = {
        "schema": workloads.SCHEMA,
        "default_seed": workloads.DEFAULT_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "workloads": {},
    }
    for name, workload in workloads.WORKLOADS.items():
        entries = recorded["workloads"][name] = {}
        for seed in seeds:
            traces = []
            fleets = []
            for trace in range(workload.traces):
                with run.trace_file(name, seed, trace) as path:
                    inputs = workloads.prepare(workload, seed, trace, path)
                    replay = workloads.replay(inputs)
                failures = workloads.check(inputs, replay, expected_digest=None)
                if failures:
                    print(f"{name} seed {seed} trace {trace}: {failures}", file=sys.stderr)
                    return 1
                traces.append({
                    "config_sha256": inputs.config_sha256,
                    "digest": replay.digest,
                    "n_records": inputs.n_records,
                })
                fleets.append(replay.fleet)
            entries[str(seed)] = {
                "traces": traces,
                "sim": workloads.sim_metrics(fleets),
            }
            print(f"{name} seed {seed}: {[entry['digest'] for entry in traces]}",
                  flush=True)
    with open(run.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        run.stop_helpers()
