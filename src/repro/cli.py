"""Command-line interface: print any reproduced table or figure.

Usage::

    python -m repro table6
    python -m repro fig6
    python -m repro all
    dhl-repro table7a          # via the console script
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from .core.sensitivity import sensitivity_table
from .analysis import (
    breakeven_summary,
    engineering_table,
    fig2_table,
    figure6_ascii,
    hybrid_policy_table,
    intro_example,
    multistop_table,
    reliability_table,
    render_table,
    reuse_table,
    sneakernet_table,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7a,
    table7b,
    table8a,
    table8b,
    table8c,
)

_TABLES: dict[str, tuple[str, Callable[[], tuple[list[str], list[list[object]]]]]] = {
    "intro": ("Section I/II-C motivating numbers", intro_example),
    "table1": ("Table I: large emerging datasets", table1),
    "table2": ("Table II: storage solutions", table2),
    "table3": ("Table III: networking power", table3),
    "fig2": ("Figure 2: 29 PB route energies", fig2_table),
    "table4": ("Table IV: large ML models", table4),
    "table5": ("Table V: DHL parameters", table5),
    "table6": ("Table VI: design-space exploration", table6),
    "table7a": ("Table VII(a): iso-power comparison", table7a),
    "table7b": ("Table VII(b): iso-time comparison", table7b),
    "table8a": ("Table VIII(a): rail cost", table8a),
    "table8b": ("Table VIII(b): LIM cost", table8b),
    "table8c": ("Table VIII(c): total cost", table8c),
    "breakeven": ("Section V-E: minimum specifications", breakeven_summary),
    "sneakernet": ("Extension: friction-limited baselines", sneakernet_table),
    "hybrid": ("Extension: hybrid routing policies", hybrid_policy_table),
    "engineering": ("Extension: Section VI feasibility checks", engineering_table),
    "multistop": ("Extension: multi-stop contention vs speed", multistop_table),
    "reliability": ("Extension: fault tolerance vs availability model", reliability_table),
    "reuse": ("Extension: dataset-reuse economics", reuse_table),
    "sensitivity": ("Extension: parameter elasticities", sensitivity_table),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhl-repro",
        description=(
            "Reproduce tables and figures from 'The Case For Data Centre "
            "Hyperloops' (ISCA 2024)."
        ),
    )
    choices = list(_TABLES) + ["fig6", "validate", "export", "trace", "bench",
                               "fleet", "chaos", "replicate", "traffic",
                               "learn", "surrogate", "all"]
    parser.add_argument(
        "artefact",
        choices=choices,
        help="which paper artefact to regenerate",
    )
    parser.add_argument(
        "--scenario",
        default="bulk-faults",
        help="trace: named scenario to run (bulk, bulk-faults, bulk-failover)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="trace: dataset shards (one cart each) in the campaign "
             "(default 4); fleet: run the scenario sharded into N pods "
             "via the multi-process co-simulator",
    )
    parser.add_argument(
        "--interpod-latency",
        type=float,
        default=5.0,
        help="fleet --shards: boundary latency between pods in simulated "
             "seconds (also the conservative epoch window)",
    )
    parser.add_argument(
        "--shard-engine",
        choices=("serial", "process"),
        default="process",
        help="fleet --shards: epoch executor (results are byte-identical "
             "either way)",
    )
    parser.add_argument(
        "--shard-out",
        default="BENCH_shard.json",
        help="bench shard mode: output path for the shard baseline JSON",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="trace: seed for the scenario's fault cocktail and retries",
    )
    parser.add_argument(
        "--trace-out",
        default="trace.json",
        help="trace: output path for the Perfetto/Chrome trace JSON",
    )
    parser.add_argument(
        "--events-out",
        default=None,
        help="trace: also write a structured JSONL event log here",
    )
    parser.add_argument(
        "--max-tracks",
        type=int,
        default=4,
        help="fig6: DHL tracks per curve (larger is slower)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="validate: skip the minute-long ML-simulation checks",
    )
    parser.add_argument(
        "--out",
        default="results",
        help="export: output directory for CSV/JSON artefacts",
    )
    parser.add_argument(
        "--mode",
        choices=("sweep", "engine", "chaos", "traffic", "shard", "learn",
                 "surrogate"),
        default="sweep",
        help="bench: 'sweep' times the design-space engines, 'engine' the "
             "DES core against the frozen reference, 'chaos' the "
             "graceful-degradation gate (same as the chaos artefact), "
             "'traffic' the trace synthesis + replay gate (same as the "
             "traffic artefact), 'shard' the sharded co-simulation "
             "identity + speedup gate, 'learn' the learned-control gate "
             "(same as the learn artefact), 'surrogate' the "
             "surrogate-planner gate (same as the surrogate artefact)",
    )
    parser.add_argument(
        "--points",
        type=int,
        default=None,
        help="bench: minimum number of design points in the sweep grid",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="bench engine mode: workload iteration-count multiplier",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="bench: timing repeats per engine (sweep mode reports the best "
             "run; engine mode interleaves >= 5 pairs and reports medians)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="bench: worker processes for the 'process' engine",
    )
    parser.add_argument(
        "--bench-out",
        default=None,
        help="bench: output path for the perf baseline JSON "
             "(default BENCH_sweep.json, or BENCH_engine.json in engine mode)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="bench: compare against a committed baseline and fail on regression",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="export: include the slow Table VII and Fig. 6 artefacts",
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=3600.0,
        help="fleet: workload horizon in simulated seconds",
    )
    parser.add_argument(
        "--fleet-out",
        default="BENCH_fleet.json",
        help="fleet: output path for the fleet KPI baseline JSON",
    )
    parser.add_argument(
        "--capacity",
        action="store_true",
        help="fleet: also run the capacity planner over the candidate grid",
    )
    parser.add_argument(
        "--chaos-out",
        default="BENCH_chaos.json",
        help="chaos: output path for the chaos KPI baseline JSON",
    )
    parser.add_argument(
        "--replications",
        type=int,
        default=8,
        help="replicate: number of consecutive seeds, starting at --seed",
    )
    parser.add_argument(
        "--engine",
        choices=("serial", "process", "both"),
        default="both",
        help="replicate: evaluation engine; 'both' also verifies the "
             "serial and process reports are byte-identical",
    )
    parser.add_argument(
        "--policy",
        default="edf",
        help="replicate: fleet scheduling policy (fcfs, sjf, edf)",
    )
    parser.add_argument(
        "--cache",
        default="lru",
        help="replicate: rack cache policy (lru, lfu, size, none)",
    )
    parser.add_argument(
        "--replicate-out",
        default="REPLICATE_fleet.json",
        help="replicate: output path for the deterministic report JSON",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="traffic: approximate request count the synthesised trace "
             "targets over the horizon",
    )
    parser.add_argument(
        "--traffic-out",
        default="BENCH_traffic.json",
        help="traffic: output path for the traffic KPI baseline JSON",
    )
    parser.add_argument(
        "--learn-out",
        default="BENCH_learn.json",
        help="learn: output path for the learned-control baseline JSON",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="learn: training rounds (default the committed-gate shape)",
    )
    parser.add_argument(
        "--episodes-per-round",
        type=int,
        default=None,
        help="learn: episodes fanned out per training round",
    )
    parser.add_argument(
        "--no-parity-probe",
        action="store_true",
        help="learn/surrogate: skip the serial/process training parity "
             "probe (marks the invariant false; quick local iterations "
             "only)",
    )
    parser.add_argument(
        "--surrogate-out",
        default="BENCH_surrogate.json",
        help="surrogate: output path for the surrogate-planner baseline JSON",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: render the requested artefact(s) to stdout."""
    args = build_parser().parse_args(argv)
    if args.artefact == "fig6":
        from .mlsim.analysis import figure6_series

        print(figure6_ascii(figure6_series(max_tracks=args.max_tracks)))
        return 0
    if args.artefact == "export":
        from .analysis.export import export_tables

        written = export_tables(
            args.out, include_slow=args.full, include_fig6=args.full
        )
        for path in written:
            print(path)
        print(f"wrote {len(written)} artefacts to {args.out}/")
        return 0
    if args.artefact == "validate":
        from .analysis.validation import run_validation

        suite = run_validation(include_simulation=not args.fast)
        headers = ["Section", "Check", "Paper", "Measured", "Dev", "Status"]
        print(render_table(headers, suite.rows(),
                           title="Paper-vs-measured validation"))
        if suite.all_passed:
            print(f"\nAll {len(suite.checks)} checks passed.")
            return 0
        print(f"\n{len(suite.failures)} of {len(suite.checks)} checks FAILED.")
        return 1
    if args.artefact == "trace":
        import json

        # Lazy: scenarios import the whole simulator stack.
        from .obs.export import event_log, to_chrome_trace, validate_chrome_trace
        from .obs.scenarios import run_scenario

        result = run_scenario(
            args.scenario,
            shards=args.shards if args.shards is not None else 4,
            seed=args.seed,
        )
        payload = to_chrome_trace(result.tracer)
        validate_chrome_trace(payload)
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        print(f"scenario {result.name}: {result.report.shards_moved} shards, "
              f"makespan {result.makespan_s:.1f} s, "
              f"{result.report.launches} launches")
        print(f"wrote {len(payload['traceEvents'])} trace events to "
              f"{args.trace_out} (load in https://ui.perfetto.dev)")
        if args.events_out:
            events = event_log(result.tracer)
            with open(args.events_out, "w", encoding="utf-8") as handle:
                for entry in events:
                    handle.write(json.dumps(entry))
                    handle.write("\n")
            print(f"wrote {len(events)} log records to {args.events_out}")
        snapshot = result.system.metrics.snapshot()
        for name in sorted(snapshot):
            if name.startswith("count."):
                print(f"  {name} = {snapshot[name]['value']:g}")
        return 0
    if args.artefact == "bench" and args.mode == "engine":
        # Lazy: the engine bench imports both DES engines and dhlsim.
        from .sim import bench as engine_bench

        report = engine_bench.run_engine_bench(
            repeats=args.repeats or engine_bench.DEFAULT_REPEATS,
            scale=args.scale,
            workers=args.workers,
        )
        headers, rows = engine_bench.bench_table(report)
        print(render_table(headers, rows,
                           title="DES engine bench (optimised vs reference)"))
        scenario = dict(report.scenario)
        if "events_per_sec" in scenario:
            print(f"\ndhlsim scenario {scenario['name']}: "
                  f"{scenario['events_per_sec']:,.0f} events/s "
                  f"({scenario['events']} events, informational)")
        replicate_info = dict(report.replicate)
        if "skipped" in replicate_info:
            print(f"replicate comparison skipped: {replicate_info['skipped']}")
        else:
            print(f"replicate: process {replicate_info['speedup']}x over "
                  f"serial across {replicate_info['seeds']} seeds, "
                  f"identical payloads: {replicate_info['identical_payloads']}")
        out_path = args.bench_out or "BENCH_engine.json"
        path = engine_bench.write_report(report, out_path)
        print(f"\nwrote engine perf baseline to {path}")
        gate_line = (
            f"{engine_bench.GATE_WORKLOAD} speedup "
            f"{report.gate_speedup:.2f}x (IQR {report.gate_speedup_iqr:.2f}x "
            f"over {report.repeats} pairs), "
            f"gate {engine_bench.GATE_FLOOR:.1f}x"
        )
        if not report.gate_passed:
            print(f"FAIL: {gate_line}")
            return 1
        print(f"gate: {gate_line}")
        if args.check:
            problems = engine_bench.compare_to_baseline(
                engine_bench.report_payload(report),
                engine_bench.load_baseline(args.check),
            )
            if problems:
                for problem in problems:
                    print(f"REGRESSION: {problem}")
                return 1
            print(f"no regression against {args.check}")
        return 0
    if args.artefact == "bench" and args.mode == "sweep":
        # Lazy: the bench sweeps hundreds of design points.
        from .analysis import perf

        report = perf.run_bench(
            n_points=args.points or perf.DEFAULT_POINTS,
            repeats=args.repeats or perf.DEFAULT_REPEATS,
            workers=args.workers,
        )
        headers, rows = perf.bench_table(report)
        print(render_table(headers, rows,
                           title=f"Sweep-engine bench ({report.n_points} points)"))
        print()
        headers, rows = perf.cache_stats_table(report)
        print(render_table(
            headers, rows,
            title="Report memo-cache probe (cold pass + warm re-evaluation)",
        ))
        path = perf.write_report(report, args.bench_out or "BENCH_sweep.json")
        print(f"\nwrote perf baseline to {path}")
        if not report.identical_results:
            print("FAIL: engines disagree on sweep results")
            return 1
        if args.check:
            problems = perf.compare_to_baseline(
                perf.report_payload(report), perf.load_baseline(args.check)
            )
            if problems:
                for problem in problems:
                    print(f"REGRESSION: {problem}")
                return 1
            print(f"no regression against {args.check}")
        return 0
    if args.artefact == "chaos" or (
        args.artefact == "bench" and args.mode == "chaos"
    ):
        # Lazy: chaos runs drive the full fleet simulator three times.
        from .analysis.fleetview import chaos_mode_table, lane_health_table
        from .chaos import bench as chaos_bench

        bench = chaos_bench.run_chaos_bench(
            seed=args.seed, horizon_s=args.horizon
        )
        campaign = chaos_bench.default_campaign(seed=args.seed)
        headers, rows = campaign.table()
        print(render_table(
            headers, rows,
            title=f"Chaos campaign '{campaign.name}' (seed {args.seed})",
        ))
        print()
        headers, rows = chaos_mode_table(bench)
        print(render_table(
            headers, rows,
            title=f"Graceful degradation (seed {bench.seed}, "
                  f"{bench.horizon_s:.0f} s horizon)",
        ))
        print()
        headers, rows = lane_health_table(bench.report("hardened"))
        print(render_table(headers, rows,
                           title="Lane health after the storm (hardened)"))
        path = chaos_bench.write_report(bench, args.chaos_out)
        print(f"\nwrote chaos KPI baseline to {path}")
        failed = [name for name, ok in bench.invariants.items() if not ok]
        if failed:
            print(f"FAIL: degradation invariants violated: {', '.join(failed)}")
            return 1
        if args.check:
            problems = chaos_bench.compare_to_baseline(
                chaos_bench.report_payload(bench),
                chaos_bench.load_baseline(args.check),
            )
            if problems:
                for problem in problems:
                    print(f"REGRESSION: {problem}")
                return 1
            print(f"no regression against {args.check}")
        return 0
    if args.artefact == "bench" and args.mode == "shard":
        # Lazy: the shard bench runs the 10x fleet on both executors.
        from .analysis.fleetview import shard_pod_table, shard_timing_table
        from .fleet import shardbench

        bench = shardbench.run_shard_bench(
            seed=args.seed, horizon_s=args.horizon, workers=args.workers
        )
        payload = shardbench.report_payload(bench)
        headers, rows = shard_pod_table(bench.serial)
        print(render_table(
            headers, rows,
            title=f"Shard bench ({bench.plan.n_pods} pods over "
                  f"{bench.plan.scenario.spec.n_tracks} tracks, "
                  f"W={bench.plan.window_s:g} s, {bench.serial.epochs} epochs)",
        ))
        print()
        headers, rows = shard_timing_table(payload)
        print(render_table(headers, rows,
                           title="Executor timings (informational)"))
        print(f"\nserial sha256 {bench.serial_digest[:16]}.., process "
              f"sha256 {bench.process_digest[:16]}.., identical: "
              f"{bench.identical}")
        for name, reason in dict(payload["skipped"]).items():
            print(f"{name} invariant skipped: {reason}")
        path = shardbench.write_report(bench, args.shard_out)
        print(f"wrote shard baseline to {path}")
        failed = [
            name for name, ok in dict(payload["invariants"]).items() if not ok
        ]
        if failed:
            print(f"FAIL: shard invariants violated: {', '.join(failed)}")
            return 1
        if args.check:
            problems = shardbench.compare_to_baseline(
                payload, shardbench.load_baseline(args.check)
            )
            if problems:
                for problem in problems:
                    print(f"REGRESSION: {problem}")
                return 1
            print(f"no regression against {args.check}")
        return 0
    if args.artefact == "fleet" and args.shards:
        # Lazy: a sharded run builds one control plane per pod.
        from .analysis.fleetview import fleet_sla_table, shard_pod_table
        from .fleet.controlplane import default_scenario
        from .fleet.shard import ShardPlan, run_sharded, signature_digest

        plan = ShardPlan(
            scenario=default_scenario(seed=args.seed, horizon_s=args.horizon),
            n_pods=args.shards,
            interpod_latency_s=args.interpod_latency,
        )
        report = run_sharded(
            plan, engine=args.shard_engine, workers=args.workers
        )
        headers, rows = shard_pod_table(report)
        print(render_table(
            headers, rows,
            title=f"Sharded fleet ({plan.n_pods} pods, "
                  f"W={plan.window_s:g} s, engine {report.engine} x "
                  f"{report.workers} workers)",
        ))
        print()
        headers, rows = fleet_sla_table(report.fleet)
        print(render_table(headers, rows, title="Merged per-class SLA"))
        print(f"\n{report.epochs} epochs, {report.forwarded} cross-pod "
              f"forwards, {sum(report.remote_outcomes.values())} outcome "
              f"notes, signature {signature_digest(report.fleet)[:16]}.., "
              f"{report.wall_s:.2f} s wall")
        return 0
    if args.artefact == "fleet":
        # Lazy: the fleet scenarios drive the full simulator stack.
        from .analysis.fleetview import (
            capacity_table,
            fleet_policy_table,
            fleet_sla_table,
        )
        from .fleet import bench as fleet_bench

        bench = fleet_bench.run_fleet_bench(
            seed=args.seed, horizon_s=args.horizon
        )
        headers, rows = fleet_policy_table(bench)
        print(render_table(
            headers, rows,
            title=f"Fleet policy comparison (seed {bench.seed}, "
                  f"{bench.horizon_s:.0f} s horizon)",
        ))
        print()
        headers, rows = fleet_sla_table(bench.report("edf+lru"))
        print(render_table(headers, rows, title="Per-class SLA (edf+lru)"))
        path = fleet_bench.write_report(bench, args.fleet_out)
        print(f"\nwrote fleet KPI baseline to {path}")
        p99_wins, energy_wins = bench.cache_beats_baseline
        if not (p99_wins and energy_wins):
            print("FAIL: edf+lru no longer beats fcfs+none "
                  f"(p99 win: {p99_wins}, launch-energy win: {energy_wins})")
            return 1
        if args.capacity:
            from .fleet.capacity import SlaRequirement, plan_capacity
            from .fleet.controlplane import default_scenario

            plan = plan_capacity(
                SlaRequirement(max_p99_s=300.0, max_miss_rate=0.05),
                default_scenario(policy="fcfs", cache="lru", seed=args.seed,
                                 horizon_s=min(args.horizon, 1800.0)),
                engine="process" if args.workers else "serial",
                workers=args.workers,
            )
            headers, rows = capacity_table(plan)
            print()
            print(render_table(headers, rows, title="Capacity plan"))
            if plan.best is None:
                print("FAIL: no candidate met the SLA requirement")
                return 1
        if args.check:
            problems = fleet_bench.compare_to_baseline(
                fleet_bench.report_payload(bench),
                fleet_bench.load_baseline(args.check),
            )
            if problems:
                for problem in problems:
                    print(f"REGRESSION: {problem}")
                return 1
            print(f"no regression against {args.check}")
        return 0
    if args.artefact == "traffic" or (
        args.artefact == "bench" and args.mode == "traffic"
    ):
        # Lazy: a traffic bench synthesises and replays a whole trace.
        from .analysis.fleetview import (
            traffic_synthesis_table,
            traffic_tenant_table,
        )
        from .traffic import bench as traffic_bench

        bench = traffic_bench.run_traffic_bench(
            seed=args.seed,
            horizon_s=args.horizon,
            requests=args.requests or traffic_bench.DEFAULT_REQUESTS,
        )
        headers, rows = traffic_synthesis_table(bench)
        print(render_table(
            headers, rows,
            title=f"Synthesised demand (seed {bench.seed}, "
                  f"{bench.horizon_s:.0f} s horizon, "
                  f"{bench.trace_bytes / 1e6:.1f} MB binary trace)",
        ))
        print()
        headers, rows = traffic_tenant_table(bench.result)
        print(render_table(headers, rows, title="Per-tenant SLA (replay)"))
        print(f"\nsynthesis: {bench.n_records} records in "
              f"{bench.synth_wall_s:.2f} s "
              f"({bench.n_records / max(bench.synth_wall_s, 1e-9):,.0f} "
              "events/s)")
        print(f"replay: {bench.result.n_records} records in "
              f"{bench.result.wall_s:.2f} s "
              f"({bench.result.n_records / max(bench.result.wall_s, 1e-9):,.0f}"
              " events/s), peak "
              f"{bench.result.fleet.peak_in_system} live jobs "
              f"(bound {bench.in_system_bound}), "
              f"{bench.result.peak_pending} decoded ahead "
              f"(cap {bench.result.config.max_pending})")
        path = traffic_bench.write_report(bench, args.traffic_out)
        print(f"wrote traffic KPI baseline to {path}")
        failed = [name for name, ok in bench.invariants.items() if not ok]
        if failed:
            print(f"FAIL: traffic invariants violated: {', '.join(failed)}")
            return 1
        if args.check:
            problems = traffic_bench.compare_to_baseline(
                traffic_bench.report_payload(bench),
                traffic_bench.load_baseline(args.check),
            )
            if problems:
                for problem in problems:
                    print(f"REGRESSION: {problem}")
                return 1
            print(f"no regression against {args.check}")
        return 0
    if args.artefact == "learn" or (
        args.artefact == "bench" and args.mode == "learn"
    ):
        # Lazy: a learn bench trains hundreds of fleet episodes.
        from .analysis.fleetview import learn_comparison_table
        from .learn import bench as learn_bench

        bench = learn_bench.run_learn_bench(
            seed=args.seed,
            rounds=args.rounds or learn_bench.DEFAULT_ROUNDS,
            episodes_per_round=(
                args.episodes_per_round
                or learn_bench.DEFAULT_EPISODES_PER_ROUND
            ),
            check_process_parity=not args.no_parity_probe,
        )
        payload = learn_bench.report_payload(bench)
        headers, rows = learn_comparison_table(payload)
        print(render_table(
            headers, rows,
            title=f"Learned vs fixed control (eval seed "
                  f"{bench.report.eval_seed}, {bench.rounds}x"
                  f"{bench.episodes_per_round} training episodes)",
        ))
        margins = dict(payload["margins"])
        print(f"\npolicy fingerprint {bench.report.fingerprint[:16]}.., "
              f"trained in {bench.train_wall_s:.1f} s wall")
        print(f"margins over best fixed ({payload['best_fixed']}): "
              f"p99 {margins['p99_s']:+.1f} s, "
              f"launch energy {margins['launch_energy_mj']:+.3f} MJ")
        path = learn_bench.write_report(bench, args.learn_out)
        print(f"wrote learn baseline to {path}")
        failed = [name for name, ok in bench.invariants.items() if not ok]
        if failed:
            print(f"FAIL: learn invariants violated: {', '.join(failed)}")
            return 1
        if args.check:
            problems = learn_bench.compare_to_baseline(
                payload, learn_bench.load_baseline(args.check)
            )
            if problems:
                for problem in problems:
                    print(f"REGRESSION: {problem}")
                return 1
            print(f"no regression against {args.check}")
        return 0
    if args.artefact == "surrogate" or (
        args.artefact == "bench" and args.mode == "surrogate"
    ):
        # Lazy: a surrogate bench fans out hundreds of training runs.
        from .analysis.fleetview import (
            surrogate_planner_table,
            surrogate_validation_table,
        )
        from .surrogate import bench as surrogate_bench

        bench = surrogate_bench.run_surrogate_bench(
            seed=args.seed,
            check_process_parity=not args.no_parity_probe,
        )
        payload = surrogate_bench.report_payload(bench)
        headers, rows = surrogate_validation_table(payload)
        print(render_table(
            headers, rows,
            title=f"Surrogate validation (seeds "
                  f"{surrogate_bench.VALIDATION_SEEDS[0]}.."
                  f"{surrogate_bench.VALIDATION_SEEDS[-1]}, "
                  f"seed-median DES truth)",
        ))
        print()
        headers, rows = surrogate_planner_table(payload)
        print(render_table(
            headers, rows,
            title=f"Capacity planners (p99 <= "
                  f"{surrogate_bench.GATE_REQUIREMENT.max_p99_s:g} s, "
                  f"miss <= "
                  f"{surrogate_bench.GATE_REQUIREMENT.max_miss_rate:.0%})",
        ))
        print(f"\ntraining: {bench.training_rows} rows over "
              f"{len(surrogate_bench.TRAIN_SEEDS)} seeds in "
              f"{bench.train_wall_s:.1f} s wall, fit in "
              f"{bench.fit_wall_s:.1f} s")
        print(f"model fingerprint {bench.model_fingerprint_serial[:16]}.., "
              f"training set {bench.train_fingerprint_serial[:16]}..")
        wall = dict(payload["wall_informational"])
        print(f"plan wall: exhaustive {wall['exhaustive_plan_s']:.3f} s, "
              f"surrogate {wall['surrogate_plan_s']:.3f} s "
              f"({wall['plan_speedup']:.1f}x, informational)")
        path = surrogate_bench.write_report(bench, args.surrogate_out)
        print(f"wrote surrogate baseline to {path}")
        failed = [name for name, ok in bench.invariants.items() if not ok]
        if failed:
            print(f"FAIL: surrogate invariants violated: {', '.join(failed)}")
            return 1
        if args.check:
            problems = surrogate_bench.compare_to_baseline(
                payload, surrogate_bench.load_baseline(args.check)
            )
            if problems:
                for problem in problems:
                    print(f"REGRESSION: {problem}")
                return 1
            print(f"no regression against {args.check}")
        return 0
    if args.artefact == "replicate":
        # Lazy: replication drives the full fleet simulator per seed.
        from .fleet.controlplane import default_scenario
        from .fleet.montecarlo import montecarlo_payload, replicate_fleet
        from .sim.replicate import render_payload, replicate_table

        cache = None if args.cache == "none" else args.cache
        scenario = default_scenario(policy=args.policy, cache=cache,
                                    seed=args.seed, horizon_s=args.horizon)
        seeds = range(args.seed, args.seed + args.replications)
        engines = (("serial", "process") if args.engine == "both"
                   else (args.engine,))
        rendered: dict[str, str] = {}
        result = None
        for engine in engines:
            result = replicate_fleet(scenario, seeds=seeds, engine=engine,
                                     workers=args.workers)
            rendered[engine] = render_payload(
                montecarlo_payload(scenario, result)
            )
            print(f"{engine}: {len(result.seeds)} replications in "
                  f"{result.wall_s:.2f} s wall")
        headers, rows = replicate_table(result)
        print()
        print(render_table(
            headers, rows,
            title=f"Fleet Monte-Carlo ({args.policy}+{scenario.cache_label}, "
                  f"seeds {seeds.start}..{seeds.stop - 1}, "
                  f"{scenario.horizon_s:.0f} s horizon)",
        ))
        if len(rendered) == 2 and rendered["serial"] != rendered["process"]:
            print("FAIL: serial and process reports are not byte-identical")
            return 1
        if len(rendered) == 2:
            print("\nserial and process reports are byte-identical")
        with open(args.replicate_out, "w", encoding="utf-8") as handle:
            handle.write(rendered[engines[0]])
        print(f"wrote replication report to {args.replicate_out}")
        return 0
    if args.artefact == "all":
        for name, (title, generator) in _TABLES.items():
            headers, rows = generator()
            print(render_table(headers, rows, title=f"[{name}] {title}"))
            print()
        return 0
    title, generator = _TABLES[args.artefact]
    headers, rows = generator()
    print(render_table(headers, rows, title=title))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
