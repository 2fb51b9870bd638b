"""Benchmark of the cycle-level simulator on three figure workloads.

Run from the repository root::

    python3 simbench/run.py --workload pagerank-rv-twolevel --seed 1 \\
        --seconds 30 --trace 0
    python3 simbench/run.py --workload all --trace 1

``--trace 0`` is the timed run.  With every observer off it simulates
each of the seed's instances (see ``workloads.py``) in passes for
about ``--seconds`` seconds (one pass at least), times cold set-ups
between the simulations, checks every result against
``repro.baselines.reference`` and reports the end-to-end metrics.
``--trace 1`` runs the seed's instance 0 once plain and once under
:class:`layers.LayerTracer`, checks that tracing did not change the
simulation, and reports the per-layer metrics.

Every run prints its metrics by name with units, writes a JSON report
(host fingerprint, execution strategy, per-run figures) under
``.simbench/`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all``
runs each workload in its own process, one after the other.

The simulator is imported from ``src/`` next to this directory and
nowhere else; without it the benchmark exits non-zero.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT_DIR = ROOT / ".simbench"
SETUP_BATCH = 11  # timed run: per simulation
SETUP_REPEATS = 41  # traced run
SETUP_LAYERS = ("graph.generate", "graph.reorder", "graph.partition",
                "accel.system")

END_TO_END_UNITS = {
    "sim_cycles_per_s": "cycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_gteps": "GTEPS",
}


def pin_environment():
    """Clear every ``REPRO_*`` knob so runs use the default strategy.

    Besides the documented strategy switches (engine, kernels, fusion,
    pool, jobs) this drops ``REPRO_CHECKPOINT``, which the system
    constructor reads on its own, and ``REPRO_GRAPH_CACHE``, which
    would make set-up read graphs from disk.  Returns the names cleared.
    """
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    return cleared


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"simbench: no simulator under {src}: {error}")
    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"simbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def fingerprint():
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def strategy():
    """The execution strategy the pinned environment resolves to."""
    from repro.sim.engine import fusion_cap_from_env, make_engine
    from repro.sim.kernels import kernels_mode

    return {
        "engine": type(make_engine()).__name__,
        "kernels": kernels_mode(),
        "fusion_cap": fusion_cap_from_env(),
        "processes": 1,
    }


def run_checked(workload, system, expected, records):
    """Run one built system; returns (result or None, host seconds)."""
    from repro.sim.engine import CycleLimitError, DeadlockError

    start = time.perf_counter()
    try:
        result = workload.run(system)
    except (CycleLimitError, DeadlockError) as error:
        elapsed = time.perf_counter() - start
        records.append({"host_s": elapsed,
                        "error": f"{type(error).__name__}: "
                                 f"{str(error).splitlines()[0]}"})
        return None, elapsed
    elapsed = time.perf_counter() - start
    records.append({"host_s": elapsed, "cycles": result.cycles,
                    "iterations": result.iterations,
                    "error": workload.check(expected, result)})
    return result, elapsed


def measure_setup(workload, seed, repeats, tracer=None):
    """Host seconds from workload inputs to a runnable system.

    Returns one total per repeat and, with a tracer, one self time per
    repeat for each set-up layer.
    """
    from workloads import cold_graph

    generate = cold_graph if tracer is None else tracer.wrap(
        "graph.generate", "datasets.load_benchmark", cold_graph)
    totals, layers = [], {}
    for _ in range(repeats):
        gc.collect()  # earlier systems' garbage is not set-up work
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        graph = generate(workload, seed)
        workload.build(graph, workload.config(), seed)
        totals.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.stop()
            for layer in SETUP_LAYERS:
                layers.setdefault(layer, []).append(tracer.self_s(layer))
    return totals, layers


def timed_run(workload, seeds, seconds):
    from workloads import cold_graph

    config = workload.config()
    instances = []
    for seed in seeds:
        graph = cold_graph(workload, seed)
        instances.append((seed, graph, workload.reference(graph)))
    # Set-up batches run before the first and after every simulation,
    # so their median samples the whole window, as the simulations do.
    setups = measure_setup(workload, seeds[0], SETUP_BATCH)[0]
    records, passes = [], []
    start = time.perf_counter()
    # Passes over every instance; another starts only if it should end
    # within the window, and the first always runs to the end.
    while not passes or (time.perf_counter() - start) * (
            len(passes) + 1) / len(passes) <= seconds:
        finished = []
        for seed, graph, expected in instances:
            gc.collect()  # the previous simulation's garbage, untimed
            result, elapsed = run_checked(
                workload, workload.build(graph, config, seed), expected,
                records)
            if result is None:
                break
            finished.append((result, elapsed))
            setups += measure_setup(workload, seed, SETUP_BATCH)[0]
        passes.append(finished)
        if len(finished) < len(instances):
            break  # deterministic: another pass would fail the same way
    first = passes[0]
    if any([r.cycles for r, _ in done] != [r.cycles for r, _ in first]
           for done in passes[1:]):
        records.append({"error": "repeated passes over one seed disagree"})
    cycles = sum(r.cycles for done in passes for r, _ in done)
    host_s = sum(elapsed for done in passes for _, elapsed in done)
    simulated_s = sum(r.seconds for r, _ in first)
    metrics = {
        "sim_cycles_per_s": cycles / host_s if host_s else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        # The modelled design's GTEPS over the instances back to back.
        "sim_gteps": (sum(r.edges_processed for r, _ in first)
                      / simulated_s / 1e9 if simulated_s else 0.0),
    }
    return metrics, dict(END_TO_END_UNITS), records


def traced_run(workload, seed):
    from layers import LayerTracer
    from workloads import cold_graph

    graph = cold_graph(workload, seed)
    config = workload.config()
    expected = workload.reference(graph)
    records = []
    plain_system = workload.build(graph, config, seed)
    plain, plain_s = run_checked(workload, plain_system, expected, records)
    if plain is None:
        return {}, {}, records
    tracer = LayerTracer()
    with tracer.installed():
        _, setup_layers = measure_setup(workload, seed, SETUP_REPEATS,
                                        tracer)
        system = workload.build(graph, config, seed)
        tracer.reset()
        traced, traced_s = run_checked(workload, system, expected, records)
        tracer.stop()
    if traced is None:
        return {}, {}, records
    perturbed = [
        what for what, same in (
            ("cycles", plain.cycles == traced.cycles),
            ("values", bool((plain.values == traced.values).all())),
            ("stats", plain.stats == traced.stats),
            ("fused_cycles", plain_system.engine.fused_cycles
             == system.engine.fused_cycles),
        ) if not same
    ]
    if perturbed:
        records.append({"error": "tracing changed the run: "
                                 + ", ".join(perturbed)})
    from metrics import layer_metrics

    metrics, units = layer_metrics(
        tracer, system, traced,
        {layer: statistics.median(times)
         for layer, times in setup_layers.items()},
        plain_s, traced_s)
    return metrics, units, records


def run_one(args):
    cleared = pin_environment()
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"simbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    if args.trace:
        # One instance: the per-layer split needs no averaging.
        seeds = [args.seed]
        metrics, units, records = traced_run(workload, args.seed)
    else:
        seeds = workload.timed_seeds(args.seed)
        metrics, units, records = timed_run(workload, seeds, args.seconds)
    errors = [r["error"] for r in records if r.get("error")]
    attempted = sum(1 for r in records if "host_s" in r)
    failed = sum(1 for r in records if "host_s" in r and r.get("error"))
    for name, value in metrics.items():
        print(f"{workload.name:22s} {name:34s} {value:>16.6g} {units[name]}")
    for error in errors:
        print(f"{workload.name:22s} FAILED {error}")
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "instance_seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint(),
        "strategy": strategy(),
        "environment_cleared": cleared,
        "runs": records,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"host {report['host']}  strategy {report['strategy']}  "
          f"report {path.relative_to(ROOT)}")
    return {
        "correct": not errors and bool(metrics),
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": report["metrics"],
    }


def run_all(args):
    """Every workload in its own process, one after the other."""
    pin_environment()
    import_program()
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    per_workload = {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True)
        *lines, last = completed.stdout.strip().splitlines() or [""]
        print("\n".join(lines))
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            raise SystemExit(f"simbench: workload {name} exited with "
                             f"{completed.returncode}")
        result = json.loads(last)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        per_workload[name] = result["metrics"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    if args.trace:
        from metrics import split_checks

        for description, holds in split_checks(per_workload):
            print(f"split {'holds' if holds else 'FAILS'}: {description}")
            summary["correct"] &= holds
    print(f"failed {summary['failed']} of {summary['attempted']} "
          f"operations attempted")
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    summary = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
