"""spreadcheck benchmark.

    python3 perfbench/run.py --workload subgroups|witnesses|large-groups|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.  One
workload runs in this process; ``--workload all`` runs each workload in a
fresh process of its own, one after another.

With ``--trace 0`` the run sets up the catalog ``setup_reps`` times, then
answers the workload's questions in whole rounds until ``--seconds`` have
passed, at least one round.  It reports the median
set-up time, the median round time and the peak resident memory.  With
``--trace 1`` it runs one untraced and one traced pass of set-up and one
round, and reports per-layer times.  Either way every answer is checked, and
the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NAMES = ("subgroups", "witnesses", "large-groups")
MULTIPLY_SAMPLE = 100_000

# per-layer metric -> span name; the metric is the total time of the calls
# into that entry point from other layers, with all they call
SPAN_METRICS = {
    "perm.schreier_sims_s": "perm.schreier_sims",
    "perm.set_orbit_s": "perm.set_orbit",
    "perm.elements_s": "perm.elements",
    "tables.build_s": "tables.build",
    "tables.classes_s": "tables.classes",
    "tables.validate_subgroup_s": "tables.validate_subgroup",
    "tables.coset_space_s": "tables.coset_space",
    "autos.group_s": "autos.group",
    "diagonal.build_s": "diagonal.build",
    "witness.diagonal_s": "witness.diagonal",
    "witness.verify_s": "witness.verify",
    "witness.pair_s": "witness.pair",
    "witness.supplement_T_s": "witness.supplement_T",
    "witness.supplement_Aut_s": "witness.supplement_Aut",
    "witness.orbit_count_s": "witness.orbit_count",
    "witness.two_point_s": "witness.two_point",
    "chartab.dixon_s": "chartab.dixon",
    "chartab.triple_search_s": "chartab.triple_search",
    "chartab.char_witness_s": "chartab.char_witness",
    "cyclotomic.orthogonality_s": "cyclotomic.orthogonality",
    "catalog.entry_s": "catalog.entry",
    "catalog.recipe_s": "catalog.recipe",
}
LAYER_TOTALS = ("perm", "tables", "autos", "diagonal", "witness", "chartab", "catalog")
COUNT_METRICS = ("perm.set_orbit_images", "tables.cosets")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def time_setup(workload, catalog) -> float:
    catalog.clear_caches()
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def time_round(workload, inputs):
    gc.collect()
    start = time.perf_counter()
    out, attempted, failed = workload.run_round(inputs)
    return out, attempted, failed, time.perf_counter() - start


def timed_run(workload, inputs, seconds: float, catalog):
    setup = [time_setup(workload, catalog) for _ in range(workload.setup_reps)]
    rounds, outputs = [], []
    attempted = failed = 0
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < seconds:
        out, att, fail, elapsed = time_round(workload, inputs)
        rounds.append(elapsed)
        outputs.append(out)
        attempted += att
        failed += fail
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "solve_s": metric(statistics.median(rounds), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    notes = [f"set-up runs {len(setup)}: " + " ".join(f"{s:.3f}" for s in setup),
             f"rounds {len(rounds)}: " + " ".join(f"{s:.3f}" for s in rounds)]
    return outputs, attempted, failed, metrics, notes


def one_pass(workload, inputs, catalog):
    setup = time_setup(workload, catalog)
    out, attempted, failed, elapsed = time_round(workload, inputs)
    return out, attempted, failed, setup + elapsed


def multiply_rate(table, rng) -> float:
    """Products per second over a seeded sample of index pairs; median of three."""
    n = len(table)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(MULTIPLY_SAMPLE)]
    mul = table.multiply
    rates = []
    for _ in range(3):
        start = time.perf_counter()
        for i, j in pairs:
            mul(i, j)
        rates.append(len(pairs) / (time.perf_counter() - start))
    return statistics.median(rates)


def traced_run(workload, inputs, seed: int, catalog):
    from spans import Tracer

    out, attempted, failed, untraced = one_pass(workload, inputs, catalog)
    tracer = Tracer()
    tracer.install()
    try:
        traced_out, att, fail, wall = one_pass(workload, inputs, catalog)
    finally:
        tracer.uninstall()
    table = catalog.load_group_table(workload.largest_group())
    rate = multiply_rate(table, random.Random(f"{seed}:multiply"))

    totals, selfs = tracer.times()
    metrics = {name: metric(totals.get(span, 0.0), "s") for name, span in SPAN_METRICS.items()}
    metrics["tables.multiply_per_s"] = metric(rate, "1/s")
    for layer in LAYER_TOTALS:
        own = sum(v for k, v in selfs.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = metric(own, "s")
    # the command layer's own work: parsing, reports, reading files
    metrics["cli.command_s"] = metric(selfs.get("cli.command", 0.0), "s")
    metrics["cli.commands"] = metric(sum(1 for s in tracer.spans if s[0] == "cli.command"), "count")
    for name in COUNT_METRICS:
        metrics[name] = metric(tracer.counts.get(name, 0), "count")
    metrics["trace.wall_s"] = metric(wall, "s")
    metrics["trace.untraced_wall_s"] = metric(untraced, "s")
    metrics["trace.overhead_pct"] = metric(100 * (wall / untraced - 1), "%")
    metrics["trace.coverage_pct"] = metric(100 * sum(selfs.values()) / wall, "%")
    notes = [f"untraced {untraced:.3f} s, traced {wall:.3f} s, "
             f"layer self times cover {metrics['trace.coverage_pct']['value']:.1f}%"]
    notes += [f"not traced (missing): {name}" for name in tracer.missing]
    notes += [f"  {name:28s} {m['value']:.4f} {m['unit']}" for name, m in sorted(metrics.items())]
    return [out, traced_out], attempted + att, failed + fail, metrics, notes


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "spreadcheck", "__init__.py")):
        print(f"error: no spreadcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from spreadcheck import catalog

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        inputs = workload.make_inputs(random.Random(args.seed), workdir)
        if args.trace:
            outputs, attempted, failed, metrics, notes = traced_run(workload, inputs, args.seed, catalog)
        else:
            outputs, attempted, failed, metrics, notes = timed_run(workload, inputs, args.seconds, catalog)
        try:
            problems = workload.check(outputs[0])
        except Exception as exc:  # output so malformed that a checker could not read it
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if any(out != outputs[0] for out in outputs[1:]):
        problems.append("rounds gave different answers")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(note)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one summary line per metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:28s} {m['value']:.4f} {m['unit']}")
            combined["metrics"][f"{name}.{key}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
