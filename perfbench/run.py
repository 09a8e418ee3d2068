#!/usr/bin/env python3
"""Benchmark for liedouble: closed-loop workloads through ``run_command``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gln_verify --seed 1 --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` alternates untraced and traced passes and reports per-layer
self times, exact call counts, the scalar microkernel and the tracing
overhead.  A table of every metric, with units and sample counts, goes to
stdout; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics named in BENCHMARK.json.  All metrics, the input
descriptors and the spans of one traced pass are also written under
``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import densegen
import kernel
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench_out")
# Set-up is sampled in bursts between passes, so that its median does not
# hang on one stretch of machine load: a burst before the first pass and
# after each pass until SETUP_SPAWNS samples are taken.
SETUP_BURST = 3
SETUP_SPAWNS = 24
SETUP_CODE = "import liedouble.cli as cli; cli.build_parser()"

# The end-to-end metrics on the JSON line.  The table adds, not gated: the
# median op latency op_p50_s, and the median of every op kind (verify_s.n2,
# verify_s.n4, verify_s.n6 on gln_verify).  op_p50_s falls in a cluster of
# short ops and swings from run to run with the machine's second-to-second
# speed, by more than the largest bound BENCHMARK.json allows.
E2E_METRICS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Per-layer metrics that go on the JSON line: the scalar counters, the call
# counts of the functions later optimisations target, and the self times
# that are nonzero on all three workloads (an idle layer reads 0).  The table
# and the output file carry every target's self time and call count.
LAYER_TIMES = ("manin.check_compatibility", "manin.build_double", "cli.run_command")
LAYER_TOTALS = ("liealg", "manin", "cli")
LAYER_COUNTS = (
    "liealg.Matrix.inverse", "liealg.check_jacobi", "manin.check_compatibility",
    "manin.build_double", "bialg.express_in_basis", "bialg.TwoTensor.transport",
    "glnfactory.build_gln_triple", "glnfactory.build_gln_tn", "algfile.parse_algebra_file",
)


def measure_setup(n: int) -> list[float]:
    """Wall time of fresh interpreters that import liedouble and build the parser."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


class Pass:
    """One closed-loop pass over a workload's op list."""

    def __init__(self, cli, ops, tracer=None):
        self.latencies: list[tuple[str, float]] = []
        outputs = []
        start = time.perf_counter()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                code = cli.run_command(list(op.argv), stdout=out, stderr=err)
            except Exception as exc:  # an exception is a failed op, not a crash
                code = f"exception {type(exc).__name__}: {exc}"
            self.latencies.append((op.label, time.perf_counter() - t0))
            outputs.append((op, code, out.getvalue()))
        self.wall = time.perf_counter() - start
        self.outputs = outputs


def check(workload, expected, passes) -> list[str]:
    problems = []
    for p in passes:
        for op, code, stdout in p.outputs:
            why = workloads.failure(workload, expected, op, code, stdout)
            if why:
                problems.append(f"{op.key}: {why}")
    return problems


def quantile(values, q: float) -> float:
    """The q-quantile by linear interpolation between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def e2e_metrics(setup, passes) -> tuple[dict, dict, list[str]]:
    """(gated values, other latencies, table rows) of an untraced run."""
    lat = [t for p in passes for _, t in p.latencies]
    walls = [p.wall for p in passes]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "op_p90_s": quantile(lat, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(t > values["op_p90_s"] for t in lat)
    notes = {
        "setup_s": f"median of {len(setup)} interpreter starts",
        "wall_s": f"median of {len(walls)} passes",
        "op_p90_s": f"{len(lat)} op samples, {beyond} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    rows = [f"  {name:<28} {values[name]:>14.6f} {unit:<5} ({notes[name]})"
            for name, unit in E2E_METRICS]
    others = {"op_p50_s": quantile(lat, 0.5)}
    rows.append(f"  {'op_p50_s':<28} {others['op_p50_s']:>14.6f} s     ({len(lat)} op samples)")
    by_label: dict[str, list[float]] = {}
    for p in passes:
        for label, t in p.latencies:
            by_label.setdefault(label, []).append(t)
    for label, ts in by_label.items():
        name = f"verify_s.{label}" if label.startswith("n") else f"op_s.{label}"
        others[name] = statistics.median(ts)
        rows.append(f"  {name:<28} {others[name]:>14.6f} s     (median of {len(ts)})")
    return values, others, rows


def traced_run(cli, workload, deadline):
    """Alternate untraced and traced passes until the time is used."""
    plain, traced, tracers = [], [], []
    while True:
        problems = spans.leftover_wrappers()
        if problems:
            raise RuntimeError(f"wrappers left before an untraced pass: {problems}")
        plain.append(Pass(cli, workload.ops))
        with spans.Tracer() as tracer:
            traced.append(Pass(cli, workload.ops, tracer))
        tracers.append(tracer)
        pair = plain[-1].wall + traced[-1].wall
        if time.perf_counter() + pair > deadline:
            return plain, traced, tracers


def layer_metrics(plain, traced, tracers) -> tuple[dict, dict]:
    """(all per-layer values, units) from the traced passes."""
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    per_pass = [spans.self_times(t.spans) for t in tracers]
    counts = [spans.call_counts(t.spans) + t.counts for t in tracers]
    for name, _, _ in spans.TARGETS:
        values[f"{name}.self_s"] = statistics.median(s.get(name, 0.0) for s in per_pass)
        values[f"{name}.calls"] = counts[0][name]
        units[f"{name}.self_s"], units[f"{name}.calls"] = "s", "count"
    for layer in spans.LAYERS:
        total = [sum((v for k, v in s.items() if k.startswith(layer + ".")), 0.0) for s in per_pass]
        values[f"{layer}.self_s"] = statistics.median(total)
        units[f"{layer}.self_s"] = "s"
    for name, _ in spans.SCALAR_COUNTERS:
        values[f"{name}.calls"] = counts[0][name]
        units[f"{name}.calls"] = "count"
    values["algfile.bytes_parsed"] = counts[0]["algfile.bytes_parsed"]
    units["algfile.bytes_parsed"] = "count"
    untraced = statistics.median(p.wall for p in plain)
    values["trace.overhead_frac"] = (statistics.median(p.wall for p in traced) - untraced) / untraced
    units["trace.overhead_frac"] = "frac"
    values["trace.counts_repeat"] = int(all(c == counts[0] for c in counts))
    units["trace.counts_repeat"] = "bool"
    return values, units


def json_layer_names() -> list[str]:
    names = [f"scalars.{op}_ns.{pool}" for op in ("mul", "add") for pool in ("small", "dense")]
    names += ["scalars.inverse_ns.dense", "scalars.str_ns.dense", "scalars.parse_ns.dense"]
    names += [f"{name}.calls" for name, _ in spans.SCALAR_COUNTERS]
    names += [f"{name}.calls" for name in LAYER_COUNTS]
    names += ["algfile.bytes_parsed"]
    names += [f"{name}.self_s" for name in LAYER_TIMES]
    names += [f"{layer}.self_s" for layer in LAYER_TOTALS]
    names += ["trace.overhead_frac"]
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "liedouble" / "cli.py").is_file():
        print(f"error: no liedouble sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["LIEDOUBLE_VERBOSITY"] = str(workloads.TEXT_COUNTEREXAMPLES)

    workload = workloads.build(args.workload, args.seed)  # untimed input generation
    expected = workloads.load_expected()
    if args.trace == 0:
        measure_setup(1)  # compiles the bytecode once, untimed
    else:
        dense = kernel.dense_texts(workload.pairs or densegen.generate(args.seed))

    import liedouble.cli as cli
    from liedouble.scalars import scalar_parse

    start = time.perf_counter()
    deadline = start + args.seconds
    Pass(cli, workload.ops[:1])  # warm-up, unchecked
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"  inputs: {json.dumps(workload.descriptors, sort_keys=True)}")
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "inputs": workload.descriptors}
    if args.trace == 0:
        passes, setup = [], []
        while True:
            if len(setup) < SETUP_SPAWNS:
                setup += measure_setup(SETUP_BURST)
            passes.append(Pass(cli, workload.ops))
            if time.perf_counter() + statistics.median(p.wall for p in passes) > deadline:
                break
        setup += measure_setup(max(0, min(SETUP_BURST, SETUP_SPAWNS - len(setup))))
        values, record["not_gated"], rows = e2e_metrics(setup, passes)
        units = dict(E2E_METRICS)
        names = [name for name, _ in E2E_METRICS]
    else:
        plain, traced, tracers = traced_run(cli, workload, deadline)
        passes = plain + traced
        values, units = layer_metrics(plain, traced, tracers)
        values.update(kernel.run(scalar_parse, dense))
        units.update({k: "ns" for k in values if "_ns." in k})
        rows = [f"  {k:<40} {v:>16.6f} {units[k]}" if isinstance(v, float)
                else f"  {k:<40} {v:>16d} {units[k]}" for k, v in sorted(values.items())]
        rows.append(f"  ({len(traced)} traced and {len(plain)} untraced passes)")
        names = json_layer_names()
        record["spans"] = tracers[0].spans
    problems = check(workload, expected, passes)
    attempted = sum(len(p.outputs) for p in passes)
    for row in rows:
        print(row)
    fail_frac = len(problems) / attempted
    print(f"  {'fail_frac':<28} {fail_frac:>14.6f} frac  ({len(problems)} of {attempted} ops)")
    for problem in problems[:10]:
        print(f"  FAILED {problem}")

    record.update(values=values, units=units, problems=problems, attempted=attempted)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
