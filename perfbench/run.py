"""Benchmark of the kcut command line, end to end and layer by layer.

    python3 perfbench/run.py --workload attack-psp --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; kcut is imported from its ``src``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  Run details (kcut.__file__, commit, Python, CPU count, graph
digests, every job time) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from graphs import digest  # noqa: E402
from harness import Plan, fastest, import_program, in_yardsticks, run_pass, yardstick  # noqa: E402
from tracer import LAYERS, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170.0  # every run ends within 180 s
SETUP_REPEATS = 4  # per pass
# setup_s is set-up time in units of the yardstick, times the yardstick's
# median time on the 2-vCPU machine the benchmark was tuned on: seconds at
# that machine's speed, so that the machine's drift in speed cancels out.
YARDSTICK_REF_S = 0.012
PASS_SECONDS = 6  # --seconds buys one pass per this many seconds
TRACED_PASSES = 2  # the traced pass is budgeted as this many untraced ones
REFERENCES = HERE / "references.json"
OUT = HERE / "out"

# (metric, span name, field) read from the span summary of a traced pass
SPAN_METRICS = (
    ("flow.max_flow.calls", "flow.max_flow", "calls"),
    ("flow.max_flow.s", "flow.max_flow", "s"),
    ("strength.attack.calls", "strength.attack", "calls"),
    ("strength.attack.self_s", "strength.attack", "self_s"),
    ("strength.breakpoints.s", "strength.breakpoints", "s"),
    ("strength.principal_sequence.calls", "strength.principal_sequence", "calls"),
    ("simplex.solve_lp.calls", "simplex.solve_lp", "calls"),
    ("simplex.solve_lp.s", "simplex.solve_lp", "s"),
    ("packing.exact_pack.self_s", "packing.exact_pack", "self_s"),
    ("packing.mwu_pack.s", "packing.mwu_pack", "s"),
    ("packing.min_spanning_forest.calls", "packing.min_spanning_forest", "calls"),
    ("lp.lp_dual.self_s", "lp.lp_dual", "self_s"),
    ("lp.ideal_packing.s", "lp.ideal_packing", "s"),
    ("cuts.min_kcut.self_s", "cuts.min_kcut", "self_s"),
    ("cuts.enumerate_approx_kcuts.self_s", "cuts.enumerate_approx_kcuts", "self_s"),
    ("mincut.min_2respect.calls", "mincut.min_2respect", "calls"),
    ("mincut.min_2respect.s", "mincut.min_2respect", "s"),
    ("oracle.oracle_lp_value.self_s", "oracle.oracle_lp_value", "self_s"),
    ("oracle.oracle_min_kcut.s", "oracle.oracle_min_kcut", "s"),
    ("verify.run_verification.self_s", "verify.run_verification", "self_s"),
    ("graph.parse_graph.s", "graph.parse_graph", "s"),
    ("cli.main.self_s", "cli.main", "self_s"),
)
COUNTER_METRICS = (
    "simplex.lp_cells",
    "packing.support_trees",
    "cuts.candidates",
    "mincut.tree_pairs",
    "oracle.spanning_forests.count",
)
COMMANDS = (
    "psp", "strength", "pack_exact", "lp", "solve_exact",
    "solve_approx", "enumerate", "mincut", "verify",
)


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _setup(plan: Plan):
    """Import kcut afresh from the checkout, generate the workload's graph
    text and parse it.  Returns the program, the seconds it took and the
    yardstick's time around it (the mean of one run before and one after)."""
    before = yardstick()
    start = time.perf_counter()
    program = import_program(ROOT / "src")
    texts = [inst.text for _, inst in Plan(plan.jobs, plan.seed).items]
    for text in texts:
        program.cli.parse_graph(text)
    elapsed = time.perf_counter() - start
    ruler = (before + yardstick()) / 2
    if texts != [inst.text for _, inst in plan.items]:
        raise RuntimeError("the generator gave different text for the same seed")
    return program, elapsed, ruler


def _measure(plan, references, passes, deadline):
    """``passes`` untraced passes, each preceded by ``SETUP_REPEATS`` set-ups,
    so the set-up samples are spread over the run like the passes are.
    Returns the last program imported, the (seconds, yardstick seconds) of
    every set-up and the passes."""
    setups, results = [], []
    for _ in range(passes):
        for _ in range(SETUP_REPEATS):
            program, elapsed, ruler = _setup(plan)
            setups.append((elapsed, ruler))
        results.append(run_pass(program, plan, references, deadline))
    return program, setups, results


def _count_failures(results) -> tuple[int, int]:
    attempted = failed = 0
    for result in results:
        for o in result.outcomes:
            attempted += 1
            failed += o.status != "ok"
    return attempted, failed


def _layer_metrics(plan, untraced, traced, tracer) -> dict[str, float]:
    summary = summarize(tracer.spans)
    metrics: dict[str, float] = {}
    for metric, span, field in SPAN_METRICS:
        metrics[metric] = summary.get(span, {}).get(field, 0 if field == "calls" else 0.0)
    for metric in COUNTER_METRICS:
        metrics[metric] = tracer.counts[metric]
    candidates = tracer.counts["cuts.candidates"]
    metrics["cuts.distinct_ratio"] = tracer.counts["cuts.distinct"] / candidates if candidates else 0.0
    hits = sum(o.cache_hits for o in traced.outcomes)
    calls = sum(o.cache_calls for o in traced.outcomes)
    metrics["strength.cache_hit_ratio"] = hits / calls if calls else 0.0
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, row in summary.items():
        layer_self[span.split(".", 1)[0]] += row["self_s"]
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = seconds
    best = fastest(untraced)
    metrics["wall_s"] = sum(best)
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.unaccounted_s"] = traced.wall_s - sum(layer_self.values())
    metrics["trace.overhead_s"] = traced.wall_s - sum(best)
    metrics["trace.spans"] = len(tracer.spans)
    for command in COMMANDS:
        metrics[f"{command}_s"] = sum(t for (job, _), t in zip(plan.items, best) if job.command == command)
    return metrics


def _mark_changed_answers(untraced_last, traced) -> None:
    """Tracing must leave every answer byte-identical."""
    for before, after in zip(untraced_last.outcomes, traced.outcomes):
        if after.status == "ok" and after.stdout != before.stdout:
            after.status, after.detail = "wrong", "traced answer differs from the untraced one"


def _write_out(name: str, record: dict, spans=None) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with gzip.open(OUT / f"{name}.spans.jsonl.gz", "wt") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def benchmark(workload, seed, seconds, trace, workloads=WORKLOADS, references=None):
    """Run one workload; returns (result line, run record, spans or None)."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = Plan(workloads[workload], seed)
    if references is None:
        references = json.loads(REFERENCES.read_text())
    for job in plan.jobs:
        ref = references.get(job.key)
        if ref is not None and ref["digest"] != digest(job.base.text()):
            raise RuntimeError(f"reference for {job.key!r} was recorded on another graph")
    answers = {key: ref["answer"] for key, ref in references.items()}

    # A fixed number of passes for given --seconds, so that the estimate
    # (each job's fastest time) is taken over the same number of samples
    # however fast the machine happens to be during the run.
    passes = max(1, int(seconds // PASS_SECONDS))
    spans = None
    if trace:
        passes = max(1, passes - TRACED_PASSES)
        program, setup_times, untraced = _measure(plan, answers, passes, deadline)
        with Tracer() as tracer:
            traced = run_pass(program, plan, answers, deadline)
        _mark_changed_answers(untraced[-1], traced)
        values = _layer_metrics(plan, untraced, traced, tracer)
        results = untraced + [traced]
        spans = tracer.spans
        names = spec["per_layer"]
    else:
        program, setup_times, untraced = _measure(plan, answers, passes, deadline)
        values = {
            "setup_s": YARDSTICK_REF_S * statistics.median(t / r for t, r in setup_times),
            "wall_per_yardstick": in_yardsticks(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        results = untraced
        names = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in names}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    attempted, failed = _count_failures(results)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "kcut_file": program.file,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "setup_s": [t for t, _ in setup_times],
        "setup_yardstick_s": [r for _, r in setup_times],
        "passes": len(results),
        "jobs": [
            {
                "key": job.key,
                "digest": digest(inst.text),
                "base_digest": digest(job.base.text()),
                "seconds": [r.outcomes[i].seconds for r in results],
                "yardstick_s": [r.outcomes[i].yardstick_s for r in results],
                "status": [r.outcomes[i].status for r in results],
                "detail": next((r.outcomes[i].detail for r in results if r.outcomes[i].detail), ""),
            }
            for i, (job, inst) in enumerate(plan.items)
        ],
        "result": line,
        "run_s": time.perf_counter() - started,
    }
    return line, record, spans


def main(argv=None, workloads=WORKLOADS, references=None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line, record, spans = benchmark(
            args.workload, args.seed, args.seconds, args.trace, workloads, references
        )
    except (ImportError, OSError, RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_out(f"{args.workload}-seed{args.seed}-trace{args.trace}", record, spans)
    for job in record["jobs"]:
        times = " ".join(f"{s:.3f}" for s in job["seconds"])
        print(f"{job['key']:<48} {job['digest']} {','.join(sorted(set(job['status'])))} {times}", file=out)
        if job["detail"]:
            print(f"    {job['detail']}", file=out)
    print(
        f"kcut {record['kcut_file']} commit {record['commit']} python {record['python']} "
        f"nproc {record['nproc']} passes {record['passes']} "
        f"fail_ratio {line['failed'] / line['attempted']:.4f}",
        file=out,
    )
    print(json.dumps(line), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
