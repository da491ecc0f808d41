"""Seconds-long self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs one tiny job per command through the same entry point as the real
workloads and checks that:

- the generator gives byte-identical text for a seed, other text for
  another seed, and the base graph itself for copy 0 on any seed;
- every workload job has a reference recorded on its own base graph;
- the tracer rebinds every name of a wrapped function and restores them;
- the printed metric names and units are those of BENCHMARK.json;
- count metrics repeat exactly from one traced run to the next;
- a corrupted reference and a hit time cap both count as failures.
"""

from __future__ import annotations

import io
import json
import sys

from run import REFERENCES, ROOT, main
import harness
from graphs import digest, instance
from tracer import Tracer
from workloads import SMOKE, WORKLOADS


def _run(trace: int, references=None) -> dict:
    out = io.StringIO()
    argv = ["--workload", "smoke", "--seed", "7", "--seconds", "0.5", "--trace", str(trace)]
    if main(argv, workloads={"smoke": SMOKE}, references=references, out=out) != 0:
        raise AssertionError("the smoke workload did not produce a result")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _names(line: dict, metrics: list[dict]) -> None:
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    want = {m["name"]: m["unit"] for m in metrics}
    assert got == want, f"printed metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"


def check_generator() -> None:
    base = SMOKE[-1].base
    a = instance(base, 11, "k#1").text
    assert a == instance(base, 11, "k#1").text, "same seed, different text"
    assert a != instance(base, 12, "k#1").text, "different seeds, same text"
    assert instance(base, 11, "k#0").text == base.text(), "copy 0 is not the base graph"
    references = json.loads(REFERENCES.read_text())
    for jobs in WORKLOADS.values():
        for job in jobs:
            ref = references.get(job.key)
            assert ref is not None, f"no reference for {job.key!r}"
            assert ref["digest"] == digest(job.base.text()), f"stale reference for {job.key!r}"


def check_tracer() -> None:
    program = harness.import_program(ROOT / "src")
    kcut = sys.modules["kcut"]
    flow, oracle, packing = (sys.modules[f"kcut.{m}"] for m in ("flow", "oracle", "packing"))

    def bindings():
        return (kcut.strength, packing._strength, oracle.solve_lp, flow.FlowNetwork.max_flow)

    originals = bindings()
    with Tracer():
        wrapped = bindings()
        assert all(w is not o for w, o in zip(wrapped, originals)), "a binding escaped wrapping"
        assert packing.solve_lp is oracle.solve_lp, "one function got two wrappers"
        assert kcut.strength is packing._strength, "one function got two wrappers"
    restored = bindings()
    assert all(r is o for r, o in zip(restored, originals)), "a binding was not restored"
    assert program.caches, "the strength caches were not found"


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    line = _run(0)
    _names(line, spec["end_to_end"])
    assert line["correct"] and line["failed"] == 0, line

    first, second = _run(1), _run(1)
    _names(first, spec["per_layer"])
    assert first["correct"] and first["failed"] == 0, first
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], f"{name} did not repeat"
    assert first["metrics"]["flow.max_flow.calls"]["value"] > 0

    references = json.loads(REFERENCES.read_text())
    references["psp C5"]["answer"]["levels"][0]["lambda"] = "99/1"
    line = _run(0, references)
    assert line["failed"] >= 1 and not line["correct"], "a corrupted reference went unnoticed"

    cap = harness.JOB_CAP_S
    harness.JOB_CAP_S = 1e-4
    try:
        line = _run(0)
    finally:
        harness.JOB_CAP_S = cap
    assert line["failed"] == line["attempted"], "a hit time cap did not count as a failure"


if __name__ == "__main__":
    check_generator()
    check_tracer()
    check_runs()
    print("selftest ok")
    sys.exit(0)
