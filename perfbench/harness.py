"""Closed-loop harness for the kcut command line.

One caller in one process, no threads: each job is one call of
``kcut.cli.main`` with the graph text on stdin, and the next job starts
when it returns.  Before every job the ``lru_cache``s of the strength module
are cleared (where they still exist) and the garbage collector runs, so
every job starts cold.  A job that exits nonzero, crashes, answers wrongly
or runs past its time cap counts as failed; the loop goes on.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from check import WrongAnswer, check_answer
from graphs import Instance, instance

PACKAGE = "kcut"
JOB_CAP_S = 30.0  # a job running longer than this counts as failed
CACHED = ("principal_sequence", "strength")  # lru_cache'd in kcut.strength


@dataclass(frozen=True)
class Job:
    command: str  # metric group: psp, strength, pack_exact, lp, ...
    argv: tuple[str, ...]
    base: object  # graphs.BaseGraph
    copies: int = 1

    @property
    def key(self) -> str:
        return f"{' '.join(self.argv)} {self.base.name}"

    def instances(self, seed: int) -> list[Instance]:
        return [instance(self.base, seed, f"{self.key}#{c}") for c in range(self.copies)]


@dataclass
class Outcome:
    seconds: float
    status: str  # ok | exit<N> | crash | timeout | wrong
    stdout: str = ""
    detail: str = ""
    cache_hits: int = 0
    cache_calls: int = 0
    yardstick_s: float = 0.0


def yardstick() -> float:
    """Seconds taken by a fixed standard-library workload: exact rational
    sums and small dicts and lists, the kind of work kcut does, but no kcut
    code.  It runs right before and right after every job and every set-up,
    outside their timing.  The machine's speed drifts by up to 2x over
    minutes, and job time over yardstick time cancels that drift."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 5000):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[i % 97] = [acc.numerator % 1009, i]
    return time.perf_counter() - start


class JobTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so that no handler in
    the program under test can swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


@dataclass
class Program:
    """The imported package under test."""

    cli: object
    caches: list
    file: str

    def clear_caches(self) -> tuple[int, int]:
        """Clear the caches and return (hits, calls) they saw since the last clear."""
        hits = calls = 0
        for cache in self.caches:
            info = cache.cache_info()
            hits += info.hits
            calls += info.hits + info.misses
            cache.cache_clear()
        return hits, calls


def import_program(src: Path) -> Program:
    """Import kcut afresh from ``src`` (dropping any copy already imported)."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {src}")
    cli = importlib.import_module(PACKAGE + ".cli")
    strength = importlib.import_module(PACKAGE + ".strength")
    caches = [
        obj for obj in (getattr(strength, name, None) for name in CACHED)
        if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
    ]
    return Program(cli, caches, pkg.__file__)


def run_job(program: Program, inst: Instance, argv, cap_s: float) -> Outcome:
    program.clear_caches()
    gc.collect()
    if cap_s <= 0:
        return Outcome(0.0, "timeout", detail="run deadline reached before the job")
    before = yardstick()
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    previous = signal.signal(signal.SIGALRM, _alarm)
    status, detail, rc = "ok", "", None
    start = time.perf_counter()
    try:
        sys.stdin = io.StringIO(inst.text)
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = program.cli.main(list(argv))
        elapsed = time.perf_counter() - start
    except JobTimeout:
        elapsed = time.perf_counter() - start
        status, detail = "timeout", f"exceeded {cap_s:.1f} s"
    except Exception:  # a crash is a failed job, not the end of the run
        elapsed = time.perf_counter() - start
        status, detail = "crash", traceback.format_exc(limit=3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdin = stdin
    if status == "ok" and rc != 0:
        status, detail = f"exit{rc}", err.getvalue().strip()[:500]
    ruler = (before + yardstick()) / 2
    outcome = Outcome(elapsed, status, out.getvalue(), detail, yardstick_s=ruler)
    outcome.cache_hits, outcome.cache_calls = program.clear_caches()
    return outcome


def judge(outcome: Outcome, command: str, inst: Instance, reference: dict | None) -> None:
    """Turn an ok outcome into ``wrong`` when its answer does not check out."""
    if outcome.status != "ok":
        return
    if reference is None:
        outcome.status, outcome.detail = "wrong", "no reference recorded for this job"
        return
    try:
        check_answer(command, inst, json.loads(outcome.stdout), reference)
    except json.JSONDecodeError as exc:
        outcome.status, outcome.detail = "wrong", f"output is not JSON: {exc}"
    except WrongAnswer as exc:
        outcome.status, outcome.detail = "wrong", str(exc)


@dataclass
class Plan:
    """A workload for one seed: every job copy, in loop order."""

    jobs: list[Job]
    seed: int
    items: list[tuple[Job, Instance]] = field(default_factory=list)

    def __post_init__(self):
        self.items = [(job, inst) for job in self.jobs for inst in job.instances(self.seed)]


@dataclass
class PassResult:
    outcomes: list[Outcome]

    @property
    def wall_s(self) -> float:
        return sum(o.seconds for o in self.outcomes)


def fastest(passes: list[PassResult]) -> list[float]:
    """Each job's fastest time over ``passes``.  The machine's speed drifts
    by up to 2x for seconds at a time, so the fastest of several passes
    spread over the run is the steadiest estimate of a job's cost."""
    return [min(o.seconds for o in outcomes) for outcomes in zip(*(p.outcomes for p in passes))]


def in_yardsticks(passes: list[PassResult]) -> float:
    """One pass in units of the yardstick: for each job, the median over
    ``passes`` of its time over the mean yardstick time around it, summed
    over the jobs.  Taking the median per job drops a job's slow samples
    whichever pass they fall in."""
    total = 0.0
    for outcomes in zip(*(p.outcomes for p in passes)):
        ratios = [o.seconds / o.yardstick_s for o in outcomes if o.yardstick_s]
        total += statistics.median(ratios) if ratios else 0.0
    return total


def run_pass(program: Program, plan: Plan, references: dict, deadline: float) -> PassResult:
    outcomes = []
    for job, inst in plan.items:
        cap = min(JOB_CAP_S, deadline - time.perf_counter())
        outcome = run_job(program, inst, job.argv, cap)
        judge(outcome, job.command, inst, references.get(job.key))
        outcomes.append(outcome)
    return PassResult(outcomes)
