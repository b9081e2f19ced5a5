"""End-to-end and per-layer benchmark for plumbjsj.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one thread, a closed loop with
one client: each op starts when the previous one has returned.  The seed
generates the inputs (see ``inputs.py``) and shuffles their order; the
library only sees them as objects or graph files.  The loop makes whole
passes over the inputs until ``--seconds`` have passed, so every input
counts equally, and at least until the tail percentile has TAIL_BEYOND
samples beyond it.  Every answer is checked outside the timed span.

With ``--trace 0`` the run prints the end-to-end metrics: ``ops_per_s`` (ops
over the passes' wall time), ``latency_p50_ms``, ``latency_tail_ms`` (at the
workload's fixed percentile, see ``workloads.py``), ``setup_s`` (the fastest
set-up: import, backend selection, input generation and writing, done at the
start and again, untimed as ops, about SETUP_REPEATS times spread over the
run), ``peak_rss_mb`` and ``error_rate`` (failed / attempted ops).
With ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics of ``tracing.py``: counts from one pass, times as the
median over traced passes, and the tracing overhead as the median over pass
pairs of traced minus untraced pass time.  Either way the last stdout line
is one JSON object, and a ``BENCH_*.json`` with the run's metadata (backend,
Python, CPU count, git SHA, seed, tail percentile, samples in all and beyond
the tail) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 20
WARMUP_S = 1.0
TAIL_BEYOND = 10


def load_library():
    """Import plumbjsj afresh (dropping any earlier import), which also
    selects the kernel backend; return its modules by layer name."""
    for name in [m for m in sys.modules if m == "plumbjsj" or m.startswith("plumbjsj.")]:
        del sys.modules[name]
    import plumbjsj
    from plumbjsj import _kernel, arith, cli, diagram, graph, graphfile, reduction, report

    return SimpleNamespace(
        package=plumbjsj, cli=cli, graphfile=graphfile, graph=graph, kernel=_kernel,
        reduction=reduction, report=report, arith=arith, diagram=diagram,
    )


def set_up(workload, seed, workdir, size):
    """Import, select the backend and generate and write the inputs; return
    the library, the inputs and the set-up's time.  The same seed gives the
    same inputs, in the same order, every time."""
    gc.collect()  # so that garbage from an earlier set-up is not charged to this one
    started = perf_counter()
    lib = load_library()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    rng = random.Random(seed)
    items = workload.setup(lib, rng, workdir, size)
    rng.shuffle(items)
    return lib, items, perf_counter() - started


class Results:
    """What a run keeps of its ops: how many there were and how many raised,
    and for each distinct (input, answer key) pair the first full answer, to
    check, and how many ops gave it.  Keeping counts rather than answers
    holds memory to the number of distinct answers, not of ops, so that
    peak_rss_mb does not grow with the program's speed."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.raised = 0
        self.slots: dict = {}
        self.answers: list = []
        self.uses: list = []

    def add(self, idx, item, answer):
        self.attempted += 1
        if isinstance(answer, Exception):
            self.raised += 1
            if self.raised <= 3:
                traceback.print_exception(answer, file=sys.stderr)
            return
        key, full = self.workload.record(item, answer)
        slot = self.slots.setdefault((idx, key), len(self.slots))
        if slot == len(self.answers):
            self.answers.append((idx, full))
            self.uses.append(0)
        self.uses[slot] += 1

    def failed(self, items):
        """Ops that raised, failed their check, or differ from the first
        answer to the same input: that first answer, checked, is the
        reference every repeat must reproduce byte for byte."""
        good = []
        first: dict = {}
        for slot, (idx, answer) in enumerate(self.answers):
            try:
                self.workload.check(items[idx], answer)
                ok = True
            except checks.CheckError as exc:
                print(f"check failed on input {idx}: {exc}", file=sys.stderr)
                ok = False
            if first.setdefault(idx, slot) != slot:
                print(f"input {idx}: answer differs from its first", file=sys.stderr)
                ok = False
            good.append(ok)
        return self.raised + sum(n for n, ok in zip(self.uses, good) if not ok)


def run_op(lib, workload, item):
    started = perf_counter()
    try:
        answer = workload.op(lib, item)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        answer = exc
    return perf_counter() - started, answer


def warm_up(lib, workload, items, seconds):
    """Run ops untimed and unchecked for ``seconds`` (at least one op)."""
    deadline = perf_counter() + seconds
    for i in itertools.count():
        run_op(lib, workload, items[i % len(items)])
        if perf_counter() >= deadline:
            return


def one_pass(lib, workload, items, results, tracer=None):
    """Run every input once, in order; return the pass's wall time."""
    started = perf_counter()
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.op_id += 1
        _, answer = run_op(lib, workload, item)
        results.add(idx, item, answer)
    return perf_counter() - started


def closed_loop(lib, workload, items, seconds, results, probe_setup):
    """Whole passes over the input pool until ``seconds`` have passed and the
    tail percentile has TAIL_BEYOND samples beyond it, so that every input
    counts equally.  Between two ops, once seconds / SETUP_REPEATS have gone
    by since the last one, ``probe_setup()`` sets up afresh and returns its
    time, which the passes' wall time leaves out: the set-up times then
    sample the host's speed over the whole run, not at one moment.  Return
    the latencies, the passes' wall time and the set-up times."""
    latencies, setup_times = array("d"), []
    wall = 0.0
    interval = seconds / SETUP_REPEATS
    next_probe = perf_counter() + interval
    while wall < seconds or beyond(len(latencies), workload.tail_percentile) < TAIL_BEYOND:
        started = perf_counter()
        for idx, item in enumerate(items):
            latency, answer = run_op(lib, workload, item)
            latencies.append(latency)
            results.add(idx, item, answer)
            paused = perf_counter()
            if paused >= next_probe:
                setup_times.append(probe_setup())
                resumed = perf_counter()
                started += resumed - paused
                next_probe = resumed + interval
        wall += perf_counter() - started
    return latencies, wall, setup_times


def rank(n, percentile):
    """The nearest rank of ``percentile`` among ``n`` samples (at least 1)."""
    return max(1, math.ceil(percentile / 100 * n))


def beyond(n, percentile):
    """How many of ``n`` samples lie beyond ``percentile``."""
    return n - rank(n, percentile) if n else 0


def tail(latencies, percentile):
    """The latency at ``percentile`` (nearest rank) and how many samples lie
    beyond it."""
    ordered = sorted(latencies)
    return ordered[rank(len(ordered), percentile) - 1], beyond(len(ordered), percentile)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha():
    """The checkout's commit from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(lib, workload, items, seconds, first_setup, probe_setup):
    results = Results(workload)
    latencies, wall, more = closed_loop(lib, workload, items, seconds, results, probe_setup)
    rss = peak_rss_mb()  # before the checks and the sort below allocate
    setup_times = [first_setup, *more]
    failed = results.failed(items)
    tail_value, n_beyond = tail(latencies, workload.tail_percentile)
    metrics = {
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        # Best of many short set-ups spread over the run: the host's speed
        # swings by up to a third from one second to the next, and the
        # fastest set-up reflects that least.
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {
        "latency_tail_percentile": workload.tail_percentile,
        "latency_samples": len(latencies),
        "latency_samples_beyond_tail": n_beyond,
        "timed_wall_s": wall,
        "setup_s_each": setup_times,
    }
    return len(latencies), failed, metrics, extra


def per_layer(lib, workload, items, seconds, spans_path):
    tracer = tracing.Tracer()
    results = Results(workload)
    passes = []
    deadline = perf_counter() + seconds
    while True:
        plain = one_pass(lib, workload, items, results)
        first = len(tracer.start)
        tracer.counts.clear()
        tracer.install(lib)
        try:
            traced = one_pass(lib, workload, items, results, tracer=tracer)
        finally:
            tracer.uninstall()
        spans = tracer.self_times(first)
        passes.append((plain, traced, spans, Counter(tracer.counts)))
        if first:  # keep the first traced pass's spans for the trace file
            tracer.truncate(first)
        if perf_counter() >= deadline:
            break
    tracer.write(spans_path)
    failed = results.failed(items)

    per_pass = [tracing.layer_metrics(spans, counts) for _, _, spans, counts in passes]
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in per_pass)
        metrics[name] = (value, unit)
    overhead = statistics.median(t - p for p, t, _, _ in passes)
    metrics["trace.overhead_s"] = (overhead, "s")
    counts_repeat = all(
        {k: v for k, (v, u) in m.items() if u != "s"}
        == {k: v for k, (v, u) in per_pass[0].items() if u != "s"}
        for m in per_pass
    )
    layer_self = {
        layer: statistics.median(tracing.layer_self_times(spans)[layer] for _, _, spans, _ in passes)
        for layer in tracing.LAYERS
    }
    extra = {
        "passes": len(passes),
        "ops_per_pass": len(items),
        "untraced_pass_s": [p for p, _, _, _ in passes],
        "traced_pass_s": [t for _, t, _, _ in passes],
        "counts_repeat_across_passes": counts_repeat,
        "layer_self_s": layer_self,
        "largest_self_layer": max(layer_self, key=layer_self.get),
        "spans_file": spans_path.name,
    }
    return results.attempted, failed, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "plumbjsj" / "__init__.py").is_file():
        print(f"error: no plumbjsj sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"

    def probe_setup():
        """Set up again in a directory of its own, keeping only the time."""
        return set_up(workload, args.seed, rundir / "probe", workload.size)[2]

    try:
        lib, items, setup_time = set_up(workload, args.seed, rundir / "inputs", workload.size)
        warm_up(lib, workload, items, WARMUP_S)
        if args.trace:
            attempted, failed, metrics, extra = per_layer(
                lib, workload, items, args.seconds, OUT / f"spans_{tag}.tsv")
        else:
            attempted, failed, metrics, extra = end_to_end(
                lib, workload, items, args.seconds, setup_time, probe_setup)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": len(items),
        "kernel_backend": lib.package.KERNEL_BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        **extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} backend={record['kernel_backend']}"
          f" python={record['python']} nproc={record['nproc']} git={record['git_sha'][:12]}")
    for key, value in extra.items():
        if isinstance(value, dict):
            value = " ".join(f"{k}={v:.4g}" for k, v in value.items())
        print(f"# {key} = {value}")
    for name, (value, unit) in [*metrics.items(), ("error_rate", (record["error_rate"], "1"))]:
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
