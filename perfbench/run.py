"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload parks-eg --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the engine is imported from ``src/``
of the checkout that holds this file.  The workload's inputs are made from
``--seed``.  Passes of the workload's fixed operation list run in a closed
loop on one thread (each operation starts when the previous one returns)
until ``--seconds`` have passed; the first pass is always completed.  Times
are in reference seconds, which a slower host does not raise (``speed.py``).
Every answer is checked outside the timed region.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run, whose spans
are also written to ``.perfbench_out/``.  The last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 unless an answer was wrong.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from speed import CHUNK_REF_S, SpeedSampler
from tracing import PARSE, PER_LAYER, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 9
OP_CAP_S = 60.0  # per-operation wall-clock cap, enforced with SIGALRM

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class OpCapped(BaseException):
    """Raised from the SIGALRM handler into an operation that ran past the
    cap.  A BaseException, so no ``except Exception`` in the engine can
    swallow it."""


def _on_alarm(_signum, _frame):
    raise OpCapped()


def fresh_nexus():
    """Import ``nexus`` from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "nexus" or m.startswith("nexus.")]:
        del sys.modules[name]
    for name in ("nexus", "nexus.cli", "nexus.oracles"):
        importlib.import_module(name)
    return sys.modules["nexus"]


def timed_setups(workload, seed: int, workdir: Path, sampler=None):
    """Median of several complete set-ups: import, generate, render, parse.
    In reference seconds when a ``SpeedSampler`` runs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        nx = fresh_nexus()
        workload.setup(nx, seed, ROOT, workdir)
        end = time.perf_counter()
        times.append(sampler.reference_s(start, end) if sampler else end - start)
    return nx, statistics.median(times)


def run_pass(workload, tracer=None, op_base: int = 0, deadline: float | None = None):
    """One pass of the workload's operations.  Returns a list of
    ``(label, (start, end), status, answer)``; a capped operation ends the
    pass, and so does the first operation to end past ``deadline``."""
    records = []
    for i, op in enumerate(workload.pass_ops()):
        if tracer is not None:
            tracer.op = op_base + i
        answer, status = None, "ok"
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        try:
            answer = op.call()
        except OpCapped:
            status = "capped"
        except Exception as exc:  # an engine error fails the operation, not the run
            status = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        span = (start, time.perf_counter())
        if status == "ok" and op.collect is not None:
            answer = op.collect(answer)
        records.append((op.label, span, status, answer))
        if status == "capped" or (deadline is not None and span[1] >= deadline):
            break
    return records


def run_passes(workload, seconds: float, tracer=None):
    """Passes until ``seconds`` have passed.  The first pass is always
    completed, so that every answer is checked; a later one stops at the
    operation that ends past the deadline, so a run overshoots ``seconds``
    by one operation rather than one pass.  Traced passes are completed:
    the per-layer figures are per pass."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()  # every pass starts from the same heap state
        if tracer is not None:
            tracer.forget_kbs()
        cut = deadline if passes and tracer is None else None
        records = run_pass(workload, tracer, sum(len(p) for p in passes), cut)
        passes.append(records)
        if any(r[2] != "ok" for r in records) or time.perf_counter() >= deadline:
            break
    return passes


def with_latencies(passes, sampler=None):
    """Replace each record's span by its latency in seconds: the cap for a
    capped operation, else reference seconds when a ``SpeedSampler`` ran
    and wall seconds when none did."""
    def latency(span, status):
        if status == "capped":
            return OP_CAP_S
        return sampler.reference_s(*span) if sampler else span[1] - span[0]

    return [[(label, latency(span, status), status, answer) for label, span, status, answer in p]
            for p in passes]


def judge(workload, passes):
    """Check the first complete pass against the workload's references and
    every later pass against the first.  Returns the number of failed
    operations, the error messages, and whether every answer was right."""
    complete = [p for p in passes if all(r[2] == "ok" for r in p)]
    errors = []
    wrong = set()
    if complete:
        reference = {r[0]: r[3] for r in complete[0]}
        for label, message in workload.check([(r[0], r[3]) for r in complete[0]]):
            wrong.add(label)
            errors.append(f"{label}: {message}")
        for records in passes[1:]:
            for label, _lat, status, answer in records:
                if status == "ok" and answer != reference.get(label):
                    wrong.add(label)
                    errors.append(f"{label}: answer differs between passes")
    failed = 0
    for records in passes:
        for label, _lat, status, _answer in records:
            if status != "ok":
                errors.append(f"{label}: {status}")
            failed += status != "ok" or label in wrong
    return failed, errors, not wrong


def host_block(args, passes, sampler=None):
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        commit = ref
        if ref.startswith("ref: "):
            commit = (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "platform": f"{platform.system()}-{platform.release()}",
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "operations": sum(len(p) for p in passes),
        "operations_per_pass": max(len(p) for p in passes),
        "reference_chunks": len(sampler.durations) if sampler else 0,
        "host_speed": CHUNK_REF_S / statistics.median(sampler.durations) if sampler else None,
    }


def op_latencies(passes) -> list[float]:
    """Each operation's median latency over the passes that ran it."""
    by_label: dict[str, list[float]] = {}
    for records in passes:
        for label, latency, _status, _answer in records:
            by_label.setdefault(label, []).append(latency)
    return [statistics.median(v) for v in by_label.values()]


def end_to_end(passes, setup_s):
    """The time of one pass, as the sum of its operations' median
    latencies, and latency percentiles across those medians."""
    latencies = op_latencies(passes)
    return {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_p90_ms": 1000 * (statistics.quantiles(latencies, n=10, method="inclusive")[-1]
                                if len(latencies) > 1 else latencies[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload, nx, seed, seconds, workdir):
    """Untraced passes for half the time, then traced passes for the rest.
    Returns (all passes, per-layer metrics, tracer)."""
    plain = with_latencies(run_passes(workload, seconds / 2))
    setup_tracer = Tracer(nx)
    setup_tracer.install()
    try:
        workload.setup(nx, seed, ROOT, workdir)
    finally:
        setup_tracer.uninstall()
    parse_s = sum(t for name, t in setup_tracer.self_times().items() if name in PARSE)
    tracer = Tracer(nx)
    tracer.install()
    try:
        traced = with_latencies(run_passes(workload, seconds / 2, tracer))
    finally:
        tracer.uninstall()
    plain_wall = sum(op_latencies(plain))
    traced_wall = statistics.fmean(sum(r[1] for r in p) for p in traced)
    metrics = tracer.layer_metrics(len(traced), parse_s, traced_wall, traced_wall - plain_wall)
    return plain + traced, {k: (v, PER_LAYER[k][0]) for k, v in metrics.items()}, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nexus" / "__init__.py").is_file():
        print(f"perfbench: no engine sources at {ROOT / 'src' / 'nexus'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload]()
        sampler = None
        if args.trace:
            nx, setup_s = timed_setups(workload, args.seed, workdir)
            passes, metrics, tracer = traced_run(workload, nx, args.seed, args.seconds, workdir)
            tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            sampler = SpeedSampler()
            sampler.start()
            try:
                nx, setup_s = timed_setups(workload, args.seed, workdir, sampler)
                spans = run_passes(workload, args.seconds)
            finally:
                sampler.stop()
            passes = with_latencies(spans, sampler)
            values = end_to_end(passes, setup_s)
            metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
        failed, errors, correct = judge(workload, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    host = host_block(args, passes, sampler)
    attempted = host["operations"]
    print("host " + json.dumps(host, sort_keys=True))
    for message in errors:
        print("error " + message)
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:>14.6f} {unit}")
    print(f"{'failed_frac':<30} {failed / attempted:>14.6f} ratio ({failed} of {attempted} operations)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"host": host, "errors": errors, "pass_wall_s": [sum(r[1] for r in p) for p in passes],
                    **result}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
