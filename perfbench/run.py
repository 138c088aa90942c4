"""Benchmark for coxvol: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload lambert-volume --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from the repository root; ``coxvol`` is imported from ``src/``.  A
run times its set-up in fresh interpreters, then repeats the workload's
fixed batch of ops until ``--seconds`` have passed, checking every op
against its oracle and timing a host-speed probe between ops, so that
each time is also given at reference host speed (see ``hostspeed``).
It prints one line per metric and, last, one JSON object.  With
``--trace 1`` it alternates untraced and traced batches, reports the
per-layer metrics instead and writes the spans to ``perfbench/out/``.
``--workload all`` runs each workload in a fresh process, one after the
other, so that each peak RSS belongs to one workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_share", "_ratio", "err_over_estimate")):
        return "ratio"
    if name.endswith("_err"):
        return "abs"
    return "count"


def set_up(workload: str, seed: int) -> tuple[float, list]:
    """Import coxvol, then generate and validate the inputs; timed."""
    t0 = time.perf_counter()
    import coxvol  # noqa: F401  (the import is part of what is timed)
    items = workloads.inputs_for(workload, seed)
    return time.perf_counter() - t0, items


def setup_sample_in_fresh_process(workload: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh interpreter: its time as measured, and at
    reference host speed from probes the child runs right after it."""
    import hostspeed

    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    elapsed, probe_s = map(float, out.stdout.split()[-2:])
    return elapsed, elapsed / hostspeed.slowdown(probe_s)


def run_op(op, tally: "Tally", tracer=None) -> float:
    if tracer is not None:
        tracer.op += 1
    t0 = time.perf_counter()
    try:
        op.run()
        failure = None
    except workloads.OpFailure as exc:
        failure = exc
    latency = time.perf_counter() - t0
    tally.record(op, latency, failure)
    return latency


def run_batch(ops, tally: "Tally", tracer=None) -> float:
    t0 = time.perf_counter()
    for op in ops:
        run_op(op, tally, tracer)
    return time.perf_counter() - t0


class Tally:
    """Latency of every op, and each distinct failure with its count."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: dict[tuple, int] = {}

    def record(self, op, latency, failure):
        self.latencies.append(latency)
        if failure is not None:
            key = (op.name, failure.stage, failure.reason, failure.known)
            self.failures[key] = self.failures.get(key, 0) + 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        """No op failed other than in the way recorded as a known defect."""
        return all(known is not None for (_, _, _, known) in self.failures)


def measure(batches, seconds: float, tally: Tally) -> tuple[list[list[float]], list[list[float]], list[float]]:
    """After a warm-up batch, checked but not timed, run the batches in turn
    while another is expected to fit in ``seconds``, with a host-speed probe
    after every op.  Returns the latencies at each position in the batch,
    as measured and at reference host speed, and the host's slowdown at
    every op."""
    import hostspeed

    run_batch(batches[0], tally)
    size = len(batches[0])
    raw: list[list[float]] = [[] for _ in range(size)]
    normalized: list[list[float]] = [[] for _ in range(size)]
    slowdowns, walls = [], []
    before = hostspeed.probe()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        t0 = time.perf_counter()
        for i, op in enumerate(batches[len(walls) % len(batches)]):
            latency = run_op(op, tally)
            after = hostspeed.probe()
            slow = hostspeed.slowdown((before + after) / 2)
            raw[i].append(latency)
            normalized[i].append(latency / slow)
            slowdowns.append(slow)
            before = after
        walls.append(time.perf_counter() - t0)
    return raw, normalized, slowdowns


def measure_traced(batches, seconds: float, tally: Tally, volume_errors, spans_path: Path) -> dict:
    """Alternate untraced and traced batches; per-layer metrics of the traced
    ones.  A last pass, not timed, takes the census memory peaks."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    traced_ops = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + statistics.median(plain + traced) * 2 <= seconds:
        ops = batches[len(traced) % len(batches)]
        plain.append(run_batch(ops, tally))
        tracer.install()
        try:
            traced.append(run_batch(ops, tally, tracer))
        finally:
            tracer.close()
        traced_ops += len(ops)
    timed_spans = len(tracer.spans)
    tracer.memory = True
    tracer.install()
    try:
        run_batch(batches[0], tally, tracer)
    finally:
        tracer.close()
    del tracer.spans[timed_spans:]
    spans_path.parent.mkdir(exist_ok=True)
    tracer.dump(spans_path)
    overhead = statistics.median(traced) - statistics.median(plain)
    return tracer.metrics(traced_ops, sum(traced), volume_errors, overhead)


def emit(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def run_one(args) -> int:
    _, items = set_up(args.workload, args.seed)
    volume_errors = []
    batches = workloads.ops_for(args.workload, items, volume_errors)
    tally = Tally()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for k, ops in enumerate(batches):
        print(f"batch {k}: " + ", ".join(op.name for op in ops))
    if args.trace:
        spans_path = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        metrics = measure_traced(batches, args.seconds, tally, volume_errors, spans_path)
        for name, value in metrics.items():
            emit(name, value, per_layer_unit(name))
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        setup_raw, setup_norm = zip(*(setup_sample_in_fresh_process(args.workload, args.seed)
                                      for _ in range(SETUP_SAMPLES)))
        raw, normalized, slowdowns = measure(batches, args.seconds, tally)
        # Medians over the whole run, at reference host speed: on a shared
        # host the same work runs up to twice as slow for seconds to minutes
        # at a time, which moves raw times by more than any bound worth
        # setting; the probe between ops slows down with it.
        size, runs = len(normalized), len(normalized[0])
        op_medians = [statistics.median(times) for times in normalized]
        raw_medians = [statistics.median(times) for times in raw]
        passed = tally.attempted - tally.failed
        metrics = {
            "setup_s": statistics.median(setup_norm),
            "wall_s": sum(op_medians),
            "op_p50_s": statistics.median(op_medians),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        at_ref = "at reference host speed"
        notes = {
            "setup_s": f"median of {len(setup_norm)} set-ups in fresh interpreters, {at_ref}",
            "wall_s": f"sum over the {size} ops of a batch of each op's median of {runs} runs, {at_ref}",
            "op_p50_s": f"median over the {size} ops of a batch of each op's median of {runs} runs, {at_ref}",
        }
        for name, value in metrics.items():
            emit(name, value, END_TO_END_UNITS[name], notes.get(name, ""))
        # goodput and fail_frac are printed but kept out of the JSON metrics:
        # each is 0 on some workload at the commit that introduced them
        # (goodput on loebell-pipeline, fail_frac on the other two), so no
        # relative bound fits them.  ``attempted`` and ``failed`` carry fail_frac.
        emit("goodput_ops_s", passed / (tally.attempted / size) / metrics["wall_s"], "ops/s",
             f"{passed} of {tally.attempted} ops passed their oracle")
        emit("fail_frac", tally.failed / tally.attempted, "ratio",
             f"{tally.failed} of {tally.attempted} ops failed")
        emit("setup_raw_s", statistics.median(setup_raw), "s", "setup_s as measured")
        emit("wall_raw_s", sum(raw_medians), "s", "wall_s as measured")
        emit("op_p50_raw_s", statistics.median(raw_medians), "s", "op_p50_s as measured")
        emit("host_slowdown", statistics.median(slowdowns), "ratio",
             "median over the ops of the probe's time over its reference time")
        units = END_TO_END_UNITS
    for (op, stage, reason, known), count in sorted(tally.failures.items(), key=str):
        print(f"FAIL op={op} stage={stage} count={count} reason={reason}"
              + (f" [{known}]" if known else ""))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, timeout=900).returncode
        sys.stdout.flush()
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "coxvol" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'coxvol'} not found; run from a coxvol checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        elapsed = set_up(args.workload, args.seed)[0]
        import hostspeed  # after the timed set-up, which imports numpy itself

        print(elapsed, statistics.median(hostspeed.probe() for _ in range(5)))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
