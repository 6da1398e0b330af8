"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload partitions --seed 1 --seconds 30 --trace 0

Run from the repository root: the library is imported from ``src/``.  The
process is fresh for each workload.  One client runs the workload's ops in a
closed loop (each op starts when the previous one ends); a pass is one run
of every op.  One untimed warm-up pass comes first; timed passes then repeat
until another pass would end after ``--seconds``.  Every op clears the
``tamari_poset`` cache first, runs under a per-op time limit enforced
in-process by SIGALRM, and has its output checked by the op's oracle outside
the timed region.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json;
with ``--trace 1`` passes alternate untraced and traced, the per-layer
metrics come from the traced passes, and the spans are written to
``perfbench/spans/``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = Path(__file__).resolve().parent / "spans"
# Fresh set-up processes timed after each pass, so the set-up samples spread
# over the whole run as the passes do.
SETUP_PROBES_PER_PASS = 3
# About three times the slowest op of the listed workloads at the seed
# (verify --claim all --n 7, ~6.6 s on a 2-core Xeon).
OP_TIME_LIMIT_S = 20.0


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that exceeds OP_TIME_LIMIT_S."""


def _alarm(signum, frame):
    raise OpTimeout()


def limit_blas_threads() -> None:
    """BLAS threads = the CPUs this process may run on; set before numpy loads."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def setup(workload: str, seed: int):
    """Import the library from src/ and generate the workload's ops."""
    if not (SRC / "tamari").is_dir():
        raise SystemExit(f"no library sources at {SRC / 'tamari'}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.tamari.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"tamari was imported from {workloads.tamari.__file__}, not {SRC}")
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; one of {sorted(workloads.WORKLOADS)}")
    return workloads, workloads.make_ops(workload, seed)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to ops generated, for SETUP_PROBES_PER_PASS fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES_PER_PASS):
        start = time.monotonic()  # CLOCK_MONOTONIC: comparable across processes
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def run_op(op, state, cached, tracer) -> tuple[float, str | None, bool]:
    """Run one op; returns (seconds, problem or None, output was wrong)."""
    gc.collect()
    if tracer is not None:
        tracer.op = op.name
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
    try:
        try:
            cached.cache_clear()
            output = op.run(state)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        problem = f"timeout after {OP_TIME_LIMIT_S:g} s"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        problem = f"raised {exc!r}"
    else:
        problem = None
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    info = cached.cache_info()
    state.counts["lattices.cache_hits"] += info.hits
    state.counts["lattices.cache_misses"] += info.misses
    if problem is not None:
        return seconds, problem, not problem.startswith("timeout")
    if seconds > OP_TIME_LIMIT_S:
        return seconds, f"timeout after {OP_TIME_LIMIT_S:g} s", False
    try:
        problem = op.check(output)
    except Exception as exc:  # output the oracle cannot even parse
        problem = f"oracle could not read the output: {exc!r}"
    return seconds, problem and f"wrong output: {problem}", problem is not None


def run_pass(mod, ops, tracer) -> dict:
    state = mod.PassState()
    ops_out = []
    for op in ops:
        seconds, problem, wrong = run_op(op, state, mod.CACHED_TAMARI_POSET, tracer)
        ops_out.append({"op": op.name, "seconds": seconds, "problem": problem, "wrong": wrong})
    return {
        "seconds": sum(o["seconds"] for o in ops_out),
        "ops": ops_out,
        "counts": state.counts,
    }


def write_spans(path: Path, traced: list[tuple[list, list[float]]]) -> None:
    from tracing import END, ERROR, NAME, OP, PARENT, START

    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as handle:
        for number, (spans, own) in enumerate(traced):
            for s, self_s in zip(spans, own):
                handle.write(json.dumps({
                    "pass": number, "op": s[OP], "name": s[NAME], "start": s[START],
                    "end": s[END], "parent": s[PARENT], "self_s": self_s, "error": s[ERROR],
                }) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    limit_blas_threads()

    if args.setup_probe:
        setup(args.workload, args.seed)
        print(time.monotonic())
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mod, ops = setup(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _alarm)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    deadline = time.perf_counter() + args.seconds
    # The first pass pays one-time costs (lazy imports inside the library,
    # first touches of large buffers) that later passes do not; its ops are
    # checked and counted but not timed.
    warmup = run_pass(mod, ops, None)
    setups = setup_seconds(args.workload, args.seed)
    plain, traced, traced_spans = [], [], []
    while True:
        use_tracer = tracer is not None and len(plain) > len(traced)
        started = time.perf_counter()
        if use_tracer:
            tracer.install()
            try:
                result = run_pass(mod, ops, tracer)
            finally:
                tracer.uninstall()
            spans, counts = tracer.take()
            counts.update(result["counts"])
            traced.append((result, tracing.pass_metrics(spans, counts)))
            traced_spans.append((spans, tracing.self_times(spans)))
        else:
            plain.append(run_pass(mod, ops, None))
        setups += setup_seconds(args.workload, args.seed)
        last = time.perf_counter() - started
        enough = tracer is None or traced
        if enough and time.perf_counter() + last > deadline:
            break

    runs = [warmup] + plain + [r for r, _ in traced]
    op_results = [o for r in runs for o in r["ops"]]
    attempted = len(op_results)
    failed = sum(1 for o in op_results if o["problem"])
    correct = not any(o["wrong"] for o in op_results)
    for o in op_results:
        if o["problem"]:
            print(f"failed op: {o['op']}: {o['problem']}")

    wall = [r["seconds"] for r in plain]
    per_op: dict[str, list[float]] = {}
    for r in plain:
        for o in r["ops"]:
            per_op.setdefault(o["op"], []).append(o["seconds"])
    slowest = max(per_op, key=lambda name: statistics.median(per_op[name]))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(wall),
        "max_op_s": statistics.median(per_op[slowest]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }
    samples = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": f"median of {len(wall)} untraced passes of {len(ops)} ops",
        "max_op_s": f"median of {len(per_op[slowest])} runs of the slowest op, {slowest}",
        "peak_rss_mb": "ru_maxrss of this process",
        "ok_frac": f"{attempted - failed} of {attempted} ops",
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"failed_frac = {failed / attempted:.4f} ({failed} of {attempted} ops)")

    if tracer is not None:
        layer = tracing.median_metrics([m for _, m in traced])
        traced_wall = statistics.median(r["seconds"] for r, _ in traced)
        layer["trace.overhead_s"] = traced_wall - values["wall_s"]
        write_spans(SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl", traced_spans)
        values = layer
        samples = {k: f"median of {len(traced)} traced passes" for k in layer}
        samples["trace.overhead_s"] = (
            f"median of {len(traced)} traced minus median of {len(wall)} untraced passes"
        )

    metrics = {}
    for m in spec["per_layer" if tracer is not None else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name not in values:
            raise SystemExit(f"metric {name} listed in BENCHMARK.json was not measured")
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]:.6g} {unit} ({samples[name]})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
