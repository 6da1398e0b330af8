"""Repeat benchmark runs over several seeds and summarise their spread.

    python3 perfbench/collect.py --seeds 1-10 [--sets 2] [--workloads verify,partitions]
                                 [--trace 0] [--out FILE]

Runs ``perfbench/run.py`` once per (seed, workload), one run at a time and
seed-major, so each workload's runs spread over the whole set, with the
command and ``run_seconds`` from BENCHMARK.json.  It prints each run's
metrics by name with unit and sample count (``--seeds 1`` is one run of
every workload, every op checked by its oracle).  For every metric it then
prints the median over the seeds and the quartile spread (Q3 - Q1 as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median),
next to the metric's bound.  With ``--sets 2`` the whole set is taken twice,
one after the other, and the second set's median is compared with the
first's.  Before each run a fixed pure-Python loop is timed
(``host_probe_s``), so drift in the host's speed shows next to the figures.
With ``--out`` it merges the machine description and, per workload, every
run's values into a JSON file (``perfbench/baseline.json`` was written this
way).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    """Where the figures were taken: CPUs, caches and library versions."""
    import numpy
    import scipy

    caches = {}
    conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True).stdout
    for line in conf.splitlines():
        key, _, value = line.partition(" ")
        if key in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE") and value.strip():
            caches[key.lower()] = int(value)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": len(os.sched_getaffinity(0)),
        **caches,
    }


def host_probe_s() -> float:
    """Median time of a fixed pure-Python loop, taken just before a run, so
    the host's speed at that moment is on record next to the run."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def summarise(results: list[dict]) -> dict:
    """One set of runs of one workload: each metric's median, spread and values."""
    attempted = sum(r["attempted"] for r in results)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        entry = {"unit": first["unit"], "median": statistics.median(values)}
        if len(values) >= 2:
            entry["spread"] = spread(values)
        entry["values"] = values
        metrics[name] = entry
    return {
        "seeds": [r["seed"] for r in results],
        "correct": all(r["correct"] for r in results),
        "failed_frac": sum(r["failed"] for r in results) / attempted,
        "host_probe_s": [r["host_probe_s"] for r in results],
        "metrics": metrics,
    }


def report(workload: str, sets: list[dict], bounds: dict) -> dict[str, float]:
    """Print each set's median and spread per metric; return how far the
    last set's median lies from the first's, as a share of the first."""
    drift = {}
    for name in sets[0]["metrics"]:
        bound = bounds.get(name)
        cells = [f"median {s['metrics'][name]['median']:<11.6g} "
                 f"spread {s['metrics'][name].get('spread', float('nan')):.4f}" for s in sets]
        line = f"{workload:17} {name:28} " + " | ".join(cells)
        first, last = sets[0]["metrics"][name]["median"], sets[-1]["metrics"][name]["median"]
        if len(sets) > 1 and first:
            drift[name] = (last - first) / first
            line += f" | last/first - 1 = {drift[name]:+.4f}"
        if bound:
            line += f"  (bound {bound}, bound/3 {bound / 3:.4f})"
        print(line)
    probes = [statistics.median(s["host_probe_s"]) for s in sets]
    print(f"{workload:17} {'host_probe_s':28} " + " | ".join(f"median {p:.4f}" for p in probes))
    return drift


def merge(out: Path, section: str, entries: dict, run_seconds: int) -> None:
    """Merge into an existing file, so one file gathers the end-to-end and
    per-layer runs of every workload."""
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["machine"] = machine()
    doc["run_seconds"] = run_seconds
    doc.setdefault(section, {}).update(entries)
    out.write_text(json.dumps(doc, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs, one after another")
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="JSON file to merge the results into")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]} if not args.trace else {}
    sets: list[dict[str, list[dict]]] = []
    for number in range(args.sets):
        runs: dict[str, list[dict]] = {name: [] for name in names}
        # seed-major, so every workload's runs spread over the whole set
        for seed in seeds_from(args.seeds):
            for workload in names:
                cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]),
                                         "--trace", str(args.trace)]
                probe = host_probe_s()
                start = time.monotonic()
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                elapsed = time.monotonic() - start
                if done.returncode != 0:
                    print(done.stdout, done.stderr, file=sys.stderr)
                    return 1
                *lines, last = done.stdout.strip().splitlines()
                result = json.loads(last)
                result.update(seed=seed, host_probe_s=probe)
                runs[workload].append(result)
                print(f"set {number + 1}", *lines, f"correct: {result['correct']}",
                      f"run took {elapsed:.1f} s, host probe {probe:.4f} s", sep="\n", flush=True)
        sets.append(runs)

    entries = {}
    for workload in names:
        summaries = [summarise(runs[workload]) for runs in sets]
        drift = report(workload, summaries, bounds)
        entries[workload] = summaries[0] if len(summaries) == 1 else {
            "sets": summaries, "last_over_first_minus_1": drift,
        }
    if args.out:
        section = "per_layer" if args.trace else "end_to_end"
        merge(Path(args.out), section, entries, spec["run_seconds"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
