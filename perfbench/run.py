#!/usr/bin/env python3
"""The repository benchmark: grid sweeps through the experiment service.

Run from the repository root::

    python3 perfbench/run.py --workload mlp_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload contention_durable --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --record-reference   # rewrite reference.json

Each invocation runs one workload in this (fresh) process as a closed
loop: one caller submits the workload's whole grid, waits for it, and
submits it again until ``--seconds`` have passed. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs the grid traced and prints
the per-layer budget (see ``perfbench/README.md``). The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Timed iterations a run makes at least, however long they take.
MIN_ITERATIONS = 3
#: Timed resume -> ingest -> report tails after each timed sweep
#: (medians are reported).
TAILS_PER_SWEEP = 2


class Checker:
    """Correctness gate: every sweep must return one row per config and
    reproduce the reference ``merged_fingerprint`` of its input set."""

    def __init__(self, workload, n_runs: int) -> None:
        from spec import load_reference, provenance

        self.n_runs = n_runs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected = None
        self.first: dict[int, str] = {}
        self.pages: dict[int, str] = {}
        reference = load_reference()
        ours = provenance()
        if reference["provenance"] == ours:
            self.expected = reference["fingerprints"][workload.name]
        else:
            diff = sorted(
                key for key in ours if ours[key] != reference["provenance"].get(key)
            )
            print(f"warning: provenance differs from the reference's in {diff}; "
                  "checking self-consistency only", file=sys.stderr)

    def check(self, sweep, what: str, seed: int) -> None:
        """Check ``sweep``, made from ``workload.configs(seed)``."""
        from spec import REFERENCE_SEEDS

        self.attempted += self.n_runs
        missing = sum(1 for row in sweep.rows if row is None)
        missing += max(self.n_runs - len(sweep.rows), 0)
        fingerprint = sweep.fingerprint
        input_set = seed % REFERENCE_SEEDS
        first = self.first.setdefault(input_set, fingerprint)
        expected = self.expected[input_set] if self.expected else first
        if fingerprint != expected or fingerprint != first:
            self.failed += self.n_runs
            self.problems.append(f"{what}: merged_fingerprint {fingerprint[:16]} "
                                 f"!= reference {expected[:16]}")
        elif missing:
            self.failed += missing
            self.problems.append(f"{what}: {missing} rows missing")

    def check_page(self, tail, what: str, seed: int) -> None:
        """The report built from one input set's rows and the same
        trajectory must be byte-identical every time."""
        from spec import REFERENCE_SEEDS

        first = self.pages.setdefault(seed % REFERENCE_SEEDS, tail.page_sha)
        if tail.page_sha != first:
            self.fail(self.n_runs, f"{what}: report page differs from the "
                                   "first one built from the same rows")

    def fail(self, runs: int, why: str) -> None:
        self.failed += runs
        self.problems.append(why)


def outcome_mix(rows) -> dict:
    mix = {"CONVERGED": 0, "STOPPED": 0, "DIVERGED": 0, "CRASHED": 0}
    for row in rows:
        mix[row.status.name] = mix.get(row.status.name, 0) + 1
    return mix


def traffic(workload, sweep) -> dict:
    """The workload's traffic properties, as later changes will cite them."""
    return {
        "d": sweep.d,
        "batch": workload.batch,
        "m": workload.m,
        "K": workload.seeds,
        "runs": len(sweep.rows),
        "grads": sweep.grads,
        "rows": sum(1 for row in sweep.rows if row is not None),
        **{k.lower(): v for k, v in outcome_mix(sweep.rows).items()},
    }


def check_tail(checker, tail, n_runs: int, what: str, seed: int) -> None:
    checker.check(tail.resume, f"{what} resume", seed)
    checker.check_page(tail, what, seed)
    if tail.resume.stats["runs_executed"]:
        checker.fail(tail.resume.stats["runs_executed"],
                     f"{what}: resume re-executed "
                     f"{tail.resume.stats['runs_executed']} runs")
    if tail.ingest.skipped or tail.ingest.inserted != n_runs:
        checker.fail(n_runs, f"{what}: ingest stored {tail.ingest.inserted} "
                             f"rows, skipped {tail.ingest.skipped}")


def record(history, workload, label: str, sweep) -> None:
    """Append one bench-trajectory entry (the ``BENCH_history.jsonl``
    shape) for a measured sweep; the tail ingests it with the rows, so
    the report carries this run's own throughput trajectory."""
    entry = {
        "label": f"perfbench-{workload.name}-{label}",
        "metrics": {
            "perfbench.grads_per_s": sweep.grads_per_s,
            "perfbench.setup_s": sweep.setup_s,
        },
    }
    with history.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def median(values) -> float:
    return float(statistics.median(values))


def run_untraced(workload, seed: int, seconds: float):
    """The closed loop with tracing off: the end-to-end metrics."""
    from sweep import fresh_dir, run_sweep, run_tail

    checker = Checker(workload, len(workload.configs(seed)))
    work = fresh_dir(WORK / workload.name)

    # Warm-up pass, not timed: lazy imports and first-touch page faults
    # happen here once. Journalled, it is also the run directory the
    # grids' resume -> ingest -> report tails read.
    history = work / "perfbench_history.jsonl"
    warm_dir = fresh_dir(work / "warm")
    warm = run_sweep(workload, workload.configs(seed), run_dir=warm_dir)
    checker.check(warm, "warm-up", seed)
    record(history, workload, "warm-up", warm)

    # Timed sweep i runs input set seed + i: the gradients per sweep
    # differ from one input set to the next while the sweep's time varies
    # less, so the medians average over input sets as well as over time. Sweeps
    # and tails alternate, so both sample the host over the whole run.
    # Only numbers are kept across iterations: holding every sweep's rows
    # would grow the heap, and the garbage collector's work with it.
    setups, rates, rss, tail_times = [], [], [], []
    grads, sweep_s = 0, 0.0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(rates) < MIN_ITERATIONS:
        sweep_seed = seed + len(rates)
        configs = workload.configs(sweep_seed)
        run_dir = fresh_dir(work / "run") if workload.durable else None
        sweep = run_sweep(workload, configs, run_dir=run_dir)
        checker.check(sweep, f"iteration {len(rates)}", sweep_seed)
        setups.append(sweep.setup_s)
        rates.append(sweep.grads_per_s)
        grads += sweep.grads
        sweep_s += sweep.map_s + sweep.finalize_s
        rss.append(sweep.rss_kb)
        # The durable workload's tails read the sweep just made; the
        # grids' sweeps are volatile, so theirs read the warm-up's.
        tail_dir, tail_seed = (run_dir, sweep_seed) if workload.durable else (
            warm_dir, seed)
        tail_configs = workload.configs(tail_seed)
        if len(rates) == 1:
            # The tail's input is complete from here on: a journal and a
            # two-entry bench trajectory. The first tail takes the store
            # and report modules' first-call costs and is not timed.
            record(history, workload, "iteration 1", sweep)
            tail = run_tail(workload, tail_configs, tail_dir, history, work)
            check_tail(checker, tail, len(configs), "untimed tail", tail_seed)
        for _ in range(TAILS_PER_SWEEP):
            tail = run_tail(workload, tail_configs, tail_dir, history, work)
            check_tail(checker, tail, len(configs), f"tail {len(tail_times)}",
                       tail_seed)
            tail_times.append(tail.times)

    metrics = {
        "setup_s": (median(setups), "s"),
        # All gradients over all sweep time, not a median of per-sweep
        # rates: the same sweep's time varies by about +-10% from one
        # repetition to the next, and the median of the eight or so
        # sweeps a run makes moved 1.5 times as much between runs.
        "grads_per_s": (grads / sweep_s, "1/s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
        "tail_s": (median(sum(t.values()) for t in tail_times), "s"),
    }
    # The tail's phases are printed but not gated: see README.md,
    # "One tail metric".
    shown = {name: (median(t[name] for t in tail_times), "s")
             for name in ("resume_s", "ingest_s", "report_s")}
    info = {
        "iterations": len(rates),
        "tails": len(tail_times),
        "traffic": traffic(workload, warm),
        "grads_per_s_all": [round(rate, 2) for rate in rates],
        "peak_rss_mb_all": [round(kb / 1024.0, 1) for kb in rss],
    }
    return metrics, shown, checker, info


def emit(metrics: dict, shown: dict, checker, info: dict) -> None:
    """Print the metrics, then ``shown`` (printed, not in the JSON line),
    failed_frac and ``info``; the last line is the JSON result."""
    width = max(len(name) for name in (*metrics, *shown))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")
    for name, (value, unit) in shown.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit} (not gated)")
    # One run can fail more than one check (its sweep and its ingest).
    failed = min(checker.failed, checker.attempted)
    failed_frac = failed / max(checker.attempted, 1)
    print(f"  {'failed_frac':<{width}}  {failed_frac:>14.6g} "
          f"({failed}/{checker.attempted} runs)")
    for key, value in info.items():
        print(f"  # {key}: {value}")
    for problem in checker.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def stop_children() -> None:
    """Leave no process behind: stop the shared-memory resource tracker
    and wait for every child (retired pool workers) to exit."""
    from multiprocessing import resource_tracker

    from sweep import child_pids

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    for pid in child_pids():
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # already reaped by the executor's manager thread


def record_reference() -> int:
    """Recompute every workload's fingerprint for every input set,
    serially, and store them with the provenance they hold under."""
    from spec import REFERENCE_PATH, REFERENCE_SEEDS, WORKLOADS, provenance
    from sweep import run_sweep

    fingerprints = {}
    for name, workload in WORKLOADS.items():
        fingerprints[name] = []
        for seed in range(REFERENCE_SEEDS):
            sweep = run_sweep(workload, workload.configs(seed), workers=1)
            fingerprints[name].append(sweep.fingerprint)
            print(f"{name} seed {seed}: {sweep.fingerprint[:16]} "
                  f"({sweep.map_s:.2f}s)", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(
        {"provenance": provenance(), "fingerprints": fingerprints},
        indent=1, sort_keys=True,
    ) + "\n")
    return 0


def main(argv=None) -> int:
    from spec import THREAD_ENV, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--as-found-probe", action="store_true",
                        help="(used by --trace 1) serial and pool sweeps with "
                             "the thread variables left as found")
    args = parser.parse_args(argv)

    # Before NumPy loads: see README.md, "BLAS threads". An explicit
    # value in the environment is kept and recorded as provenance.
    found_env = {name: os.environ.get(name) for name in THREAD_ENV}
    if not args.as_found_probe:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if args.as_found_probe:
        from traced import run_as_found

        try:
            return run_as_found(workload, args.seed)
        finally:
            stop_children()
    print(f"== perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} ==")
    try:
        if args.trace:
            from traced import run_traced

            shown = {}
            metrics, checker, info = run_traced(workload, args.seed, WORK,
                                                 found_env)
        else:
            metrics, shown, checker, info = run_untraced(workload, args.seed,
                                                         args.seconds)
    finally:
        import shutil

        shutil.rmtree(WORK, ignore_errors=True)
        stop_children()
    emit(metrics, shown, checker, info)
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
