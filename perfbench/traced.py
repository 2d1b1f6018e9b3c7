"""The traced run: one workload's per-layer budget.

Spans come from two places. The program's own self-profiler
(``RunConfig.self_profile``) records ``scheduler.run``, ``cohort.round``,
``kernel.*``, ``arena.*`` and ``monitor.eval`` inside every cohort and
returns them on the rows. The benchmark records spans around its own
calls into each layer: set-up, pool spawn and broadcast, ``map``,
``finalize``, ``close``, resume, ``ingest_path`` and the report.

Worker-side spans are seconds of work in the pool's processes; the wall
budget divides them by the worker count, and what ``map`` spends beyond
that share (dispatch and pool idle) is its own leaf. The leaves and the
unattributed remainder then sum to the wall time of the traced sweep
and its tail.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

#: Span names of the stacked-kernel leaves inside ``kernel.execute``.
KERNEL_LEAVES = ("stage", "softmax", "dense", "relu", "conv2d", "maxpool2d",
                 "flatten", "perk")
#: Gradient calls timed outside the simulator (p90 keeps 10 beyond it).
GRAD_CALLS = 100
#: Longest the as-found probe may take; its pool sweep is the slow,
#: oversubscribed case (up to 27 s for mlp_grid on a 2-core host).
PROBE_TIMEOUT_S = 100
#: Untraced/traced sweep pairs whose medians give ``trace.overhead_frac``.
OVERHEAD_PAIRS = 3


def _span(profile: dict, name: str) -> float:
    return profile.get(name, {}).get("total_s", 0.0)


def cohort_leaves(rows, chunks) -> dict:
    """Fold each cohort's profile and wall phases into self times.

    A cohort's rows carry one shared profile and simulate time, and
    per-replica setup/teardown; its leaves telescope to
    ``sum(setup) + simulate + sum(teardown)``.
    """
    totals: dict[str, float] = {}
    counts = {"arena.acquires": 0}

    def add(name, value):
        totals[name] = totals.get(name, 0.0) + value

    for chunk in chunks:
        members = [rows[i] for i in chunk]
        profile = members[0].metrics["profile"]
        if any(m.metrics["profile"] != profile for m in members):
            raise RuntimeError("cohort rows disagree on their shared profile; "
                               "the chunk plan does not match the execution")
        phases = [m.metrics["wall_phases"] for m in members]
        simulate = phases[0]["simulate"]
        scheduler = _span(profile, "scheduler.run")
        rnd = _span(profile, "cohort.round")
        execute = _span(profile, "kernel.execute")
        arena_acq = _span(profile, "arena.acquire")
        arena_rel = _span(profile, "arena.release")
        monitor = _span(profile, "monitor.eval")
        kernel = {leaf: _span(profile, f"kernel.{leaf}") for leaf in KERNEL_LEAVES}
        add("run.setup", sum(p["setup"] for p in phases))
        add("run.teardown", sum(p["teardown"] for p in phases))
        add("run.simulate", simulate)
        add("sim.simulate.self", simulate - scheduler - rnd)
        add("sim.scheduler.run", scheduler)
        add("sim.scheduler.self", scheduler - arena_acq - arena_rel - monitor)
        add("sim.arena.acquire", arena_acq)
        add("sim.arena.release", arena_rel)
        add("sim.monitor.eval", monitor)
        add("sim.cohort.round", rnd)
        add("sim.cohort.self", rnd - execute)
        add("nn.kernel.execute", execute)
        add("nn.kernel.self", execute - sum(kernel.values()))
        for leaf, value in kernel.items():
            add(f"nn.kernel.{leaf}", value)
        counts["arena.acquires"] += profile.get("arena.acquire", {}).get("count", 0)
    return {**totals, **counts}


#: The worker-side leaves of the budget (their sum is the busy time).
WORKER_LEAVES = (
    "run.setup", "run.teardown", "sim.simulate.self", "sim.scheduler.self",
    "sim.arena.acquire", "sim.arena.release", "sim.monitor.eval",
    "sim.cohort.self", "nn.kernel.self",
    *(f"nn.kernel.{leaf}" for leaf in KERNEL_LEAVES),
)


def busy_s(rows, chunks) -> float:
    """Seconds the executing processes spent inside cohorts."""
    total = 0.0
    for chunk in chunks:
        phases = [rows[i].metrics["wall_phases"] for i in chunk]
        total += (sum(p["setup"] for p in phases) + phases[0]["simulate"]
                  + sum(p["teardown"] for p in phases))
    return total


def grad_call_times(workload, problem) -> list[float]:
    """Wall time of single gradient calls at the workload's batch, timed
    outside the simulator (``DLGradTask.run`` for the networks)."""
    rng = np.random.default_rng(0)
    theta = problem.init_theta(rng)
    out = np.empty_like(theta)
    task = problem.make_grad_task(rng)
    call = task.run if task is not None else problem.make_grad_fn(rng)
    call(theta, out)  # first touch of the workspace
    times = []
    for _ in range(GRAD_CALLS):
        t = perf_counter()
        call(theta, out)
        times.append(perf_counter() - t)
    return times


def flops_per_grad(workload, problem) -> float:
    """Computed (not counted) flops of one gradient: 2 per multiply-add,
    forward plus a backward pass of twice the forward's cost."""
    network = getattr(problem, "network", None)
    if network is None:  # separable quadratic: a few flops per coordinate
        return 4.0 * problem.d
    macs = 0
    for layer, (_, out_shape) in zip(network.layers, network._layer_shapes):
        weights = [shape for name, shape in layer.param_shapes if name == "W"]
        if not weights:
            continue
        if layer.kind == "conv2d":
            macs += int(np.prod(weights[0])) * int(np.prod(out_shape[1:]))
        else:
            macs += int(np.prod(weights[0]))
    return 2.0 * 3.0 * macs * workload.batch


def run_as_found(workload, seed: int) -> int:
    """Child side of the as-found probe: a serial and a pool sweep in a
    process whose thread variables are as the benchmark found them.
    Prints one JSON line."""
    from sweep import run_sweep

    configs = workload.configs(seed)
    serial = run_sweep(workload, configs, workers=1)
    pool = run_sweep(workload, configs)
    print(json.dumps({
        "serial_grads_per_s": serial.grads_per_s,
        "grads_per_s": pool.grads_per_s,
        "fingerprints": [serial.fingerprint, pool.fingerprint],
        "rows": [sum(row is not None for row in s.rows) for s in (serial, pool)],
    }))
    return 0


def as_found_probe(workload, seed: int, found_env: dict) -> dict | None:
    """Run :func:`run_as_found` in a child process with the thread
    variables restored to ``found_env``. On a timeout the child's whole
    process group (its pool workers too) is killed and ``None`` returned."""
    env = dict(os.environ)
    for name, value in found_env.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    run_py = Path(__file__).with_name("run.py")
    child = subprocess.Popen(
        [sys.executable, str(run_py), "--workload", workload.name,
         "--seed", str(seed), "--as-found-probe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return None
    if child.returncode != 0:
        return None
    return json.loads(out.strip().splitlines()[-1])


def _quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


def run_traced(workload, seed: int, work, found_env: dict):
    """Untraced, traced and serial-baseline sweeps of one workload, the
    durable tail, and the per-layer table."""
    from repro.harness.parallel import plan_cohorts
    from run import Checker, check_tail, record, traffic
    from sweep import fresh_dir, row_identity, run_sweep, run_tail

    configs = workload.configs(seed)
    traced_configs = workload.configs(seed, self_profile=True)
    chunks = plan_cohorts(configs, workload.replicas)
    checker = Checker(workload, len(configs))
    work = fresh_dir(work / workload.name)
    history = work / "perfbench_history.jsonl"

    # Serial baseline first: it also takes the process's first-call costs.
    serial = run_sweep(workload, configs, workers=1)
    checker.check(serial, "serial baseline", seed)
    record(history, workload, "serial", serial)
    # The tail resumes an untraced journal (the durable pool sweep on the
    # grids, the untraced sweep on the durable workload), so its merged
    # fingerprint is checkable against the reference.
    durable = None
    tail_dir = fresh_dir(work / "durable")
    if not workload.durable:
        durable = run_sweep(workload, configs, run_dir=tail_dir)
        checker.check(durable, "durable", seed)
        record(history, workload, "durable", durable)
    plain = run_sweep(workload, configs,
                      run_dir=tail_dir if workload.durable else None)
    checker.check(plain, "untraced", seed)
    record(history, workload, "untraced", plain)

    # An untimed tail first: the store and report modules' first-call
    # costs stay out of the budget.
    check_tail(checker, run_tail(workload, configs, tail_dir, history, work),
               len(configs), "untimed tail", seed)

    spans: dict[str, float] = {}
    t_start = perf_counter()
    traced_dir = fresh_dir(work / "traced") if workload.durable else None
    traced = run_sweep(workload, traced_configs, run_dir=traced_dir, spans=spans)
    tail = run_tail(workload, configs, tail_dir, history, work)
    spans["tail.resume"] = tail.resume_s
    spans["tail.ingest"] = tail.ingest_s
    spans["tail.report"] = tail.report_s
    wall = perf_counter() - t_start
    check_tail(checker, tail, len(configs), "traced tail", seed)

    # Identity: traced rows equal the untraced and serial rows bitwise,
    # host fields and the self_profile flag aside.
    checker.attempted += len(configs)
    for i, (a, b, c) in enumerate(zip(plain.rows, traced.rows, serial.rows)):
        if not row_identity(a) == row_identity(b) == row_identity(c):
            checker.fail(1, f"row {i} ({configs[i].algorithm} seed "
                            f"{configs[i].seed}): traced/untraced/serial differ")

    # Tracing overhead from OVERHEAD_PAIRS untraced/traced pairs, in
    # alternating order, so one noisy sweep does not decide it.
    sweep_s = {False: [plain.map_s + plain.finalize_s],
               True: [traced.map_s + traced.finalize_s]}
    for i in range(OVERHEAD_PAIRS - 1):
        for profiled in ((True, False) if i % 2 == 0 else (False, True)):
            run_dir = fresh_dir(work / "pair") if workload.durable else None
            sweep = run_sweep(workload, traced_configs if profiled else configs,
                              run_dir=run_dir)
            sweep_s[profiled].append(sweep.map_s + sweep.finalize_s)
            checker.attempted += len(configs)
            bad = sum(row_identity(a) != row_identity(b)
                      for a, b in zip(sweep.rows, plain.rows))
            if bad or len(sweep.rows) != len(configs):
                checker.fail(len(configs), f"overhead pair {i}: {bad} rows "
                                           "differ from the untraced sweep")
    overhead = statistics.median(sweep_s[True]) / statistics.median(sweep_s[False]) - 1

    # The pool as the environment leaves it: see README.md, "BLAS threads".
    probe = as_found_probe(workload, seed, found_env)
    checker.attempted += 2 * len(configs)
    if probe is None:
        checker.fail(2 * len(configs), "as-found probe failed or timed out")
        probe = {"serial_grads_per_s": 0.0, "grads_per_s": 0.0}
    elif len(set(probe["fingerprints"])) != 1 or probe["rows"] != [len(configs)] * 2:
        checker.fail(2 * len(configs), "as-found probe: serial and pool sweeps "
                                       f"differ ({probe})")

    # -- the wall budget -------------------------------------------------
    workers = workload.workers
    layers = cohort_leaves(traced.rows, chunks)
    busy = busy_s(traced.rows, chunks)
    budget = {name: spans[name] for name in (
        "setup", "pool.spawn", "pool.broadcast", "service.finalize",
        "service.close", "tail.resume", "tail.ingest", "tail.report",
    ) if name in spans}
    for name in WORKER_LEAVES:
        budget[f"worker:{name}"] = layers.get(name, 0.0) / workers
    budget["service.map.self"] = spans["service.map"] - busy / workers
    unattributed = wall - sum(budget.values())
    if any(value < -1e-3 for value in budget.values()) or unattributed < -1e-3:
        # The spans do not nest as the fold assumes: the traced sweep's
        # per-layer numbers cannot be trusted.
        checker.fail(len(configs), "trace budget has a negative leaf: "
                        + json.dumps({k: round(v, 4) for k, v in budget.items()}))

    # -- per-layer metrics ---------------------------------------------------
    problem, _ = workload.build()
    calls = grad_call_times(workload, problem)
    flops = flops_per_grad(workload, problem)
    props = traffic(workload, plain)
    grads = props["grads"]
    updates = sum(int(row.metrics["n_updates"]) for row in plain.rows)
    cas = [row.metrics["cas_failure_rate"] for row in plain.rows
           if np.isfinite(row.metrics["cas_failure_rate"])]
    pv = [row.metrics["peak_pv_count"] / (3 * row.config.m) for row in plain.rows
          if row.config.algorithm.startswith("LSH")]
    journal_bytes = sum(
        path.stat().st_size for path in tail_dir.iterdir()
        if path.name == "queue.jsonl" or path.name.startswith("results-")
    )
    durable_run = durable if durable is not None else plain
    volatile_run = plain if durable is not None else serial
    metrics = {
        "pool.spawn_s": (spans.get("pool.spawn", 0.0), "s"),
        "pool.broadcast_s": (spans.get("pool.broadcast", 0.0), "s"),
        "pool.shm_bytes": (traced.pool.get("shm_bytes", 0), "bytes"),
        "pool.busy_s": (busy, "s"),
        "pool.idle_frac": (1.0 - busy / (workers * spans["service.map"]), "frac"),
        "pool.serial_grads_per_s": (serial.grads_per_s, "1/s"),
        "pool.speedup": (plain.grads_per_s / serial.grads_per_s, "x"),
        "pool.respawns": (traced.pool.get("respawns", 0), "count"),
        "pool.as_found_grads_per_s": (probe["grads_per_s"], "1/s"),
        "pool.as_found_speedup": (
            probe["grads_per_s"] / probe["serial_grads_per_s"]
            if probe["serial_grads_per_s"] else 0.0, "x"),
        **{f"nn.kernel.{leaf}_s": (layers[f"nn.kernel.{leaf}"], "s") for leaf in
           ("execute", "dense", "conv2d", "maxpool2d", "relu", "softmax", "stage")},
        "nn.kernel_fallbacks": (sum(int(row.metrics.get("kernel_fallbacks", 0) or 0)
                                    for row in traced.rows), "count"),
        "nn.grad_call_s.p50": (_quantile(calls, 0.5), "s"),
        "nn.grad_call_s.p90": (_quantile(calls, 0.9), "s"),
        "nn.flops_per_grad": (flops, "flop"),
        "nn.gflops": (flops / statistics.median(calls) / 1e9, "Gflop/s"),
        "sim.scheduler.run_s": (layers["sim.scheduler.run"], "s"),
        "sim.scheduler.self_s": (layers["sim.scheduler.self"], "s"),
        "sim.cohort.round_s": (layers["sim.cohort.round"], "s"),
        "sim.arena.acquire_s": (layers["sim.arena.acquire"], "s"),
        "sim.arena.release_s": (layers["sim.arena.release"], "s"),
        "sim.arena.acquires": (layers["arena.acquires"], "count"),
        "sim.monitor.eval_s": (layers["sim.monitor.eval"], "s"),
        "run.setup_s": (layers["run.setup"], "s"),
        "run.simulate_s": (layers["run.simulate"], "s"),
        "run.teardown_s": (layers["run.teardown"], "s"),
        "core.grads": (grads, "count"),
        "core.updates": (updates, "count"),
        "core.publish_ratio": (updates / grads, "frac"),
        "core.cas_failure_rate": (float(np.mean(cas)) if cas else 0.0, "frac"),
        "core.peak_pv_over_3m": (max(pv) if pv else 0.0, "frac"),
        "service.dispatch_overhead_s": (serial.map_s - busy_s(serial.rows, chunks), "s"),
        "service.finalize_s": (plain.finalize_s, "s"),
        "service.durable_overhead_frac": (
            (durable_run.map_s + durable_run.finalize_s)
            / (volatile_run.map_s + volatile_run.finalize_s) - 1.0, "frac"),
        "service.tasks_executed": (traced.stats["tasks_executed"], "count"),
        "service.tasks_from_journal": (tail.resume.stats["tasks_from_journal"], "count"),
        "service.tasks_requeued": (traced.stats["tasks_requeued"]
                                   + tail.resume.stats["tasks_requeued"], "count"),
        "service.resume_served_ratio": (
            tail.resume.stats["runs_from_journal"] / len(configs), "frac"),
        "service.journal_bytes": (journal_bytes, "bytes"),
        "tail.resume_s": (tail.resume_s, "s"),
        "tail.ingest_s": (tail.ingest_s, "s"),
        "tail.report_s": (tail.report_s, "s"),
        "store.rows_inserted": (tail.ingest.inserted, "count"),
        "store.rows_duplicate": (tail.ingest.duplicates, "count"),
        "store.rows_skipped": (tail.ingest.skipped, "count"),
        "store.rows_per_s": (tail.ingest.inserted / tail.ingest_s, "1/s"),
        "store.db_bytes": (tail.db_bytes, "bytes"),
        "report.build_s": (tail.build_s, "s"),
        "report.validate_s": (tail.validate_s, "s"),
        "report.page_bytes": (tail.page_bytes, "bytes"),
        "trace.overhead_frac": (overhead, "frac"),
        "trace.unattributed_frac": (unattributed / wall, "frac"),
        **{f"traffic.{key}": (props[key], "count")
           for key in ("d", "batch", "m", "K", "runs", "rows")},
        **{f"outcome.{key}": (props[key], "count")
           for key in ("converged", "stopped", "diverged", "crashed")},
    }
    info = {
        "thread_env_as_found": {k: v for k, v in found_env.items() if v is not None},
        "budget_wall_s": round(wall, 4),
        "budget": "; ".join(
            f"{name} {value:.4f}s ({value / wall:.1%})"
            for name, value in sorted(budget.items(), key=lambda kv: -kv[1])
        ) + f"; unattributed {unattributed:.4f}s ({unattributed / wall:.1%})",
        "budget_sums_to_wall": abs(sum(budget.values()) + unattributed - wall) < 1e-9,
    }
    return metrics, checker, info
