"""One sweep through the public service path, and the durable tail.

A sweep is what ``repro experiment`` does for one grid: build the
workload, construct an :class:`~repro.service.ExperimentService`, one
``map`` call, ``finalize``, ``close``. The tail is what follows on a
durable run directory: ``repro experiment --resume``, ``repro db
ingest`` and ``repro report --db``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep


@dataclass
class Sweep:
    rows: list
    summary: dict
    stats: dict
    setup_s: float
    map_s: float
    finalize_s: float
    close_s: float
    rss_kb: int             # parent VmHWM + every pool worker's VmHWM
    d: int
    pool: dict = field(default_factory=dict)

    @property
    def grads(self) -> int:
        return sum(grads_of(row) for row in self.rows)

    @property
    def grads_per_s(self) -> float:
        return self.grads / (self.map_s + self.finalize_s)

    @property
    def fingerprint(self) -> str:
        return self.summary["merged_fingerprint"]


def grads_of(row) -> int:
    """Gradients a run computed: published updates plus dropped ones."""
    return int(row.metrics["n_updates"]) + int(row.metrics["n_dropped"])


def _vm_hwm_kb(pid: int | str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _cmdline(pid: int | str) -> bytes:
    with open(f"/proc/{pid}/cmdline", "rb") as fh:
        return fh.read()


def child_pids() -> list[int]:
    """Processes whose parent is this one."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        if ppid == me:
            pids.append(int(entry))
    return sorted(pids)


def pool_worker_pids() -> list[int]:
    """Children forked from this process (same command line): the pool
    workers. Helpers such as the shared-memory resource tracker run
    another command line and are left out."""
    mine = _cmdline(os.getpid())
    pids = []
    for pid in child_pids():
        try:
            if _cmdline(pid) == mine:
                pids.append(pid)
        except OSError:
            continue
    return pids


def peak_rss_kb() -> int:
    """Peak resident set of this process plus each live pool worker,
    read from ``VmHWM`` (``RUSAGE_CHILDREN`` misreports forked workers)."""
    total = _vm_hwm_kb("self")
    for pid in pool_worker_pids():
        try:
            total += _vm_hwm_kb(pid)
        except OSError:
            pass
    return total


def wait_for_exit(pids, timeout: float = 30.0) -> None:
    """Wait until every process in ``pids`` has exited (a zombie has
    already freed its memory)."""
    deadline = perf_counter() + timeout
    for pid in pids:
        while perf_counter() < deadline:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                        break
            except OSError:
                break  # exited and reaped
            sleep(0.002)


def run_sweep(workload, configs, *, run_dir=None, workers=None,
              spans=None) -> Sweep:
    """Build the workload and push ``configs`` through one service.

    With ``spans`` (a dict) the sweep is traced from the outside: the
    pool is spawned and the problem broadcast before ``map`` so each is
    timed on its own, and every phase's duration lands in ``spans``
    under its layer name. Untraced, the service spawns its pool lazily
    inside ``map``, as ``repro experiment`` does.
    """
    from repro.harness.pool import WorkerPool
    from repro.service import ExperimentService

    workers = workers or workload.workers
    t0 = perf_counter()
    problem, cost = workload.build()
    pool = None
    if spans is not None and workers > 1:
        pool = WorkerPool(workers)
        t = perf_counter()
        pool.ping()
        spans["pool.spawn"] = perf_counter() - t
        t = perf_counter()
        pool.broadcast_for(problem, cost)
        spans["pool.broadcast"] = perf_counter() - t
        t0 += spans["pool.spawn"] + spans["pool.broadcast"]
    try:
        service = ExperimentService(
            run_dir, workers=workers, replicas=workload.replicas, pool=pool,
            manifest={"step": f"perfbench-{workload.name}", "profile": "quick"},
        )
        t1 = perf_counter()
        try:
            rows = service.map(problem, cost, configs)
            t2 = perf_counter()
            summary = service.finalize()
            t3 = perf_counter()
            rss = peak_rss_kb()
            worker_pids = pool_worker_pids()
            stats = service.stats.as_dict()
            live_pool = service.pool
            pool_stats = live_pool.stats.as_dict() if live_pool is not None else {}
        finally:
            service.close()
    finally:
        if pool is not None:
            pool.close()
    t4 = perf_counter()
    # Closing the pool does not wait for its workers. Freeing their
    # memory would otherwise overlap whatever is measured next.
    wait_for_exit(worker_pids)
    sweep = Sweep(
        rows=rows, summary=summary, stats=stats, setup_s=t1 - t0,
        map_s=t2 - t1, finalize_s=t3 - t2, close_s=t4 - t3, rss_kb=rss,
        d=problem.d, pool=pool_stats,
    )
    if spans is not None:
        spans.update({
            "setup": sweep.setup_s, "service.map": sweep.map_s,
            "service.finalize": sweep.finalize_s, "service.close": sweep.close_s,
        })
    return sweep


@dataclass
class Tail:
    resume: Sweep
    resume_s: float
    ingest_s: float
    report_s: float
    ingest: object            # repro.store.IngestReport
    db_bytes: int
    build_s: float
    validate_s: float
    page_bytes: int
    page_sha: str

    @property
    def times(self) -> dict:
        return {"resume_s": self.resume_s, "ingest_s": self.ingest_s,
                "report_s": self.report_s}


def run_tail(workload, configs, run_dir: Path, history: Path, work: Path) -> Tail:
    """Resume ``run_dir`` (every task should come from the journal),
    ingest it and the bench trajectory ``history`` into a fresh on-disk
    store, then build, validate and write the report."""
    from repro.report import build_report, validate_report_html
    from repro.store import ResultStore, ingest_path

    t0 = perf_counter()
    resumed = run_sweep(workload, configs, run_dir=run_dir)
    resume_s = perf_counter() - t0

    db = work / "results.sqlite"
    for stale in work.glob("results.sqlite*"):
        stale.unlink()
    t0 = perf_counter()
    with ResultStore(db) as store:
        ingested = ingest_path(store, run_dir)
        ingest_path(store, history)
    ingest_s = perf_counter() - t0

    page = work / "report.html"
    t0 = perf_counter()
    with ResultStore(db) as store:
        t_build = perf_counter()
        # A fixed footer keeps the page bytes a function of the rows.
        text = build_report(store, generated_at="perfbench")
        build_s = perf_counter() - t_build
    t_validate = perf_counter()
    validate_report_html(text)
    validate_s = perf_counter() - t_validate
    page.write_text(text, encoding="utf-8")
    report_s = perf_counter() - t0
    return Tail(
        resume=resumed, resume_s=resume_s, ingest_s=ingest_s,
        report_s=report_s, ingest=ingested, db_bytes=db.stat().st_size,
        build_s=build_s, validate_s=validate_s,
        page_bytes=len(text.encode("utf-8")),
        page_sha=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def row_identity(row) -> str:
    """Hash of a row's simulation content: the host fields dropped and the
    ``self_profile`` flag normalised, so traced and untraced rows compare."""
    from repro.harness.cache import HOST_FIELDS
    from repro.utils.serialization import _encode

    flat = _encode(row)
    payload = {k: v for k, v in flat.items() if k not in HOST_FIELDS}
    payload["config"] = {**payload["config"], "self_profile": False}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
