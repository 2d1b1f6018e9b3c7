"""Workload definitions, input generation and the correctness reference.

Each workload is one grid of :class:`repro.harness.config.RunConfig`
built from the workload seed alone, plus the (problem, cost) pair it
runs against. Every run budget is deterministic (``max_updates`` /
``max_virtual_time``); ``max_wall_seconds`` stays infinite so a slow
host changes timings, never result rows.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

#: Reference fingerprints cover this many input sets; ``--seed n`` uses
#: input set ``n % REFERENCE_SEEDS``, so any seed has a reference.
REFERENCE_SEEDS = 16

#: Thread-count variables recorded (never set) as provenance: the MLP
#: result bits depend on the BLAS thread count, and leaving them unset is
#: what exposes the pool's oversubscription on a small host.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "REPRO_WORKERS", "REPRO_REPLICAS",
)

REFERENCE_PATH = Path(__file__).with_name("reference.json")

PARALLEL = ("ASYNC", "HOG", "LSH_ps1", "LSH_psinf")


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a grid submitted by a single caller."""

    name: str
    kind: str                        # "mlp" | "cnn" | "quadratic"
    algorithms: tuple[str, ...]
    m: int                           # thread count of the parallel algorithms
    etas: tuple[float, ...]
    seeds: int                       # K: seeds per (algorithm, eta) box
    max_updates: int
    workers: int                     # pool workers (1 = serial, no pool)
    replicas: int                    # lockstep cohort width
    durable: bool                    # every sweep journals to a run dir
    epsilons: tuple[float, ...] | None = None

    def configs(self, seed: int, *, self_profile: bool = False) -> list:
        """The grid for workload seed ``seed`` (same seed, same grid)."""
        from repro.harness.config import RunConfig, get_profile

        profile = get_profile("quick")
        epsilons = self.epsilons or (
            profile.cnn_epsilons if self.kind == "cnn" else profile.mlp_epsilons
        )
        # Every (algorithm, eta) box gets seeds of its own. Shared seeds
        # would correlate the boxes, leaving K independent draws per
        # sweep; the CNN gradients per sweep then varied 1.6 times as much
        # (coefficient of variation 0.13 against 0.08 over six input sets).
        # Box b takes seeds base + 10 * b + k, so K is at most 10.
        base = 1000 * (seed % REFERENCE_SEEDS)
        boxes = [(algorithm, eta) for algorithm in self.algorithms for eta in self.etas]
        configs = [
            RunConfig(
                algorithm, m=1 if algorithm == "SEQ" else self.m, eta=eta,
                seed=base + 10 * box + k, epsilons=epsilons,
                target_epsilon=min(epsilons), max_updates=self.max_updates,
                max_virtual_time=profile.max_virtual_time,
                self_profile=self_profile,
            )
            for box, (algorithm, eta) in enumerate(boxes)
            for k in range(self.seeds)
        ]
        check_budgets(configs)
        return configs

    def build(self):
        """A freshly built (problem, cost): corpus, network and cost model."""
        from repro.harness.config import Workloads, get_profile

        workloads = Workloads(get_profile("quick"))
        return workloads.problem(self.kind), workloads.cost(self.kind)

    @property
    def batch(self) -> int:
        from repro.harness.config import get_profile

        profile = get_profile("quick")
        return {"mlp": profile.batch_size, "cnn": profile.cnn_batch_size}.get(
            self.kind, 1
        )


def check_budgets(configs) -> None:
    """Refuse any config whose outcome could depend on host speed."""
    for config in configs:
        if not math.isinf(config.max_wall_seconds):
            raise ValueError(
                f"{config.algorithm} seed {config.seed}: max_wall_seconds="
                f"{config.max_wall_seconds} makes the result host-dependent"
            )
        if math.isinf(config.max_virtual_time) and config.max_updates <= 0:
            raise ValueError(f"{config}: no deterministic run budget")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mlp_grid", kind="mlp", algorithms=("SEQ", *PARALLEL), m=16,
            etas=(0.02, 0.05), seeds=3, max_updates=6, workers=2, replicas=3,
            durable=False,
        ),
        Workload(
            name="cnn_grid", kind="cnn", algorithms=("SEQ", *PARALLEL), m=16,
            etas=(0.02, 0.05), seeds=3, max_updates=3, workers=2, replicas=3,
            durable=False,
        ),
        Workload(
            name="contention_durable", kind="quadratic",
            algorithms=("SEQ", "ASYNC", "HOG", "LSH_ps0", "LSH_ps1", "LSH_psinf"),
            m=68, etas=(0.1, 20.0), seeds=4, max_updates=100, workers=1,
            replicas=1, durable=True, epsilons=(0.5, 0.1, 0.01),
        ),
    )
}


def provenance() -> dict:
    """The facts a fingerprint reference is only valid under."""
    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {key: info.get(key) for key in ("name", "version")}
    except (TypeError, AttributeError):  # older numpy: no dict mode
        blas = {"name": None, "version": None}
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
