"""Workload definitions: how each input is generated and solved.

Every workload is a fixed synthetic graph (generator + generator seed) that
the benchmark relabels with a random vertex permutation drawn from
``--seed``. Relabelling keeps the amount of work nearly constant from seed
to seed, so run-to-run spread stays small, while each seed still hands the
program a different edge list. Exact results are invariant under
relabelling, so one oracle reference per graph checks every seed (results
are mapped back to the base labels before the check).

The program under test only ever receives the relabelled edges.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

from repro import synth_data as sd


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: generator seed -> canonical (src < dst) pandas edge frame
    graph: Callable[[int], pd.DataFrame]
    graph_seed: int
    h: int
    k: int
    spark: bool


def _gq(seed: int) -> pd.DataFrame:
    # the parameters of experiments.DATASETS["GQ-lite"]
    return sd.team_graph_pd(n=1800, n_teams=240, team_size=(4, 8), overlap=0.15, seed=seed)


def _gq_mid(seed: int) -> pd.DataFrame:
    # GQ-lite's generator at a third of its size, so that a run holds ~25 solves
    return sd.team_graph_pd(n=600, n_teams=80, team_size=(4, 8), overlap=0.15, seed=seed)


def _gq_tiny(seed: int) -> pd.DataFrame:
    # the parameters of experiments.DATASETS_TINY["GQ-tiny"]
    return sd.team_graph_pd(n=300, n_teams=40, team_size=(4, 7), overlap=0.15, seed=seed)


def _ep26k(seed: int) -> pd.DataFrame:
    return sd.ep_like_pd(n_core=30000, m_core=90000, alpha=0.7, seed=seed)


def _ha_tiny(seed: int) -> pd.DataFrame:
    # the parameters of experiments.DATASETS_TINY["HA-tiny"]
    return sd.planted_communities_pd(
        n=150, m_background=240, blocks=[(12, 0.9), (9, 0.8), (8, 0.7)], seed=seed
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "gq-mid-h3-k20",
            "many small flows: ~44 verifications, 88 max-flows, 6 exact splits; flows dominate, "
            "the mirror build and enumeration are negligible",
            _gq_mid, 12, 3, 20, False,
        ),
        # Not in BENCHMARK.json: a 5-8 s solve leaves too few solves in a run
        # to steady its median on a shared host. Runnable by hand.
        Workload(
            "gq-h3-k20",
            "many small flows: ~144 verifications, 11 exact splits; flows dominate, "
            "the mirror build and enumeration are negligible",
            _gq, 12, 3, 20, False,
        ),
        # Not in BENCHMARK.json: with Spark's ~40 s of JVM start and warm-up
        # per run, three workloads do not fit the run budget at a window long
        # enough to steady pure-Python solve times. Runnable by hand.
        Workload(
            "ep26k-h3-k5",
            "few large flows plus scans at paper scale (n=26k, m=90k): mirror build, "
            "enumeration, cores and one Dinkelbach split on a large candidate",
            _ep26k, 17, 3, 5, False,
        ),
        Workload(
            "spark-ha-tiny-h3-k5",
            "the default Spark path of ippv(): Spark enumeration, core peeling, FW, "
            "TentativeGD and prune; verification needs no flow",
            _ha_tiny, 11, 3, 5, True,
        ),
        # Not in BENCHMARK.json: runs the whole harness on a tiny graph in seconds.
        Workload(
            "smoke",
            "GQ-tiny on the driver path, for checking the harness itself",
            _gq_tiny, 12, 3, 5, False,
        ),
    ]
}


def edges_sha256(pdf: pd.DataFrame) -> str:
    """Hash of a canonical edge frame (sorted int64 (src, dst) pairs)."""
    arr = np.ascontiguousarray(pdf[["src", "dst"]].to_numpy(dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


@dataclass
class Inputs:
    base: pd.DataFrame  # the generator's edge frame
    edges: pd.DataFrame  # relabelled, canonical and sorted: what the program sees
    base_of: np.ndarray  # relabelled vertex id -> base vertex id


def make_inputs(wl: Workload, seed: int, graph_seed: int) -> Inputs:
    """The workload's graph, relabelled by a permutation drawn from ``seed``."""
    base = wl.graph(graph_seed)
    src = base["src"].to_numpy(dtype=np.int64)
    dst = base["dst"].to_numpy(dtype=np.int64)
    n_ids = int(max(src.max(), dst.max())) + 1
    perm = np.random.default_rng(seed).permutation(n_ids)
    a, b = perm[src], perm[dst]
    edges = (
        pd.DataFrame({"src": np.minimum(a, b), "dst": np.maximum(a, b)})
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )
    base_of = np.empty(n_ids, dtype=np.int64)
    base_of[perm] = np.arange(n_ids)
    return Inputs(base, edges, base_of)
