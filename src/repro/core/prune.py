"""Pruning of invalid vertices (Proposition 5 / Algorithm 3).

Condition (1): a vertex v with a neighbor u whose compact-number lower
bound strictly exceeds v's upper bound cannot belong to any LhCDS
(Proposition 4). Condition (2): after removing those, any vertex whose
instance-core number in the pruned graph falls below its lower bound
would need already-pruned vertices to realize its compact subgraph, so it
is invalid too; removals cascade until fixpoint.

IPPV runs ``prune_local`` on the driver mirror. ``prune_spark`` (kept as
a tested variant) evaluates condition (1) as a join over the edge
DataFrame; in both, the condition-(2) cascade runs on the driver with the
heap-based core decomposition — the paper itself treats this step as
incremental per-removal updates (Algorithm 3 line 7), which is inherently
sequential. Both paths share semantics and tests.

Bound comparisons leave a float tolerance in the conservative direction:
only prune when the violation is clear, never prune on noise.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..graphs.cores import instance_core_numbers_local
from ..graphs.local import LocalGraph

TOL = 1e-9


def _cond2_cascade(
    lg: LocalGraph, alive: set[int], lb: dict[int, float]
) -> set[int]:
    """Iterate condition (2) until no vertex's core violates its lower bound."""
    alive = set(alive)
    while True:
        insts = lg.instances_within(alive)
        core = instance_core_numbers_local(sorted(alive), insts)
        bad = {u for u in alive if core.get(u, 0) < lb.get(u, 0.0) - TOL}
        if not bad:
            return alive
        alive -= bad


def prune_local(
    lg: LocalGraph,
    work: set[int],
    ub: dict[int, float],
    lb: dict[int, float],
) -> set[int]:
    """Driver-side Algorithm 3 over the vertices in ``work``."""
    alive = set(work)
    removed = set()
    for u, v in lg.edges:
        if u in alive and v in alive:
            if ub.get(v, 0.0) < lb.get(u, 0.0) - TOL:
                removed.add(v)
            if ub.get(u, 0.0) < lb.get(v, 0.0) - TOL:
                removed.add(u)
    alive -= removed
    return _cond2_cascade(lg, alive, lb)


def prune_spark(
    spark: SparkSession,
    edges: DataFrame,
    lg: LocalGraph,
    ub: dict[int, float],
    lb: dict[int, float],
) -> set[int]:
    """Top-level Algorithm 3: condition (1) as a DataFrame join, then the
    driver-side condition-(2) cascade."""
    import pandas as pd

    bounds = spark.createDataFrame(
        pd.DataFrame(
            {
                "v": list(ub),
                "ub": [ub[v] for v in ub],
                "lb": [lb[v] for v in ub],
            }
        )
    )
    e = (
        edges.join(
            bounds.select(F.col("v").alias("src"), F.col("lb").alias("lb_s"), F.col("ub").alias("ub_s")),
            "src",
        ).join(
            bounds.select(F.col("v").alias("dst"), F.col("lb").alias("lb_d"), F.col("ub").alias("ub_d")),
            "dst",
        )
    )
    bad_dst = e.filter(F.col("ub_d") < F.col("lb_s") - TOL).select(F.col("dst").alias("v"))
    bad_src = e.filter(F.col("ub_s") < F.col("lb_d") - TOL).select(F.col("src").alias("v"))
    bad = {int(r["v"]) for r in bad_dst.unionByName(bad_src).distinct().collect()}
    alive = set(lg.vertices) - bad
    return _cond2_cascade(lg, alive, lb)
