"""(k, psi_h)-core decomposition over an instance hypergraph.

The paper's Definition 5 / Algorithm 1 (InitializeBd) rest on the
h-clique-core number ``core_G(u, psi_h)``: the largest k such that u
belongs to a subgraph where every vertex is contained in >= k instances.

``instance_core_numbers`` is the distributed peeling loop: repeatedly
compute per-vertex instance degrees, peel every vertex at or below the
current level, and drop the instances they touch — the standard k-core
peeling generalized to hyperedges, expressed as iterative DataFrame jobs
with ``localCheckpoint`` lineage truncation.

``instance_core_numbers_local`` is the identical algorithm on driver-side
structures (heap-based, exact same output). IPPV uses it for InitializeBd
and inside the pruning cascade, where a Spark round-trip per iteration
would dominate; the Spark loop is on no pipeline path. Both are covered
by the same tests.
"""
from __future__ import annotations

import heapq

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def instance_core_numbers(
    spark: SparkSession, vertices: DataFrame, instances: DataFrame
) -> DataFrame:
    """Core number per vertex as DF ``(v, core)``.

    ``vertices`` is a one-column DF ``v`` (vertices with no instances get
    core 0); ``instances`` is the long ``(iid, v)`` instance table.
    """
    alive_v = vertices.select("v").distinct().localCheckpoint(eager=True)
    alive_i = instances.localCheckpoint(eager=True)
    out: list[pd.DataFrame] = []
    k = 0
    while True:
        nv = alive_v.count()
        if nv == 0:
            break
        deg = (
            alive_v.join(
                alive_i.groupBy("v").agg(F.count("*").alias("deg")), "v", "left"
            )
            .fillna(0, subset=["deg"])
        )
        dmin = deg.agg(F.min("deg").alias("m")).collect()[0]["m"]
        k = max(k, int(dmin))
        peel = deg.filter(F.col("deg") <= k).select("v")
        peel_pdf = peel.toPandas()
        peel_pdf["core"] = k
        out.append(peel_pdf)
        alive_v = alive_v.join(peel, "v", "anti").localCheckpoint(eager=True)
        bad = alive_i.join(peel, "v", "semi").select("iid").distinct()
        alive_i = alive_i.join(bad, "iid", "anti").localCheckpoint(eager=True)
    res = pd.concat(out, ignore_index=True) if out else pd.DataFrame({"v": [], "core": []})
    return spark.createDataFrame(res.astype({"v": "int64", "core": "int64"}))


def instance_core_numbers_local(
    vertices: list[int], instances: list[tuple[int, ...]]
) -> dict[int, int]:
    """Driver-side exact core numbers (same semantics as the Spark version)."""
    inc: dict[int, list[int]] = {v: [] for v in vertices}
    for i, inst in enumerate(instances):
        for v in inst:
            inc[v].append(i)
    deg = {v: len(inc[v]) for v in vertices}
    dead_inst = [False] * len(instances)
    removed: set[int] = set()
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    core: dict[int, int] = {}
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in removed or d != deg[v]:
            continue
        removed.add(v)
        k = max(k, d)
        core[v] = k
        for i in inc[v]:
            if dead_inst[i]:
                continue
            dead_inst[i] = True
            for w in instances[i]:
                if w not in removed:
                    deg[w] -= 1
                    heapq.heappush(heap, (deg[w], w))
    return core
