"""Frank-Wolfe / SEQ-kClist++ approximation of CP(G, h) (Algorithm 2).

CP(G, h) asks every instance (h-clique or pattern occurrence) to split
its unit weight over its members so that the received totals ``r`` are as
even as possible; the optimal ``r*`` equals the h-clique compact numbers
(Theorem 2). Two implementations with identical semantics:

- ``fw_spark``: the batch-synchronous distributed variant. Each iteration
  computes, per instance, the member with minimum ``r`` (from the previous
  iteration's snapshot) and shifts ``gamma_t`` of the instance's weight to
  it — two shuffles per iteration, lineage truncated by localCheckpoint.
  Any iterate is a *feasible* CP solution, which is all Theorem 4 needs,
  so exactness of the pipeline never depends on convergence quality.
- ``fw_local``: the paper's sequential SEQ-kClist++ (in-pass r updates),
  which IPPV runs in every round on the driver mirror; a Spark round-trip
  per iteration would dominate the actual work. ``fw_spark`` is on no
  pipeline path and is kept as a tested variant.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

Instance = tuple[int, ...]


def fw_spark(instances: DataFrame, p: int, T: int) -> tuple[DataFrame, DataFrame]:
    """Run T batch FW iterations; returns (alpha ``(iid, v, alpha)``, r ``(v, r)``)."""
    alpha = instances.select("iid", "v", F.lit(1.0 / p).alias("alpha"))
    alpha = alpha.localCheckpoint(eager=True)
    r = alpha.groupBy("v").agg(F.sum("alpha").alias("r"))
    for t in range(1, T + 1):
        gamma = 1.0 / (t + 1)
        mem = alpha.join(r, "v")
        w = Window.partitionBy("iid").orderBy("r", "v")
        ranked = mem.withColumn("rn", F.row_number().over(w))
        alpha = ranked.select(
            "iid",
            "v",
            (
                (1.0 - gamma) * F.col("alpha")
                + F.when(F.col("rn") == 1, F.lit(gamma)).otherwise(F.lit(0.0))
            ).alias("alpha"),
        ).localCheckpoint(eager=True)
        r = alpha.groupBy("v").agg(F.sum("alpha").alias("r"))
    return alpha, r.localCheckpoint(eager=True)


def fw_local(
    instances: list[Instance], T: int
) -> tuple[np.ndarray, dict[int, float]]:
    """The sequential SEQ-kClist++ of Algorithm 2 (lines 5-13).

    Returns ``(alpha, r)`` with ``alpha[i, j]`` the weight instance i
    assigns to its j-th member (members in tuple order).
    """
    if not instances:
        return np.zeros((0, 0)), {}
    p = len(instances[0])
    alpha = np.full((len(instances), p), 1.0 / p)
    r: dict[int, float] = {}
    for inst in instances:
        for v in inst:
            r[v] = r.get(v, 0.0) + 1.0 / p
    for t in range(1, T + 1):
        gamma = 1.0 / (t + 1)
        scale = 1.0 - gamma
        alpha *= scale
        for v in r:
            r[v] *= scale
        for i, inst in enumerate(instances):
            jmin = 0
            vmin = inst[0]
            best = r[vmin]
            for j in range(1, p):
                rv = r[inst[j]]
                if rv < best or (rv == best and inst[j] < vmin):
                    best, jmin, vmin = rv, j, inst[j]
            alpha[i, jmin] += gamma
            r[vmin] += gamma
    return alpha, r
