"""Tentative graph decomposition and stable h-clique groups (Algorithm 2).

``tentative_gd_spark`` / ``tentative_gd_local`` implement TentativeGD:
sort vertices by r descending, cut at every prefix whose instance density
dominates all longer prefixes (the diminishingly-dense prefix partition,
computed with window functions in the Spark variant), then reassign the
weight of every instance straddling multiple pieces to its last-touched
piece and recompute r.

``derive_stable_groups`` is DeriveSG: the sequential merge scan over the
pieces. After TentativeGD's reassignment, Definition 6's alpha conditions
(2)/(3) hold automatically for any union of consecutive pieces (all of a
straddling instance's weight sits on its last piece), so stability
reduces to condition (1): strict r-separation from everything outside.
The scan merges pieces until the suffix maximum of r drops strictly below
the current group's minimum. Separation is required to exceed a small
tolerance — floating-point noise can only *merge more* (coarser
candidates), never split a true stable group, which keeps every LhCDS
inside a single candidate (the pipeline's exactness invariant).

Theorem 4 then bounds every member's compact number by the group's
[min r, max r]. IPPV raises the global lower bounds with min r and caps
the candidate's density with max r; it never lowers a global upper bound
with max r (see DESIGN.md section 3 on bound scoping). IPPV runs
``tentative_gd_local``; ``tentative_gd_spark`` is kept as a tested variant.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

Instance = tuple[int, ...]

#: minimum r-gap treated as a true separation between stable groups
SEP_TOL = 1e-9


def tentative_gd_spark(
    instances: DataFrame, alpha: DataFrame, r: DataFrame
) -> tuple[list[list[int]], dict[int, float]]:
    """TentativeGD on DataFrames; returns (ordered pieces, recomputed r)."""
    w_pos = Window.orderBy(F.desc("r"), F.asc("v"))
    vpos = r.withColumn("pos", F.row_number().over(w_pos)).localCheckpoint(eager=True)

    mpos = (
        instances.join(vpos.select("v", "pos"), "v")
        .groupBy("iid")
        .agg(F.max("pos").alias("mpos"))
    )
    cnt = mpos.groupBy("mpos").agg(F.count("*").alias("cnt"))
    w_cum = Window.orderBy("pos").rowsBetween(Window.unboundedPreceding, 0)
    w_suf = Window.orderBy(F.desc("pos")).rowsBetween(Window.unboundedPreceding, 0)
    dens = (
        vpos.join(cnt, vpos["pos"] == cnt["mpos"], "left")
        .select("v", "pos", F.coalesce("cnt", F.lit(0)).alias("cnt"))
        .withColumn("cum", F.sum("cnt").over(w_cum))
        .withColumn("dens", F.col("cum") / F.col("pos"))
        .withColumn("sufmax", F.max("dens").over(w_suf))
        .withColumn("bnd", (F.col("dens") >= F.col("sufmax")).cast("int"))
    )
    w_prev = Window.orderBy("pos").rowsBetween(Window.unboundedPreceding, -1)
    vgrp = dens.withColumn(
        "grp", F.lit(1) + F.coalesce(F.sum("bnd").over(w_prev), F.lit(0))
    ).select("v", "pos", "grp").localCheckpoint(eager=True)

    ma = alpha.join(vgrp.select("v", "grp"), "v")
    imax = ma.groupBy("iid").agg(F.max("grp").alias("pmax"))
    ma = ma.join(imax, "iid")
    stat = ma.groupBy("iid").agg(
        F.sum(F.when(F.col("grp") < F.col("pmax"), F.col("alpha")).otherwise(0.0)).alias("s"),
        F.sum(F.when(F.col("grp") == F.col("pmax"), 1).otherwise(0)).alias("cntp"),
    )
    new_alpha = ma.join(stat, "iid").select(
        "iid",
        "v",
        F.when(
            F.col("grp") == F.col("pmax"),
            F.col("alpha") + F.col("s") / F.col("cntp"),
        )
        .otherwise(0.0)
        .alias("alpha"),
    )
    new_r = new_alpha.groupBy("v").agg(F.sum("alpha").alias("r"))
    pdf = (
        vgrp.join(new_r, "v", "left")
        .fillna(0.0, subset=["r"])
        .select("v", "pos", "grp", "r")
        .toPandas()
        .sort_values("pos")
    )
    pieces = [g["v"].astype(int).tolist() for _, g in pdf.groupby("grp", sort=True)]
    rmap = dict(zip(pdf["v"].astype(int), pdf["r"].astype(float)))
    return pieces, rmap


def tentative_gd_local(
    instances: list[Instance], alpha: np.ndarray, r: dict[int, float]
) -> tuple[list[list[int]], dict[int, float]]:
    """Driver-side TentativeGD with identical semantics."""
    verts = sorted(r, key=lambda v: (-r[v], v))
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    cnt = np.zeros(n, dtype=np.int64)
    for inst in instances:
        cnt[max(pos[v] for v in inst)] += 1
    cum = np.cumsum(cnt)
    dens = cum / np.arange(1, n + 1)
    sufmax = np.maximum.accumulate(dens[::-1])[::-1]
    bnd = dens >= sufmax
    grp_of_pos = np.concatenate([[0], np.cumsum(bnd[:-1])])  # 0-based group ids
    grp = {v: int(grp_of_pos[pos[v]]) for v in verts}

    new_r = {v: 0.0 for v in verts}
    for i, inst in enumerate(instances):
        pmax = max(grp[v] for v in inst)
        in_p = [j for j, v in enumerate(inst) if grp[v] == pmax]
        s = sum(alpha[i, j] for j, v in enumerate(inst) if grp[v] != pmax)
        share = s / len(in_p)
        for j, v in enumerate(inst):
            if grp[v] == pmax:
                new_r[v] += alpha[i, j] + share
    n_groups = int(grp_of_pos[-1]) + 1 if n else 0
    pieces: list[list[int]] = [[] for _ in range(n_groups)]
    for v in verts:
        pieces[grp[v]].append(v)
    return pieces, new_r


def derive_stable_groups(
    pieces: list[list[int]], r: dict[int, float], tol: float = SEP_TOL
) -> list[tuple[list[int], float, float]]:
    """DeriveSG merge scan; returns stable groups as (members, min_r, max_r)."""
    if not pieces:
        return []
    gmin = [min(r[v] for v in g) for g in pieces]
    gmax = [max(r[v] for v in g) for g in pieces]
    sufmax = list(gmax)
    for i in range(len(pieces) - 2, -1, -1):
        sufmax[i] = max(sufmax[i], sufmax[i + 1])
    out: list[tuple[list[int], float, float]] = []
    i = 0
    while i < len(pieces):
        members = list(pieces[i])
        cmin, cmax = gmin[i], gmax[i]
        j = i
        while j + 1 < len(pieces) and not (sufmax[j + 1] < cmin - tol):
            j += 1
            members.extend(pieces[j])
            cmin = min(cmin, gmin[j])
            cmax = max(cmax, gmax[j])
        out.append((members, cmin, cmax))
        i = j + 1
    return out
