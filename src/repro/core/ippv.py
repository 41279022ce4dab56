"""IPPV: the Iterative Propose-Prune-and-Verify pipeline (Algorithms 6/7).

Spark enumerates the instance hypergraph (h-cliques or 4-vertex patterns);
everything else runs on the driver mirror (``LocalGraph``) that the edges
and instances are collected into: InitializeBd (core-number bounds),
ProposeCL (Frank-Wolfe, TentativeGD, DeriveSG), Prune and exact max-flow
verification. The loop keeps three invariants that make the output
provably the exact top-k (see DESIGN.md section 3):

1. every LhCDS of G is fully contained in exactly one stacked candidate
   (stable groups cannot split a uniform-phi set; refinement by exact
   decomposition, components, or sub-proposal preserves containment);
2. a candidate is discarded only on proof that it contains no LhCDS
   (self-densest + connected + single decomposition block + failed
   maximal-compactness verification);
3. the loop stops early only when every remaining candidate's compact
   number upper bound is strictly below the current k-th best density.

Entry points: ``ippv`` (h-clique, Spark enumeration), ``ippv_instances``
(any instance DataFrame — the section-5 LhxPDS extension), and
``ippv_local`` (the pipeline on a prepared LocalGraph, which both of the
others end in; also used by tests and the baselines' IPPV variant).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from pyspark.sql import DataFrame, SparkSession

from ..flow.networks import densest_sub, is_densest
from ..graphs.cliques import clique_instances, instances_to_local
from ..graphs.cores import instance_core_numbers_local
from ..graphs.local import LocalGraph
from .decompose import derive_stable_groups, tentative_gd_local
from .fw import fw_local
from .prune import prune_local
from .verify import candidate_density, verify_basic, verify_fast

# Unused here: perfbench/tracing.py wraps these Spark variants by name in this module.
from ..graphs.cores import instance_core_numbers  # noqa: F401
from .decompose import tentative_gd_spark  # noqa: F401
from .fw import fw_spark  # noqa: F401
from .prune import prune_spark  # noqa: F401

TOL = 1e-9


@dataclass(frozen=True)
class LhCDS:
    """One verified locally densest subgraph."""

    vertices: frozenset[int]
    density: Fraction

    @property
    def size(self) -> int:
        return len(self.vertices)


def _core_loop(
    lg: LocalGraph,
    ub: dict[int, float],
    lb: dict[int, float],
    k: int | None,
    T: int,
    fast_verify: bool,
    st: dict,
) -> list[LhCDS]:
    """The Algorithm-6 stack loop over a prepared LocalGraph + bounds."""
    p = lg.p
    results: list[LhCDS] = []
    out_exact: dict[int, Fraction] = {}  # output vertex -> exact phi (Thm 1)
    st.setdefault("t_propose", 0.0)
    st.setdefault("t_prune", 0.0)
    st.setdefault("t_verify", 0.0)

    def propose_sub(work: set[int], cap: float) -> list[tuple[set[int], float]]:
        """Recursion-round ProposeCL + Prune on the driver mirror.

        ``cap`` is the parent candidate's density cap; any LhCDS D inside a
        sub-stable-group has density d(D) = phi^{G[work]}(D) <= the group's
        max r (Theorems 1+4 applied to CP(G[work], h)), so the child's cap
        is min(cap, group max r) — valid even though subgraph *vertex* upper
        bounds are not globally valid.
        """
        tp = time.perf_counter()
        insts = lg.instances_within(work)
        if not insts:
            return []
        alpha, r0 = fw_local(insts, T)
        pieces, r = tentative_gd_local(insts, alpha, r0)
        groups = derive_stable_groups(pieces, r)
        for members, gmin, _gmax in groups:
            for v in members:
                lb[v] = max(lb[v], gmin - TOL)  # lower bounds stay global
        st["t_propose"] += time.perf_counter() - tp
        tp = time.perf_counter()
        alive = prune_local(lg, work, ub, lb)
        st["t_prune"] += time.perf_counter() - tp
        return [
            (set(m) & alive, min(cap, gmax + TOL))
            for m, _gmin, gmax in groups
            if set(m) & alive
        ]

    stack = list(reversed(propose_sub(set(lg.vertices), float("inf"))))

    while stack:
        if k is not None and len(results) >= k:
            # Exact stop: caps carry +TOL slack and densities are rationals
            # with denominator <= n, so cap <= kth + TOL forces density <=
            # kth (a strictly denser LhCDS would exceed kth by >= 1/n^2 >>
            # TOL). Remaining ties cannot displace a valid top-k.
            kth = sorted((r.density for r in results), reverse=True)[k - 1]
            if all(cap <= float(kth) + TOL for _, cap in stack):
                break
        S, cap = stack.pop()
        if not S:
            continue
        comps = lg.components(S)
        if len(comps) > 1:
            stack.extend((c, cap) for c in reversed(comps))
            continue
        d = candidate_density(lg, S)
        if d == 0:
            continue
        tv = time.perf_counter()
        dense_ok = is_densest(sorted(S), lg.instances_within(S), p)
        st["t_verify"] += time.perf_counter() - tv
        if dense_ok:
            tv = time.perf_counter()
            if fast_verify:
                ok = verify_fast(lg, S, ub, lb, out_exact, st)
            else:
                ok = verify_basic(lg, S, st)
            st["t_verify"] += time.perf_counter() - tv
            if ok:
                results.append(LhCDS(frozenset(S), d))
                df = float(d)
                for v in S:
                    # Theorem 1 pins these vertices' compact numbers exactly
                    out_exact[v] = d
                    ub[v] = min(ub[v], df + TOL)
                    lb[v] = max(lb[v], df - TOL)
            else:
                # Discard, provably exact (invariant 2): S is connected and
                # self-densest, hence d(S)-compact; any LhCDS D inside S would
                # sit inside the strictly larger d(D)-compact graph that made
                # verification fail (it is d(S)-compact, and d(S) >= d(D)),
                # contradicting D's maximality. So S contains no LhCDS.
                st["discarded"] = st.get("discarded", 0) + 1
        else:
            subcands = propose_sub(S, cap)
            if len(subcands) == 1 and subcands[0][0] == S:
                # Rough FW solution failed to split a non-self-densest
                # candidate; split off the exact maximal densest subgraph D of
                # G[S] instead (one Dinkelbach run). D is the top block of the
                # exact decomposition, so every LhCDS inside S lies entirely
                # in D or entirely in S \ D, and both have density <= d(D).
                st["exact_splits"] = st.get("exact_splits", 0) + 1
                hyper = {inst: 1 for inst in lg.instances_within(S)}
                D, dD = densest_sub(S, hyper)
                newcap = min(cap, float(dD) + TOL)
                rest = S - D
                if rest:
                    stack.append((rest, newcap))
                stack.append((set(D), newcap))
            else:
                stack.extend(reversed(subcands))

    results.sort(key=lambda r: (-r.density, sorted(r.vertices)))
    return results if k is None else results[:k]


def ippv_local(
    lg: LocalGraph,
    k: int | None = 5,
    T: int = 10,
    fast_verify: bool = True,
    stats: dict | None = None,
) -> list[LhCDS]:
    """Run the whole pipeline on a driver-side LocalGraph (with instances)."""
    if k is not None and k < 0:
        raise ValueError(f"k must be >= 0 or None, got {k}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if k == 0:
        return []
    st = stats if stats is not None else {}
    t0 = time.perf_counter()
    cores = instance_core_numbers_local(lg.vertices, lg.instances)
    ub = {v: float(cores.get(v, 0)) for v in lg.vertices}
    lb = {v: cores.get(v, 0) / lg.p for v in lg.vertices}
    st["t_bounds"] = time.perf_counter() - t0
    return _core_loop(lg, ub, lb, k, T, fast_verify, st)


def ippv_instances(
    spark: SparkSession,
    edges: DataFrame,
    instances: DataFrame,
    p: int,
    k: int | None = 5,
    T: int = 10,
    fast_verify: bool = True,
    stats: dict | None = None,
) -> list[LhCDS]:
    """IPPV over an arbitrary instance hypergraph (Algorithm 7, LhxPDS)."""
    st = stats if stats is not None else {}
    t0 = time.perf_counter()
    edges_pdf = edges.toPandas()
    inst_list = instances_to_local(instances)
    lg = LocalGraph(
        edges=list(zip(edges_pdf["src"].astype(int), edges_pdf["dst"].astype(int))),
        instances=inst_list,
        p=p,
    )
    st["n"], st["m"], st["instances"] = lg.n, lg.m, len(inst_list)
    st["t_mirror"] = time.perf_counter() - t0
    return ippv_local(lg, k, T, fast_verify, st)


def ippv(
    spark: SparkSession,
    edges: DataFrame,
    h: int = 3,
    k: int | None = 5,
    T: int = 10,
    fast_verify: bool = True,
    stats: dict | None = None,
) -> list[LhCDS]:
    """Top-k LhCDS discovery (Algorithm 6). ``k=None`` finds all."""
    st = stats if stats is not None else {}
    t0 = time.perf_counter()
    instances = clique_instances(edges, h).localCheckpoint(eager=True)
    st["t_enumerate"] = time.perf_counter() - t0
    return ippv_instances(
        spark,
        edges,
        instances,
        p=h,
        k=k,
        T=T,
        fast_verify=fast_verify,
        stats=st,
    )
