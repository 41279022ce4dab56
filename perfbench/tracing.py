"""Outside-in per-layer tracing of one solve.

The program has no trace of its own yet, so the benchmark wraps the public
callables of each layer *at the names their callers look up* (for example
``repro.core.ippv.is_densest``, not only ``repro.flow.networks``), records a
span around every call, and restores the originals afterwards. Counts come
from these wrappers, never from the program's ``stats`` dict.

A span's self time is its duration minus its children's durations, so the
self times of all spans of a solve add up to the solve's wall time.
With a SparkContext, each span also sets a Spark job group named after its
layer, and the jobs of each group are counted from the status tracker.

Which end-to-end metric each layer should move, and on which workload
(``ep26k-h3-k5`` is run by hand, see ``workloads.py``):

- ``flow.dinic.max_flow``, ``flow.networks.*``, ``core.verify``:
  ``solve_per_cal`` on ``gq-mid-h3-k20`` (many small networks; ``ep26k-h3-k5`` has
  few large ones); no change on ``spark-ha-tiny-h3-k5``, which runs no
  verification flow.
- ``graphs.local.*``: ``solve_per_cal`` and ``peak_rss_mb`` on ``ep26k-h3-k5``;
  hardly on ``gq-mid-h3-k20``, where they take under 2% of a solve.
- ``graphs.cores``, ``core.fw``, ``core.decompose``, ``core.prune``:
  ``solve_per_cal`` on ``spark-ha-tiny-h3-k5`` (Spark variants) and on
  ``gq-mid-h3-k20`` and ``ep26k-h3-k5`` (driver variants).
- ``graphs.cliques`` and ``spark.jobs.*``: ``solve_per_cal`` on
  ``spark-ha-tiny-h3-k5``.
- ``core.ippv.self_s``, ``unattributed_ratio``, ``trace.overhead_s``: all.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import repro.core.ippv as ippv_mod
import repro.core.prune as prune_mod
import repro.core.verify as verify_mod
from repro.flow.dinic import Dinic
from repro.graphs.local import LocalGraph

ROOT = "solve"

#: every layer a span can belong to, outermost first
LAYERS = [
    "graphs.local.build",
    "graphs.local.enum",
    "graphs.cliques",
    "core.ippv",
    "graphs.cores",
    "core.fw",
    "core.decompose",
    "core.prune",
    "core.verify",
    "core.verify.reduce",
    "graphs.local.instances_within",
    "graphs.local.components",
    "graphs.local.instance_count",
    "flow.networks.is_densest",
    "flow.networks.derive_compact",
    "flow.networks.densest_sub",
    "flow.dinic.max_flow",
]

#: per-layer metrics that are ratios of times; every other non-time metric
#: is a count that must repeat exactly from one traced solve to the next
TIME_RATIOS = {"unattributed_ratio"}

#: layers whose jobs are reported as ``spark.jobs.<layer>``
SPARK_LAYERS = [
    "graphs.cliques", "graphs.local.build", "graphs.cores", "core.fw",
    "core.decompose", "core.prune", "core.ippv",
]


class Span:
    __slots__ = ("name", "sid", "parent", "start", "end", "child")

    def __init__(self, name: str, sid: int, parent: "Span | None"):
        self.name, self.sid, self.parent = name, sid, parent
        self.start = time.perf_counter()
        self.end = 0.0
        self.child = 0.0


class Tracer:
    """Spans and counts of one traced solve."""

    def __init__(self, solve_id: str, sc=None) -> None:
        self.solve_id = solve_id
        self.sc = sc
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.active: Counter = Counter()  # open spans per layer name
        self.calls: Counter = Counter()
        self.total: Counter = Counter()  # outermost-span time per layer
        self.self_time: Counter = Counter()

    def _job_group(self, name: str) -> str:
        return f"{self.solve_id}/{name}"

    def open(self, name: str) -> Span:
        if self.sc is not None:
            self.sc.setJobGroup(self._job_group(name), name)
        sp = Span(name, len(self.spans), self.stack[-1] if self.stack else None)
        self.spans.append(sp)
        self.stack.append(sp)
        self.active[name] += 1
        return sp

    def close(self, sp: Span) -> None:
        while self.stack and self.stack[-1] is not sp:  # a callee raised
            self.close(self.stack[-1])
        sp.end = time.perf_counter()
        self.stack.pop()
        dur = sp.end - sp.start
        self.active[sp.name] -= 1
        self.calls[sp.name] += 1
        self.self_time[sp.name] += dur - sp.child
        if not self.active[sp.name]:
            self.total[sp.name] += dur
        if sp.parent is not None:
            sp.parent.child += dur
        if self.sc is not None:
            if self.stack:
                outer = self.stack[-1].name
                self.sc.setJobGroup(self._job_group(outer), outer)
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)

    @contextmanager
    def span(self, name: str):
        sp = self.open(name)
        try:
            yield
        finally:
            self.close(sp)

    def spark_jobs(self) -> Counter:
        """Spark jobs run while each layer was the innermost open span."""
        if self.sc is None:
            return Counter()
        tracker = self.sc.statusTracker()
        return Counter({
            name: len(tracker.getJobIdsForGroup(self._job_group(name))) for name in self.calls
        })

    def span_records(self) -> list[dict]:
        return [
            {"solve": self.solve_id, "id": s.sid, "name": s.name,
             "parent": None if s.parent is None else s.parent.sid,
             "start": s.start, "end": s.end}
            for s in self.spans
        ]


# ------------------------------------------------------------------ patching
def _wrap(tr: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        sp = tr.open(name)
        try:
            out = fn(*args, **kwargs)
            if after is not None:
                after(tr, args, out)
            return out
        finally:
            tr.close(sp)

    return wrapper


def _after_max_flow(tr: Tracer, args, out) -> None:
    tr.counts["flow.dinic.max_flow.arcs"] += len(args[0].to) // 2
    if tr.active["flow.networks.densest_sub"]:
        tr.counts["flow.networks.densest_sub.maxflows"] += 1


def _after_verify(tr: Tracer, args, ok) -> None:
    tr.counts["core.verify.accepted"] += bool(ok)


def _after_reduce(tr: Tracer, args, out) -> None:
    if out[0] == "flow":
        tr.counts["core.verify.flows"] += 1
    elif out[1]:
        tr.counts["core.verify.shortcuts"] += 1
    else:
        tr.counts["core.verify.rejects"] += 1


def _after_groups(tr: Tracer, args, groups) -> None:
    tr.counts["core.decompose.groups"] += len(groups)


def _after_prune_local(tr: Tracer, args, alive) -> None:
    tr.counts["core.prune.in"] += len(args[1])  # prune_local(lg, work, ub, lb)
    tr.counts["core.prune.out"] += len(alive)


def _after_prune_spark(tr: Tracer, args, alive) -> None:
    tr.counts["core.prune.in"] += args[2].n  # prune_spark(spark, edges, lg, ub, lb)
    tr.counts["core.prune.out"] += len(alive)


def _after_collect(tr: Tracer, args, insts) -> None:
    tr.counts["graphs.cliques.instances"] += len(insts)


def _patch_table(tr: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every wrapped lookup site."""
    w = functools.partial(_wrap, tr)
    m = ippv_mod

    orig_ippv, orig_ippv_instances = m.ippv, m.ippv_instances

    def ippv(*args, **kwargs):
        # Spark enumeration is ippv's own work before it calls
        # ippv_instances; account it to graphs.cliques
        sp = tr.open("core.ippv")
        try:
            tr.open("graphs.cliques")
            return orig_ippv(*args, **kwargs)
        finally:
            tr.close(sp)

    def ippv_instances(*args, **kwargs):
        if tr.stack and tr.stack[-1].name == "graphs.cliques":
            tr.close(tr.stack[-1])
        return orig_ippv_instances(*args, **kwargs)

    return [
        (m, "ippv", ippv),
        (m, "ippv_instances", ippv_instances),
        (m, "ippv_local", w("core.ippv", m.ippv_local)),
        (m, "LocalGraph", w("graphs.local.build", m.LocalGraph)),
        (m, "instances_to_local", w("graphs.local.build", m.instances_to_local, _after_collect)),
        (m, "instance_core_numbers", w("graphs.cores", m.instance_core_numbers)),
        (m, "instance_core_numbers_local", w("graphs.cores", m.instance_core_numbers_local)),
        (prune_mod, "instance_core_numbers_local",
         w("graphs.cores", prune_mod.instance_core_numbers_local)),
        (m, "fw_local", w("core.fw", m.fw_local)),
        (m, "fw_spark", w("core.fw", m.fw_spark)),
        (m, "tentative_gd_local", w("core.decompose", m.tentative_gd_local)),
        (m, "tentative_gd_spark", w("core.decompose", m.tentative_gd_spark)),
        (m, "derive_stable_groups", w("core.decompose", m.derive_stable_groups, _after_groups)),
        (m, "prune_local", w("core.prune", m.prune_local, _after_prune_local)),
        (m, "prune_spark", w("core.prune", m.prune_spark, _after_prune_spark)),
        (m, "verify_fast", w("core.verify", m.verify_fast, _after_verify)),
        (m, "verify_basic", w("core.verify", m.verify_basic, _after_verify)),
        (verify_mod, "reduce_candidate",
         w("core.verify.reduce", verify_mod.reduce_candidate, _after_reduce)),
        (m, "is_densest", w("flow.networks.is_densest", m.is_densest)),
        (m, "densest_sub", w("flow.networks.densest_sub", m.densest_sub)),
        (verify_mod, "derive_compact", w("flow.networks.derive_compact", verify_mod.derive_compact)),
        (Dinic, "max_flow", w("flow.dinic.max_flow", Dinic.max_flow, _after_max_flow)),
        (LocalGraph, "instances_within",
         w("graphs.local.instances_within", LocalGraph.instances_within)),
        (LocalGraph, "components", w("graphs.local.components", LocalGraph.components)),
        (LocalGraph, "instance_count",
         w("graphs.local.instance_count", LocalGraph.instance_count)),
    ]


@contextmanager
def patched(tr: Tracer):
    """Install the wrappers for the duration of one traced solve."""
    table = _patch_table(tr)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in table]
    try:
        for owner, attr, repl in table:
            setattr(owner, attr, repl)
        yield
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)


# ------------------------------------------------------------------ metrics
def _time_name(layer: str) -> str:
    return {"graphs.local.build": "graphs.local.build_s",
            "graphs.local.enum": "graphs.local.enum_s"}.get(layer, f"{layer}.time_s")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, jobs: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced solve: name -> (value, unit)."""
    solve_s = tr.total[ROOT]
    out: dict[str, tuple[float, str]] = {"trace.solve_s": (solve_s, "s")}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (tr.calls[layer], "count")
        out[_time_name(layer)] = (tr.total[layer], "s")
        out[f"{layer}.self_s"] = (tr.self_time[layer], "s")
    c = tr.counts
    verified = tr.calls["core.verify"]
    out.update({
        "flow.dinic.max_flow.arcs": (c["flow.dinic.max_flow.arcs"], "count"),
        "flow.networks.densest_sub.maxflows": (c["flow.networks.densest_sub.maxflows"], "count"),
        "core.verify.shortcut_ratio": (_ratio(c["core.verify.shortcuts"], verified), "ratio"),
        "core.verify.accept_ratio": (_ratio(c["core.verify.accepted"], verified), "ratio"),
        "core.verify.discarded": (verified - c["core.verify.accepted"], "count"),
        "core.verify.rejects": (c["core.verify.rejects"], "count"),
        "core.verify.flows": (c["core.verify.flows"], "count"),
        "core.decompose.groups": (c["core.decompose.groups"], "count"),
        "core.prune.pruned_ratio": (
            _ratio(c["core.prune.in"] - c["core.prune.out"], c["core.prune.in"]), "ratio"),
        "graphs.cliques.instances": (c["graphs.cliques.instances"], "count"),
        "unattributed_ratio": (
            _ratio(tr.self_time["core.ippv"] + tr.self_time[ROOT], solve_s), "ratio"),
        "trace.spans": (len(tr.spans), "count"),
        "spark.jobs": (sum(jobs.values()), "count"),
    })
    for layer in SPARK_LAYERS:
        out[f"spark.jobs.{layer}"] = (jobs[layer], "count")
    return out

