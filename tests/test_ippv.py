"""IPPV end-to-end exactness: the pipeline's headline guarantees.

The paper claims IPPV is *exact* (Theorem 7). These tests diff the whole
pipeline against the brute-force Definition-2 oracle on randomized tiny
graphs, against the flow-exact reference on medium graphs, and exercise
the top-k guard, the fast/basic verifier equivalence, and the Spark entry
point (Spark enumerates; the driver mirror runs the rest).
"""
import random
from fractions import Fraction

import pytest

from repro import synth_data as sd
from repro.baselines.flow_exact import flow_exact_lhcds
from repro.core.bruteforce import brute_lhcds
from repro.core.ippv import ippv, ippv_local
from repro.graphs import edgelist as el
from repro.graphs.local import LocalGraph, local_from_pandas


def _random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 10)
    p = rng.uniform(0.25, 0.75)
    return LocalGraph(
        n_hint=n,
        edges=[(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p],
    )


def _key(results):
    return sorted(((tuple(sorted(r.vertices)), r.density) for r in results))


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("h", [2, 3, 4])
@pytest.mark.parametrize("fast", [True, False])
def test_ippv_exact_vs_bruteforce(seed, h, fast):
    lg = _random_graph(seed).with_cliques(h)
    ref = sorted(((tuple(sorted(S)), d) for S, d in brute_lhcds(lg) if d > 0))
    got = _key(ippv_local(lg, k=None, fast_verify=fast))
    assert got == ref


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_topk_guard_is_exact(seed, k):
    lg = _random_graph(seed + 100).with_cliques(3)
    full = ippv_local(lg, k=None)
    topk = ippv_local(lg, k=k)
    assert len(topk) == min(k, len(full))
    assert [r.density for r in topk] == [r.density for r in full][: len(topk)]


@pytest.mark.parametrize("name,h", [("HA-tiny", 3), ("GQ-tiny", 3), ("GQ-tiny", 4)])
def test_ippv_vs_flow_exact_on_suite(name, h):
    from repro.experiments import load_local

    lg = load_local(name, h)
    assert _key(ippv_local(lg, k=None)) == _key(flow_exact_lhcds(lg, k=None))


def test_results_are_disjoint_and_sorted():
    from repro.experiments import load_local

    lg = load_local("HA-tiny", 3)
    res = ippv_local(lg, k=None)
    seen = set()
    for r in res:
        assert not (r.vertices & seen)  # Proposition 2
        seen |= r.vertices
    dens = [r.density for r in res]
    assert dens == sorted(dens, reverse=True)


def test_results_match_density_definition():
    from repro.experiments import load_local

    lg = load_local("GQ-tiny", 3)
    for r in ippv_local(lg, k=5):
        assert r.density == Fraction(lg.instance_count(r.vertices), r.size)
        assert lg.is_connected(r.vertices)


def test_planted_communities_recovered():
    pdf = sd.planted_communities_pd(
        n=200, m_background=300, blocks=[(12, 1.0), (10, 1.0)], seed=71
    )
    lg = local_from_pandas(pdf).with_cliques(3)
    res = ippv_local(lg, k=2)
    assert res[0].vertices == frozenset(range(12))
    assert res[1].vertices == frozenset(range(12, 22))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("h", [2, 3])
def test_spark_pipeline_matches_driver(spark, seed, h):
    import pandas as pd

    lg = _random_graph(seed + 200)
    pdf = pd.DataFrame(lg.edges, columns=["src", "dst"])
    edges = el.edges_from_pandas(spark, pdf)
    got = _key(ippv(spark, edges, h=h, k=None, T=4))
    ref = _key(ippv_local(lg.with_cliques(h), k=None, T=4))
    assert got == ref


def test_spark_pipeline_on_tiny_dataset(spark, monkeypatch):
    import repro.core.ippv as ippv_mod
    from repro.experiments import load_local, load_spark

    # bounds, propose and prune run on the driver mirror, never on Spark
    def no_spark(*args, **kwargs):
        raise AssertionError("ippv() ran a Spark propose/prune step")

    for name in (
        "instance_core_numbers", "fw_spark", "tentative_gd_spark", "prune_spark"
    ):
        monkeypatch.setattr(ippv_mod, name, no_spark)
    edges = load_spark(spark, "HA-tiny")
    got = _key(ippv(spark, edges, h=3, k=3, T=5))
    ref = _key(ippv_local(load_local("HA-tiny", 3), k=3, T=5))
    assert got == ref


def test_stats_are_populated():
    from repro.experiments import load_local

    st = {}
    ippv_local(load_local("HA-tiny", 3), k=3, stats=st)
    assert st["t_bounds"] >= 0 and "t_verify" in st and "t_propose" in st


def test_k_zero_and_empty_graph():
    lg = LocalGraph(edges=[(0, 1)], instances=[], p=3)
    assert ippv_local(lg, k=5) == []
    tri = LocalGraph(edges=[(0, 1), (0, 2), (1, 2)]).with_cliques(3)
    assert ippv_local(tri, k=0) == []
    with pytest.raises(ValueError):
        ippv_local(tri, k=-1)
    with pytest.raises(ValueError):
        ippv_local(tri, k=1, T=0)
