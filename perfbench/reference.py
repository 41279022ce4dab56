"""Result digests, pinned oracle references, and the reference mode.

A reference holds every LhCDS of a workload's base graph, computed once by
the independent flow-exact oracle (``repro.baselines.flow_exact_lhcds``
with ``k=None``), plus the base graph's fingerprint and the digest of the
exact top-k.

Reference mode computes and writes one::

    python3 perfbench/reference.py --workload gq-h3-k20                 # pinned graph seed
    python3 perfbench/reference.py --workload gq-h3-k20 --graph-seed 5  # another graph

and ``run.py --graph-seed 5`` then benchmarks that graph against it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

Entry = tuple[tuple[int, ...], Fraction]


def _frac(d: Fraction) -> str:
    return f"{d.numerator}/{d.denominator}"


def _sorted(entries: list[Entry]) -> list[Entry]:
    return sorted(entries, key=lambda e: (-e[1], e[0]))


def digest(entries: list[Entry]) -> str:
    """Hash of the sorted ``(sorted vertices, density)`` list of a top-k.

    Exact top-k with ties at the k-th density may return any of the tied
    LhCDSes, so entries at the lowest density returned are hashed as their
    density and count only (``check`` tests each of them against the
    oracle). Every exact answer for a graph thus has one digest.
    """
    entries = _sorted(entries)
    canon: list = []
    if entries:
        kth = entries[-1][1]
        canon = [[list(v), _frac(d)] for v, d in entries if d > kth]
        canon.append(["tied", _frac(kth), sum(1 for _, d in entries if d == kth)])
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()[:16]


def to_entries(results, base_of) -> list[Entry]:
    """LhCDS objects -> entries in the base graph's vertex labels."""
    return [
        (tuple(sorted(int(base_of[v]) for v in r.vertices)), Fraction(r.density))
        for r in results
    ]


def check(entries: list[Entry], ref: dict) -> list[str]:
    """Why ``entries`` is not an exact top-k of the reference graph ([] if it is)."""
    k = ref["k"]
    known = {(tuple(v), Fraction(d)) for v, d in ref["lhcds"]}
    want = [d for _, d in _sorted(list(known))[:k]]
    errors = []
    if len(set(entries)) != len(entries):
        errors.append("duplicate LhCDS in the result")
    got = [d for _, d in _sorted(entries)]
    if got != want:
        errors.append(f"densities {[_frac(d) for d in got]} != {[_frac(d) for d in want]}")
    bad = [e for e in entries if e not in known]
    if bad:
        errors.append(f"{len(bad)} returned sets are not LhCDSes, e.g. {bad[0]}")
    if digest(entries) != ref["digest"]:
        errors.append(f"digest {digest(entries)} != pinned {ref['digest']}")
    return errors


def path(workload: str, graph_seed: int, default_seed: int) -> Path:
    suffix = "" if graph_seed == default_seed else f"-g{graph_seed}"
    return HERE / "references" / f"{workload}{suffix}.json"


def load(wl, graph_seed: int) -> dict:
    p = path(wl.name, graph_seed, wl.graph_seed)
    if not p.is_file():
        raise SystemExit(
            f"no reference {p.name}; compute it with: python3 perfbench/reference.py "
            f"--workload {wl.name} --graph-seed {graph_seed}"
        )
    return json.loads(p.read_text())


def fingerprint(edges_pdf, h: int) -> dict:
    """n, m, |Psi_h| and the edge-list hash of a canonical edge frame."""
    from repro.graphs.local import local_from_pandas
    from workloads import edges_sha256

    lg = local_from_pandas(edges_pdf).with_cliques(h)
    return {"n": lg.n, "m": lg.m, "instances": len(lg.instances),
            "edges_sha256": edges_sha256(edges_pdf)}


def build(wl, graph_seed: int) -> dict:
    """Run the oracle on the base graph and return the reference record."""
    from repro.baselines.flow_exact import flow_exact_lhcds
    from repro.graphs.local import local_from_pandas

    base = wl.graph(graph_seed)
    lg = local_from_pandas(base).with_cliques(wl.h)
    t0 = time.perf_counter()
    every = flow_exact_lhcds(lg, k=None)
    seconds = time.perf_counter() - t0
    entries = _sorted([(tuple(sorted(r.vertices)), r.density) for r in every])
    return {
        "workload": wl.name,
        "graph_seed": graph_seed,
        "h": wl.h,
        "k": wl.k,
        "input": fingerprint(base, wl.h),
        "oracle": "repro.baselines.flow_exact.flow_exact_lhcds(k=None)",
        "oracle_seconds": round(seconds, 1),
        "digest": digest(entries[: wl.k]),
        "lhcds": [[list(v), _frac(d)] for v, d in entries],
    }


def dumps(ref: dict) -> str:
    """JSON text of a reference, one LhCDS per line."""
    head = json.dumps({k: v for k, v in ref.items() if k != "lhcds"}, indent=1)
    rows = ",\n".join("  " + json.dumps(e) for e in ref["lhcds"])
    return f'{head[:-2]},\n "lhcds": [\n{rows}\n ]\n}}\n'


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--graph-seed", type=int, default=None)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    seed = wl.graph_seed if args.graph_seed is None else args.graph_seed
    ref = build(wl, seed)
    p = path(wl.name, seed, wl.graph_seed)
    p.parent.mkdir(exist_ok=True)
    p.write_text(dumps(ref))
    print(f"{p.name}: {len(ref['lhcds'])} LhCDSes, digest {ref['digest']}, "
          f"oracle {ref['oracle_seconds']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
