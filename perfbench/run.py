"""perfbench: the IPPV benchmark.

    python3 perfbench/run.py --workload gq-mid-h3-k20 --seed 3 --seconds 25 --trace 0

Runs one workload (see ``workloads.py``) in this fresh process as a closed
loop: one client, one solve at a time, solving back to back until
``--seconds`` have passed. Each solve goes from the edges in memory to the
verified top-k list and is checked against the workload's oracle
reference; a solve that raises or returns a wrong top-k counts as failed.

``--trace 0`` reports the end-to-end metrics:

- ``solve_per_cal``: the median, over the run's untraced solves, of each
  solve's wall time divided by the time of a fixed pure-Python calibration
  kernel (``calibrate``), the faster of its runs right before and right
  after the solve. Other tenants of a shared host change its pure-Python
  speed by up to 1.7x within seconds; the kernel slows with the solve, so
  the quotient stays put. The kernel is the benchmark's own code, so only
  the program's speed moves it.
  The raw median wall time (``solve median``) is printed with the count;
- ``setup_s``: process start to the first timed solve (imports, Spark
  session, input generation, warm-up). Input generation is repeated three
  times and its median counted; the rest happens once per process;
- ``peak_rss_mb``: peak RSS of this Python process. The Spark JVM is a
  separate process and is not included.

``--trace 1`` wraps every layer (``tracing.py``) and reports per-layer
calls, time, self time and counts from traced solves, alternated with
untraced solves so that ``trace.overhead_s`` is their difference.

``--workload smoke`` runs the whole harness on a tiny graph in seconds.
The last line printed is one JSON object; the lines before it describe
the environment, the input and every metric with its unit. Runtime files
(Spark scratch, the span dump) go to ``.bench_build/perfbench``.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
NPROC = len(os.sched_getaffinity(0))
SPARK_THREADS = min(4, NPROC)
PREPARE_REPEATS = 3
# A calibration runs the kernel for at least CAL_SECONDS and CAL_SHARE of the
# solve before it; its fastest run counts. The host's speed flips within
# seconds, and a long solve averages over many flips, so it is compared with
# the fastest speed seen over a longer stretch.
CAL_SECONDS = 1.0
CAL_SHARE = 0.15


def start_spark():
    """A quiet local session owned by the benchmark."""
    jvm_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={WORK / 'tmp'}"
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_opts  # spark-submit's launcher JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{SPARK_THREADS}]",
        "--driver-memory 1g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "--conf " + shlex.quote(f"spark.local.dir={WORK / 'spark'}"),
        "--driver-java-options " + shlex.quote(
            f"{jvm_opts} -Dlog4j2.configurationFile={HERE / 'log4j2.properties'}"
        ),
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SPARK_THREADS))
        .config("spark.default.parallelism", str(SPARK_THREADS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .config("spark.ui.retainedJobs", 100000)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway server exits on stdin EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _run(cmd: list[str], **kwargs) -> subprocess.CompletedProcess | None:
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=60, **kwargs)
    except (OSError, subprocess.TimeoutExpired):
        return None


def environment(spark) -> dict:
    git = _run(["git", "rev-parse", "HEAD"], cwd=ROOT,
               env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    if spark is not None:
        java = spark.sparkContext._jvm.System.getProperty("java.version")
    else:
        out = _run(["java", "-XX:-UsePerfData", "-version"])
        first = (out.stderr.splitlines() or ["unknown"])[0] if out else "unknown"
        java = first.split('"')[1] if first.count('"') >= 2 else first  # openjdk version "17.0.20"
    import pyspark

    return {
        "commit": git.stdout.strip() if git and git.returncode == 0 else "unknown (no git checkout)",
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "java": java,
        "nproc": NPROC,
        "spark_master": f"local[{SPARK_THREADS}]" if spark is not None else "none",
    }


def tail(times: list[float]) -> str:
    """The highest of p99/p90 that has at least ten samples beyond it."""
    for p in (99, 90):
        if len(times) * (100 - p) / 100 >= 10:
            return f"p{p} = {statistics.quantiles(times, n=100)[p - 1]:.6g} s"
    return "no tail percentile: fewer than 10 samples beyond p90"


_rng = random.Random(7)
CAL_GRAPH = [[_rng.randrange(2000) for _ in range(6)] for _ in range(2000)]


def calibrate(seconds: float) -> float:
    """Fastest run of a fixed BFS kernel (dict and list work like a solve's)
    over ``seconds``.

    One run is a breadth-first search from every 50th vertex of
    ``CAL_GRAPH``, a seeded random digraph (2,000 vertices, out-degree 6):
    0.03-0.06 s on a shared 4-vCPU Xeon VM, whose speed flips between the
    two within seconds.
    """
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        for s in range(0, len(CAL_GRAPH), 50):
            dist = {s: 0}
            queue = [s]
            for u in queue:
                for w in CAL_GRAPH[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
        times.append(time.perf_counter() - t0)
    return min(times)


class Bench:
    """One run of one workload: inputs, checked solves, and their records."""

    def __init__(self, wl, ref, seed: int, graph_seed: int, spark) -> None:
        self.wl, self.ref, self.seed, self.graph_seed, self.spark = wl, ref, seed, graph_seed, spark
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # harness-level inconsistencies
        self.digests: set[str] = set()

    def prepare(self) -> None:
        from workloads import make_inputs

        self.inputs = make_inputs(self.wl, self.seed, self.graph_seed)
        pdf = self.inputs.edges
        if self.spark is None:
            self.payload = list(zip(pdf["src"].tolist(), pdf["dst"].tolist()))
        else:
            from repro.graphs.edgelist import edges_from_pandas

            old = getattr(self, "payload", None)
            self.payload = edges_from_pandas(self.spark, pdf).cache()
            self.payload.count()
            if old is not None:
                old.unpersist()

    def solve(self, span):
        import repro.core.ippv as ippv_mod
        from repro.graphs.local import LocalGraph

        if self.spark is not None:
            return ippv_mod.ippv(self.spark, self.payload, h=self.wl.h, k=self.wl.k)
        with span("graphs.local.build"):
            lg = LocalGraph(edges=self.payload)
        with span("graphs.local.enum"):
            lg = lg.with_cliques(self.wl.h)
        return ippv_mod.ippv_local(lg, k=self.wl.k)

    def checked(self, run) -> float | None:
        """Time ``run()`` (a solve); check its result. None if it failed."""
        import reference

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = run()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        dt = time.perf_counter() - t0
        entries = reference.to_entries(res, self.inputs.base_of)
        errors = reference.check(entries, self.ref)
        self.digests.add(reference.digest(entries))
        if errors:
            print(f"wrong result: {'; '.join(errors)}", file=sys.stderr)
            self.failed += 1
            return None
        return dt

    def untraced(self) -> float | None:
        return self.checked(lambda: self.solve(lambda name: nullcontext()))

    def traced(self, i: int):
        from tracing import ROOT as ROOT_SPAN, Tracer, layer_metrics, patched

        sc = None if self.spark is None else self.spark.sparkContext
        tr = Tracer(f"{self.wl.name}/{self.seed}/{i}", sc)

        def run():
            with patched(tr):
                with tr.span(ROOT_SPAN):
                    return self.solve(tr.span)

        if self.checked(run) is None:
            return None, tr
        covered = sum(tr.self_time.values())
        if abs(covered - tr.total[ROOT_SPAN]) > 1e-6:
            self.problems.append(f"self times sum to {covered}, solve took {tr.total[ROOT_SPAN]}")
        return layer_metrics(tr, tr.spark_jobs()), tr


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, dict]:
    """The timed loop. Returns (metrics, extra report fields)."""
    from tracing import TIME_RATIOS

    times: list[float] = []
    cals = [calibrate(CAL_SECONDS)]  # cals[j], cals[j + 1] bracket times[j]
    layer_runs: list[dict] = []
    spans: list[dict] = []
    t0 = time.perf_counter()
    i = 0
    # with --trace 1 the order is traced, untraced, traced, ... so that a
    # warming JVM biases neither side
    while i < (3 if trace else 1) or time.perf_counter() - t0 < seconds:
        if trace and i % 3 != 1:
            m, tr = bench.traced(i)
            if m is not None:
                layer_runs.append(m)
                spans = tr.span_records()
        else:
            dt = bench.untraced()
            if dt is not None:
                times.append(dt)
                cals.append(calibrate(max(CAL_SECONDS, CAL_SHARE * dt)))
        i += 1
    # interference only ever slows the kernel, so the faster bracket counts
    per_cal = [t / min(a, b) for t, a, b in zip(times, cals, cals[1:])]
    extra = {"solves": len(times), "solve_times_s": times, "calibration_s": cals,
             "solve_per_cal": per_cal}
    if not trace:
        return {"solve_per_cal": (statistics.median(per_cal) if per_cal else 0.0, "x")}, extra
    metrics: dict = {}
    for name, (v0, unit) in layer_runs[0].items() if layer_runs else ():
        vals = [m[name][0] for m in layer_runs]
        if unit == "s" or name in TIME_RATIOS:
            metrics[name] = (statistics.median(vals), unit)
            continue
        if len(set(vals)) > 1:
            bench.problems.append(f"count {name} differs between traced solves: {vals}")
        metrics[name] = (v0, unit)
    if layer_runs and times:
        metrics["trace.overhead_s"] = (metrics["trace.solve_s"][0] - statistics.median(times), "s")
    extra.update(traced_solves=len(layer_runs), spans=spans)
    return metrics, extra


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="IPPV benchmark (see module docstring)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0, help="vertex relabelling seed")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--graph-seed", type=int, default=None,
                    help="generator seed; other than the pinned one needs reference.py first")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    tempfile.tempdir = None

    import reference
    from workloads import WORKLOADS, edges_sha256

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    graph_seed = wl.graph_seed if args.graph_seed is None else args.graph_seed
    ref = reference.load(wl, graph_seed)
    import tracing  # noqa: F401  (imports the program's modules before timing)

    spark = start_spark() if wl.spark else None
    try:
        startup_s = time.perf_counter() - T_START
        bench = Bench(wl, ref, args.seed, graph_seed, spark)
        prep = []
        for _ in range(PREPARE_REPEATS):
            t0 = time.perf_counter()
            bench.prepare()
            prep.append(time.perf_counter() - t0)
        if edges_sha256(bench.inputs.base) != ref["input"]["edges_sha256"]:
            print("perfbench: the generated graph differs from the reference's; "
                  "the input changed, recompute the reference with reference.py",
                  file=sys.stderr)
            return 3
        warm_s = 0.0
        if spark is not None:  # JIT and query-plan caches of the JVM
            t0 = time.perf_counter()
            bench.untraced()
            warm_s = time.perf_counter() - t0
        setup_s = startup_s + statistics.median(prep) + warm_s

        metrics, extra = measure(bench, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        fp = reference.fingerprint(bench.inputs.edges, wl.h)
        env = environment(spark)
    finally:
        if spark is not None:
            stop_spark(spark)

    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    base_fp = ref["input"]
    if any(fp[key] != base_fp[key] for key in ("n", "m", "instances")):
        bench.problems.append(f"relabelled input {fp} does not match the reference {base_fp}")
    correct = bench.failed == 0 and not bench.problems
    for p in bench.problems:
        print(f"perfbench: {p}", file=sys.stderr)

    report = {
        "workload": wl.name, "seed": args.seed, "graph_seed": graph_seed,
        "trace": args.trace, "seconds": args.seconds, "env": env,
        "input": {**fp, "base_edges_sha256": base_fp["edges_sha256"]},
        "digests": sorted(bench.digests), "pinned_digest": ref["digest"],
        "attempted": bench.attempted, "failed": bench.failed,
        "setup": {"startup_s": startup_s, "prepare_s": prep, "warmup_s": warm_s},
        **extra,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"{wl.name}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"perfbench {wl.name} seed={args.seed} graph_seed={graph_seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"input n={fp['n']} m={fp['m']} psi{wl.h}={fp['instances']} "
          f"edges_sha256={fp['edges_sha256']} base_edges_sha256={base_fp['edges_sha256']}")
    print(f"result digests={','.join(sorted(bench.digests))} pinned={ref['digest']}")
    print(f"fail_ratio = {bench.failed}/{bench.attempted} (solves that raised or "
          f"returned a wrong top-k, warm-up included)")
    traced = f" + {extra['traced_solves']} traced" if args.trace else ""
    times = extra["solve_times_s"]
    median = (f"solve median = {statistics.median(times):.6g} s, calibration median = "
              f"{statistics.median(extra['calibration_s']):.6g} s; ") if times else ""
    print(f"solves = {extra['solves']} untraced{traced}; closed loop, 1 client; "
          f"{median}{tail(times)}")
    for name, (value, unit) in metrics.items():
        note = " (driver Python process; the Spark JVM is excluded)" if name == "peak_rss_mb" else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"details: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
