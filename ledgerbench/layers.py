"""The traced run: per-layer metrics from the benchmark's own calls.

The CSV route is decomposed into the public function of each layer and
run under the benchmark's span recorder (``common.Spans``): ingest,
grouping, the two agree steps, cmax, the transversal search, fd_output
and the Armstrong construction.  Encode and the kernel's reduction run
as separate calls beside it.  The decomposition is repeated for the
run's time, alternating with an untraced ``ingest_csv`` + ``DepMiner.run``;
the two covers must have the same digest.  Then, once each, with fixed
repetition counts: tracemalloc around the agree steps, an in-process
``IncrementalMiner`` append script, the cover document against a live
``repro serve`` round trip, key discovery, and ``jobs=N`` against
``jobs=1``.

A layer whose public function a later change removes or renames is
reported absent, not failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import gen
from common import ROOT, Spans, cover_digest, median, use_program_sources
from session import Client, Daemon, serve_accepts_backend, served_cover
from worker import miner_options, result_armstrong, result_cover

#: Fewest repetitions of the decomposition, however long each takes.
MIN_REPS = 3
#: Fixed repetition counts of the once-per-run layers.
INCREMENTAL_ROUNDS = 10
COVER_READS = 10
KEYS_REPS = 3
PARALLEL_REPS = 3

#: Every per-layer metric the traced run owes, with its unit.
UNITS = {metric["name"]: metric["unit"] for metric in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def lookup(module: str, name: str) -> Optional[Callable]:
    """A layer's public function, or None once it no longer exists."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


class Run:
    """Accumulates metrics, absences, operation counts and failures."""

    def __init__(self):
        self.metrics: Dict[str, float] = {}
        self.absent: Dict[str, str] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def mark_absent(self, names, reason: str) -> None:
        for name in names:
            self.absent[name] = reason

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _class_counts(ec) -> Dict[str, int]:
    import numpy as np

    stripped, largest = 0, 0
    for ids in ec:
        ids = ids[ids >= 0]
        if ids.shape[0]:
            sizes = np.bincount(ids)
            sizes = sizes[sizes > 0]
            stripped += int(sizes.shape[0])
            largest = max(largest, int(sizes.max()))
    return {"stripped_classes": stripped, "largest_class": largest}


CHAIN = {
    "ingest": ("repro.columnar.ingest", "ingest_csv"),
    "grouping": ("repro.columnar.grouping", "class_matrix"),
    "couples": ("repro.columnar.agree", "candidate_couples"),
    "resolve": ("repro.columnar.agree", "resolve_couples"),
    "cmax": ("repro.columnar.cmax", "maximal_sets_packed"),
    "lhs": ("repro.core.lhs", "left_hand_sides"),
    "fd_output": ("repro.core.lhs", "fd_output"),
    "union": ("repro.core.maximal_sets", "max_set_union"),
    "deficits": ("repro.columnar.armstrong", "existence_deficits"),
    "real_world": ("repro.columnar.armstrong",
                   "real_world_armstrong_columnar"),
    "classical": ("repro.columnar.armstrong",
                  "classical_armstrong_columnar"),
}
CHAIN_METRICS = [
    "ingest.self_s", "ingest.mcells_per_s", "grouping.self_s",
    "grouping.stripped_classes", "grouping.largest_class",
    "agree.couples_s", "agree.resolve_s", "agree.couples",
    "agree.distinct_sets", "agree.useful_ratio", "agree.peak_mib",
    "cmax.self_s", "cmax.edges", "lhs.transversal_s", "lhs.fd_output_s",
    "lhs.fds", "armstrong.self_s", "armstrong.rows",
    "obs.trace_overhead_ratio",
]


def decompose(spans: Spans, f: Dict[str, Callable], csv_path: str):
    """One traced pass of the CSV route, layer by layer."""
    with spans.span("pipeline"):
        with spans.span("ingest") as counts:
            coded = f["ingest"](csv_path)
            counts["cells"] = int(coded.codes.size)
        schema = coded.schema
        num_rows = int(coded.codes.shape[1])
        with spans.span("grouping") as counts:
            ec = f["grouping"](coded.codes)
        counts.update(_class_counts(ec))
        with spans.span("agree.couples") as counts:
            left, right = f["couples"](ec)
            counts["couples"] = int(left.shape[0])
        with spans.span("agree.resolve") as counts:
            agree = f["resolve"](ec, left, right)
            if int(left.shape[0]) < num_rows * (num_rows - 1) // 2:
                agree.add(0)
            counts["distinct_sets"] = len(agree)
        with spans.span("cmax") as counts:
            max_sets, cmax = f["cmax"](agree, schema)
            counts["edges"] = sum(len(edges) for edges in cmax.values())
        with spans.span("lhs.transversal"):
            lhs = f["lhs"](cmax, schema, method="vectorized")
        with spans.span("lhs.fd_output") as counts:
            fds = f["fd_output"](lhs, schema)
            counts["fds"] = len(fds)
        with spans.span("armstrong") as counts:
            union = f["union"](max_sets)
            if f["deficits"](coded, union):
                armstrong = f["classical"](schema, union)
            else:
                armstrong = f["real_world"](coded, union)
            counts["rows"] = len(armstrong)
    return coded, ec, cmax, fds


def _last(spans: Spans, name: str) -> Dict[str, Any]:
    return [r for r in spans.records if r["name"] == name][-1]["counts"]


def _self_median(spans: Spans, name: str) -> float:
    return median([spans.self_seconds(r) for r in spans.records
                   if r["name"] == name])


def measure_chain(run: Run, spans: Spans, depminer, relation, csv_path,
                  seconds: float, work: Path):
    """The decomposition vs the untraced route.

    Returns the last untraced result, its cover digest and the cmax
    families of the decomposition (None when a chain layer is absent).
    """
    f = {key: lookup(*where) for key, where in CHAIN.items()}
    missing = sorted(key for key, fn in f.items() if fn is None)
    miner = depminer(**miner_options(depminer))
    ingest = f["ingest"]
    untraced, results = [], None
    decomposition = None
    deadline = time.perf_counter() + seconds
    reps = 0
    while reps < MIN_REPS or time.perf_counter() < deadline:
        if not missing:
            gc.collect()
            decomposition = decompose(spans, f, csv_path)
        gc.collect()
        start = time.perf_counter()
        results = miner.run(ingest(csv_path) if ingest else relation)
        untraced.append(time.perf_counter() - start)
        reps += 1
    untraced_digest = cover_digest(result_cover(results))
    construction, armstrong = result_armstrong(results)
    (work / "armstrong-untraced.json").write_text(json.dumps(
        {"construction": construction,
         "rows": [list(row) for row in armstrong.rows()]}
    ))
    if missing:
        run.mark_absent(CHAIN_METRICS,
                        "missing " + ", ".join(missing))
        return results, untraced_digest, None
    coded, ec, cmax, fds = decomposition
    digest = cover_digest((fd.lhs.names, fd.rhs) for fd in fds)
    run.check(digest == untraced_digest,
              "traced decomposition cover differs from DepMiner.run")

    ingest_s = _self_median(spans, "ingest")
    run.put("ingest.self_s", ingest_s)
    run.put("ingest.mcells_per_s",
            _last(spans, "ingest")["cells"] / ingest_s / 1e6)
    run.put("grouping.self_s", _self_median(spans, "grouping"))
    grouping = _last(spans, "grouping")
    run.put("grouping.stripped_classes", grouping["stripped_classes"])
    run.put("grouping.largest_class", grouping["largest_class"])
    couples = _last(spans, "agree.couples")["couples"]
    distinct = _last(spans, "agree.resolve")["distinct_sets"]
    run.put("agree.couples_s", _self_median(spans, "agree.couples"))
    run.put("agree.resolve_s", _self_median(spans, "agree.resolve"))
    run.put("agree.couples", couples)
    run.put("agree.distinct_sets", distinct)
    run.put("agree.useful_ratio", distinct / max(couples, 1))
    run.put("cmax.self_s", _self_median(spans, "cmax"))
    run.put("cmax.edges", _last(spans, "cmax")["edges"])
    run.put("lhs.transversal_s", _self_median(spans, "lhs.transversal"))
    run.put("lhs.fd_output_s", _self_median(spans, "lhs.fd_output"))
    run.put("lhs.fds", _last(spans, "lhs.fd_output")["fds"])
    run.put("armstrong.self_s", _self_median(spans, "armstrong"))
    run.put("armstrong.rows", _last(spans, "armstrong")["rows"])
    pipeline = [r["end"] - r["start"] for r in spans.records
                if r["name"] == "pipeline"]
    run.put("obs.trace_overhead_ratio", median(pipeline) / median(untraced))

    gc.collect()
    tracemalloc.start()
    try:
        left, right = f["couples"](ec)
        f["resolve"](ec, left, right)
        del left, right
        run.put("agree.peak_mib", tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    return results, untraced_digest, cmax


def measure_encode(run: Run, spans: Spans, relation, reps: int) -> None:
    encode = lookup("repro.columnar.encode", "encode_relation")
    if encode is None:
        run.mark_absent(["encode.self_s"], "encode_relation missing")
        return
    for _ in range(reps):
        with spans.span("encode"):
            encode(relation)
    run.put("encode.self_s", _self_median(spans, "encode"))


def measure_kernel(run: Run, spans: Spans, cmax, reps: int) -> None:
    names = ["kernel.reduce_s", "kernel.edges_in",
             "kernel.edges_dropped_ratio", "kernel.components"]
    reduce = lookup("repro.hypergraph.kernel", "reduce_hypergraph")
    if reduce is None or cmax is None:
        run.mark_absent(names, "reduce_hypergraph or cmax missing")
        return
    for _ in range(reps):
        with spans.span("kernel") as counts:
            reductions = [reduce(edges) for edges in cmax.values() if edges]
        counts["edges_in"] = sum(len(e) for e in cmax.values())
        counts["edges_dropped"] = sum(r.edges_dropped for r in reductions)
        counts["components"] = sum(len(r.components) for r in reductions)
    counts = _last(spans, "kernel")
    run.put("kernel.reduce_s", _self_median(spans, "kernel"))
    run.put("kernel.edges_in", counts["edges_in"])
    run.put("kernel.edges_dropped_ratio",
            counts["edges_dropped"] / max(counts["edges_in"], 1))
    run.put("kernel.components", counts["components"])


def measure_incremental(run: Run, spans: Spans, depminer, relation,
                        workload: str, seed: int) -> None:
    names = ["incremental.append_ms", "incremental.delta_couples"]
    incremental = lookup("repro.cache.incremental", "IncrementalMiner")
    registry = lookup("repro.obs.metrics", "MetricsRegistry")
    if incremental is None or registry is None:
        run.mark_absent(names, "IncrementalMiner or MetricsRegistry missing")
        return
    metrics = registry()
    options = dict(miner_options(depminer), build_armstrong="none")
    miner = incremental(relation, miner=depminer(metrics=metrics, **options))
    delta = []
    for batch in gen.append_batches(workload, seed, INCREMENTAL_ROUNDS):
        before = metrics.snapshot()["counters"].get(
            "incremental.delta_couples", 0)
        with spans.span("incremental.append"):
            miner.append(batch)
        delta.append(metrics.snapshot()["counters"].get(
            "incremental.delta_couples", 0) - before)
    run.put("incremental.append_ms",
            1e3 * _self_median(spans, "incremental.append"))
    run.put("incremental.delta_couples", median(delta))


def measure_service(run: Run, spans: Spans, result, csv_path: str,
                    work: Path) -> None:
    cover_document = lookup("repro.service.protocol", "cover_document")
    if cover_document is None:
        run.mark_absent(["service.cover_document_ms",
                         "service.http_overhead_ms"],
                        "cover_document missing")
        return
    for _ in range(COVER_READS):
        with spans.span("service.cover_document"):
            json.dumps(cover_document(result))
    document_ms = 1e3 * _self_median(spans, "service.cover_document")
    run.put("service.cover_document_ms", document_ms)

    daemon = Daemon(work, serve_accepts_backend(), own_group=False)
    client = None
    try:
        client = Client(daemon.host, daemon.port)
        status, reply, _ = client.register(Path(csv_path))
        run.check(status == 201, f"register returned {status}")
        route = f"/sessions/{reply['session']['id']}/cover"
        expected = cover_digest(result_cover(result))
        for _ in range(COVER_READS):
            with spans.span("service.cover_round_trip"):
                status, reply, _ = client.call("GET", route)
            run.check(status == 200
                      and cover_digest(served_cover(reply)) == expected,
                      "served cover differs from DepMiner.run")
        run.put("service.http_overhead_ms",
                1e3 * _self_median(spans, "service.cover_round_trip")
                - document_ms)
    finally:
        run.check(daemon.shutdown(client), "daemon shutdown timed out")


def measure_keys(run: Run, spans: Spans, relation) -> None:
    discover_keys = lookup("repro.core.keys_mining", "discover_keys")
    if discover_keys is None:
        run.mark_absent(["keys.self_ms"], "discover_keys missing")
        return
    for _ in range(KEYS_REPS):
        with spans.span("keys"):
            discover_keys(relation)
    run.put("keys.self_ms", 1e3 * _self_median(spans, "keys"))


def measure_parallel(run: Run, spans: Spans, depminer, relation,
                     expected: str) -> None:
    names = ["parallel.speedup", "parallel.pool_build_s"]
    pool_class = lookup("repro.parallel", "PersistentPool")
    if pool_class is None:
        run.mark_absent(names, "PersistentPool missing")
        return
    jobs = max(2, os.cpu_count() or 1)
    for _ in range(PARALLEL_REPS):
        pool = pool_class(jobs)
        try:
            with spans.span("parallel.pool_build", jobs=jobs):
                pool.ensure()
        finally:
            pool.close()
    pool = pool_class(jobs)
    try:
        pool.ensure()
        serial = depminer(**miner_options(depminer))
        fanned = depminer(**dict(miner_options(depminer), jobs=jobs,
                                 pool=pool))
        for _ in range(PARALLEL_REPS):
            for name, miner in (("parallel.jobs1", serial),
                                ("parallel.jobsN", fanned)):
                gc.collect()
                with spans.span(name):
                    result = miner.run(relation)
                run.check(cover_digest(result_cover(result)) == expected,
                          f"{name} cover differs from DepMiner.run")
    finally:
        pool.close()
    run.put("parallel.speedup", _self_median(spans, "parallel.jobs1")
            / _self_median(spans, "parallel.jobsN"))
    run.put("parallel.pool_build_s",
            _self_median(spans, "parallel.pool_build"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--csv", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    use_program_sources()
    from repro.core.attributes import Schema
    from repro.core.depminer import DepMiner
    from repro.core.relation import Relation

    work = Path(args.work)
    relation = Relation.from_rows(Schema(gen.attribute_names(args.workload)),
                                  gen.base_rows(args.workload, args.seed))
    run = Run()
    spans = Spans()
    result, digest, cmax = measure_chain(run, spans, DepMiner, relation,
                                         args.csv, args.seconds, work)
    reps = max(MIN_REPS, sum(1 for r in spans.records
                             if r["name"] == "pipeline"))
    measure_encode(run, spans, relation, reps)
    measure_kernel(run, spans, cmax, reps)
    measure_incremental(run, spans, DepMiner, relation, args.workload,
                        args.seed)
    measure_service(run, spans, result, args.csv, work)
    measure_keys(run, spans, relation)
    measure_parallel(run, spans, DepMiner, relation, digest)
    for name in sorted(set(UNITS) - set(run.metrics) - set(run.absent)):
        run.check(False, f"per-layer metric {name} neither measured "
                         f"nor marked absent")
    spans.write_jsonl(Path(args.spans))
    (work / "layers.json").write_text(json.dumps({
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in run.metrics.items()},
        "absent": run.absent,
        "cover_digest": digest,
        "attempted": run.attempted,
        "failures": run.failures,
        "spans": len(spans.records),
    }))


if __name__ == "__main__":
    main()
