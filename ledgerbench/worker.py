"""Batch child process: one fresh set-up, or the timed mining loop.

``worker.py setup`` imports the program's entry points, constructs the
miner and prints ``ready``; the parent times spawn-to-ready.

``worker.py mine`` is the process whose peak RSS is ``peak_rss_mib``: it
builds the workload's ``Relation`` from the benchmark's generator, then
alternates the two user routes until the time is up,

- ``mine_csv_s``: ``ingest_csv(path)`` then ``DepMiner.run`` (the CLI and
  ``repro serve`` route), and
- ``mine_relation_s``: ``DepMiner.run`` on the in-memory ``Relation`` (the
  library route, which runs ``encode``),

and writes every sample, the calibration witness, the cover and
Armstrong digests and one Armstrong relation per route for the
reference process to check.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import resource
import time
from pathlib import Path

import gen
from common import (
    calibrate,
    cover_digest,
    rescale,
    rows_digest,
    use_program_sources,
)

#: Fewest samples per route, however long each takes.
MIN_SAMPLES = 5
#: Calibration loops bracketing each sample.
CALIBRATION_REPEATS = 3


def miner_options(depminer_class) -> dict:
    """Production settings: jobs=1, default kernel, real-world Armstrong;
    ``backend="columnar"`` only while the miner still takes the option."""
    options = {"jobs": 1, "build_armstrong": "real-world"}
    if "backend" in inspect.signature(depminer_class).parameters:
        options["backend"] = "columnar"
    return options


def result_cover(result):
    return [(tuple(fd.lhs.names), fd.rhs) for fd in result.fds]


def result_armstrong(result):
    """The Armstrong relation a run built, and which construction."""
    if result.armstrong is not None:
        return "real-world", result.armstrong
    return "classical", result.classical_armstrong


def _setup() -> None:
    use_program_sources()
    from repro.columnar.ingest import ingest_csv  # noqa: F401
    from repro.core.depminer import DepMiner
    from repro.core.relation import Relation  # noqa: F401

    DepMiner(**miner_options(DepMiner))
    print("ready", flush=True)


def _mine(args) -> None:
    use_program_sources()
    from repro.columnar.ingest import ingest_csv
    from repro.core.attributes import Schema
    from repro.core.depminer import DepMiner
    from repro.core.relation import Relation

    # One CPU for the samples and the calibration loops between them, so
    # the loops measure the speed the samples ran at.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = gen.attribute_names(args.workload)
    relation = Relation.from_rows(Schema(names),
                                  gen.base_rows(args.workload, args.seed))
    miner = DepMiner(**miner_options(DepMiner))
    out = Path(args.out)
    # Warm both routes on a small prefix, so the first timed sample does
    # not pay one-time module loading.
    prefix = list(relation.rows())[:50]
    warm_csv = out / "warm.csv"
    warm_csv.write_text(gen.csv_text(names, prefix))
    miner.run(ingest_csv(warm_csv))
    miner.run(Relation.from_rows(Schema(names), prefix))

    routes = {
        "mine_csv_s": lambda: miner.run(ingest_csv(args.csv)),
        "mine_relation_s": lambda: miner.run(relation),
    }
    samples = {name: [] for name in routes}
    rescaled = {name: [] for name in routes}
    digests = {}
    failed = 0
    deadline = time.perf_counter() + args.seconds
    calibration = [calibrate(CALIBRATION_REPEATS)]
    while (time.perf_counter() < deadline
           or min(map(len, samples.values())) < MIN_SAMPLES):
        for name, call in routes.items():
            gc.collect()
            start = time.perf_counter()
            result = call()
            seconds = time.perf_counter() - start
            calibration.append(calibrate(CALIBRATION_REPEATS))
            samples[name].append(seconds)
            rescaled[name].append(
                rescale(seconds, calibration[-2], calibration[-1]))
            construction, armstrong = result_armstrong(result)
            rows = list(armstrong.rows())
            digest = (cover_digest(result_cover(result)), construction,
                      rows_digest(rows))
            if name not in digests:
                digests[name] = digest
                (out / f"armstrong-{name}.json").write_text(json.dumps(
                    {"construction": construction,
                     "rows": [list(row) for row in rows]}
                ))
            elif digest != digests[name]:
                failed += 1
            del result, armstrong, rows
    report = {
        "samples": samples,
        "rescaled": rescaled,
        "calibration_s": calibration,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cover_digests": {name: d[0] for name, d in digests.items()},
        "attempted": sum(map(len, samples.values())),
        "failed": failed,
        "options": miner_options(DepMiner),
    }
    (out / "mine.json").write_text(json.dumps(report))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "mine"))
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--csv")
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.mode == "setup":
        _setup()
    else:
        _mine(args)


if __name__ == "__main__":
    main()
