#!/usr/bin/env python
"""Smoke of the columnar agree-set plans (``make plan-smoke``).

Usage::

    python scripts/check_plan.py [--rows N]

Mines the couple-wall shape — 5 attributes x N rows (default 16 000)
with one constant column, one binary column, two near-unique columns
and a key — with ``DepMiner(backend="columnar")`` and asserts:

- the ``agree_sets`` span reports Plan 2 (sample-and-repair);
- its cover equals the NumPy-free reference,
  :func:`repro.core.sampling.discover_with_sampling`;
- the run takes < 5 s and the process's ``ru_maxrss`` stays < 150 MiB
  (measured before the reference runs; Plan 1 would enumerate ~N²
  couples, minutes and gigabytes at the default N);

then checks that the ordinary 30 x N section 5.2 shape (c = 0.2) stays
on Plan 1.  Exits non-zero with one line per problem.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

try:
    from repro.core.depminer import DepMiner
except ImportError:  # running from a checkout without installation
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.core.depminer import DepMiner

from repro.core.sampling import discover_with_sampling
from repro.datagen.synthetic import generate_relation, large_class_relation
from repro.obs import Tracer

MAX_SECONDS = 5.0
MAX_RSS_MIB = 150.0


def plan_of(tracer: Tracer) -> dict:
    (span,) = tracer.find("agree_sets")
    return span.attrs


def cover(fds) -> list:
    return sorted((fd.lhs.mask, fd.rhs_index) for fd in fds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rows", type=int, default=16000)
    args = parser.parse_args()
    problems = []

    relation = large_class_relation(args.rows)
    tracer = Tracer()
    start = time.perf_counter()
    result = DepMiner(backend="columnar", tracer=tracer).run(relation)
    seconds = time.perf_counter() - start
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attrs = plan_of(tracer)
    print(f"large-class 5 x {args.rows}: plan {attrs.get('plan')} "
          f"({attrs.get('plan_reason')}), {seconds:.2f} s, "
          f"ru_maxrss {rss_mib:.0f} MiB, {len(result.fds)} FDs, "
          f"sample {result.stats.get('plan_sample_rows')} rows in "
          f"{result.stats.get('plan_rounds')} rounds")
    if attrs.get("plan") != 2:
        problems.append(f"large-class shape ran plan {attrs.get('plan')}, "
                        f"not 2")
    if seconds >= MAX_SECONDS:
        problems.append(f"large-class run took {seconds:.2f} s "
                        f"(limit {MAX_SECONDS} s)")
    if rss_mib >= MAX_RSS_MIB:
        problems.append(f"ru_maxrss {rss_mib:.0f} MiB "
                        f"(limit {MAX_RSS_MIB:.0f} MiB)")
    reference = discover_with_sampling(relation)
    if cover(result.fds) != cover(reference.fds):
        problems.append("plan-2 cover differs from discover_with_sampling")

    ordinary = generate_relation(30, args.rows, correlation=0.2, seed=0)
    tracer = Tracer()
    DepMiner(backend="columnar", build_armstrong="none",
             tracer=tracer).run(ordinary)
    attrs = plan_of(tracer)
    print(f"section 5.2 30 x {args.rows}: plan {attrs.get('plan')} "
          f"({attrs.get('plan_reason')})")
    if attrs.get("plan") != 1:
        problems.append(f"section 5.2 shape ran plan {attrs.get('plan')}, "
                        f"not 1")

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("plan smoke OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
