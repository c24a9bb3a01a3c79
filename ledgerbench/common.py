"""Helpers shared by ``run.py`` and its child processes.

Nothing here imports the program under test: digests, order statistics,
the calibration loop and the in-memory span recorder are the benchmark's
own, so they read the same on every commit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def use_program_sources() -> None:
    """Import the program from the checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Fixed string hashing, so set and dict iteration orders (and the
    # time they cost) repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


# -- digests -----------------------------------------------------------------

def cover_digest(fds: Iterable[Tuple[Sequence[str], str]]) -> str:
    """Order-free digest of an FD cover given as (lhs names, rhs name)."""
    lines = sorted(",".join(sorted(lhs)) + "->" + rhs for lhs, rhs in fds)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def rows_digest(rows: Iterable[Sequence]) -> str:
    return hashlib.sha256(
        json.dumps([list(row) for row in rows]).encode()
    ).hexdigest()


# -- order statistics --------------------------------------------------------

def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (NumPy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            return {"p": p, "value": percentile(values, p)}
    return None


def summary(values: Sequence[float]) -> Dict[str, object]:
    """Raw samples plus their count, median and tail, for the record."""
    return {"n": len(values), "median": median(values) if values else None,
            "tail": tail(values), "samples": list(values)}


# -- host-speed witness ------------------------------------------------------

#: Iterations of the calibration loop, and its time on a reference host:
#: every rescaled time reads as if one loop had taken exactly that long.
CALIBRATION_LOOP = 150_000
CALIBRATION_REFERENCE_S = 0.010


def calibrate(repeats: int = 1) -> float:
    """Seconds per fixed pure-Python loop (10-18 ms on a 2-CPU VM),
    averaged over *repeats* back-to-back loops."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP * repeats):
        total += i * i % 7
    return (time.perf_counter() - start) / repeats


def calibrate_objects() -> float:
    """Seconds per fixed loop of hashing, allocation, sorting and JSON
    encoding (10-15 ms on a 2-CPU VM): the kinds of work ``repro serve``
    does per request.

    The host's slow phases slow this work more than the arithmetic loop
    of :func:`calibrate`, so served requests are rescaled by this loop.
    """
    start = time.perf_counter()
    rng = random.Random(7)
    table = {(rng.randrange(1 << 20), i): str(i) for i in range(4000)}
    items = sorted(table.items())
    json.dumps(items[:2000])
    return time.perf_counter() - start


def rescale(seconds: float, before: float, after: float) -> float:
    """*seconds* at reference host speed, from the calibration loops run
    just before and just after the sample.

    The host's speed drifts in phases of a few seconds (the loop's time
    moves between 10 and 16 ms), and a sample's time follows it: on a
    2-CPU VM the correlation is about 0.85, and dividing by the bracketing
    loops halves the sample-to-sample spread.
    """
    return seconds * CALIBRATION_REFERENCE_S / ((before + after) / 2.0)


# -- spans -------------------------------------------------------------------

class Spans:
    """In-memory span recorder: name, start, end, parent; counts ride along.

    Spans are kept in a list while the run goes and written out as JSON
    lines by :meth:`write_jsonl` when it ends.
    """

    def __init__(self):
        self.records: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        record: Dict[str, object] = {
            "id": len(self.records), "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None, "counts": counts,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record["counts"]
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_seconds(self, record: Dict[str, object]) -> float:
        """Duration minus the part of it that child spans cover."""
        start, end = record["start"], record["end"]
        children = sorted(
            (child["start"], child["end"]) for child in self.records
            if child["parent"] == record["id"]
        )
        covered, reach = 0.0, start
        for child_start, child_end in children:
            child_start = max(child_start, reach)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        return (end - start) - covered

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
