"""Seeded input generators owned by the benchmark.

The program under test never generates its own inputs here: it sees only
the CSV file, the ``Relation`` rows and the appended rows made below, so a
change to the program cannot change what it is measured on.  The same
``(table, seed)`` gives byte-identical CSV text and identical rows.

Every column draws from its own ``random.Random`` stream, seeded from the
table name, the seed and the column index, so tables do not share
streams and adding a column would not reshuffle the others.

The generator is the paper's section 5.2 one: a column with "rate of
identical values" ``c`` draws uniformly from ``round((1 - c) * |r|)``
distinct values.
"""

from __future__ import annotations

import csv
import io
import random
import zlib
from typing import Callable, Dict, List, Tuple

Rows = List[tuple]

#: Shape of every table (attributes, base rows, c), and the session's
#: append script: rounds of appended rows.
ROWS_SHAPE = (30, 16000, 0.2)
LARGE_CLASS_ROWS = 2000
SESSION_SHAPE = (12, 2000, 0.7)
SESSION_ROUNDS = 100
APPEND_ROWS = 10


def _stream(table: str, seed: int, column: int) -> random.Random:
    return random.Random(zlib.crc32(f"{table}/{seed}/{column}".encode()))


def _token(value: int) -> str:
    """A short string token that no CSV reader takes for a number."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = ""
    value += 1
    while value:
        value, digit = divmod(value - 1, 26)
        out = letters[digit] + out
    return "t" + out


def _section52_column(rng: random.Random, rows: int, correlation: float,
                      domain_rows: int, as_token: bool) -> list:
    domain = max(1, round((1.0 - correlation) * domain_rows))
    values = [rng.randrange(domain) for _ in range(rows)]
    return [_token(v) for v in values] if as_token else values


def _rows_columns(seed: int, num_rows: int) -> List[list]:
    width, base, correlation = ROWS_SHAPE
    # Every third column holds short string tokens, so ingest runs both
    # its integer fast path and its generic factorization.
    return [
        _section52_column(_stream("rows", seed, a), num_rows, correlation,
                          base, as_token=(a % 3 == 2))
        for a in range(width)
    ]


def _key_column(rng: random.Random, num_rows: int, base: int) -> list:
    """A shuffled key over the base rows; appended rows get fresh keys."""
    order = list(range(base))
    rng.shuffle(order)
    return (order + list(range(base, num_rows)))[:num_rows]


def _large_class_columns(seed: int, num_rows: int) -> List[list]:
    # One constant column (a single class holding every row), one binary
    # column, two near-unique columns and a key: the shape whose couple
    # count is quadratic in the rows while its agree sets are few.
    binary = _stream("large_class", seed, 1)
    near_a = _stream("large_class", seed, 2)
    near_b = _stream("large_class", seed, 3)
    domain = 20 * LARGE_CLASS_ROWS
    return [
        ["const"] * num_rows,
        [binary.randrange(2) for _ in range(num_rows)],
        [near_a.randrange(domain) for _ in range(num_rows)],
        [_token(near_b.randrange(domain)) for _ in range(num_rows)],
        _key_column(_stream("large_class", seed, 4), num_rows,
                    LARGE_CLASS_ROWS),
    ]


def _session_columns(seed: int, num_rows: int) -> List[list]:
    width, base, correlation = SESSION_SHAPE
    return [
        _section52_column(_stream("session", seed, a), num_rows,
                          correlation, base, as_token=(a % 4 == 3))
        for a in range(width)
    ]


_GENERATORS: Dict[str, Tuple[Callable[[int, int], List[list]], int, int]] = {
    # name -> (columns(seed, rows), attributes, base rows)
    "rows": (_rows_columns, ROWS_SHAPE[0], ROWS_SHAPE[1]),
    "large_class": (_large_class_columns, 5, LARGE_CLASS_ROWS),
    "session": (_session_columns, SESSION_SHAPE[0], SESSION_SHAPE[1]),
}

#: Every generated table; a workload names the table it mines, and every
#: run also serves the session table.
TABLES = tuple(_GENERATORS)
WORKLOADS = ("rows", "large_class")
SESSION_TABLE = "session"


def attribute_names(table: str) -> List[str]:
    return [f"a{i:02d}" for i in range(_GENERATORS[table][1])]


def base_rows(table: str, seed: int) -> Rows:
    """A table's base relation (for the session, its registered rows)."""
    make, _, base = _GENERATORS[table]
    return list(zip(*make(seed, base)))


def append_batches(table: str, seed: int, rounds: int) -> List[Rows]:
    """*rounds* batches of appended rows that continue the base relation.

    Every generator is prefix-stable (its first ``base`` rows do not
    depend on how many rows follow), and column domains are sized by the
    base relation, so appended rows keep landing in existing classes and
    the delta-couple path has work to do.
    """
    make, _, base = _GENERATORS[table]
    total = base + rounds * APPEND_ROWS
    rest = list(zip(*make(seed, total)))[base:]
    return [rest[i:i + APPEND_ROWS]
            for i in range(0, len(rest), APPEND_ROWS)]


def csv_text(names: List[str], rows: Rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    writer.writerows(rows)
    return out.getvalue()
