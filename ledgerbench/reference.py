"""Independent reference for the correctness checks, in its own process.

Recomputes the minimal cover with the paper's own algorithms, called
directly: Algorithm 2 agree sets over stripped partitions, the maximal
sets and their complements, the levelwise transversal search (not the
kernel) and ``fd_output``.  It then checks every Armstrong relation the
measured process saved with ``repro.core.armstrong.is_armstrong_for``
against the reference maximal sets, and that a real-world relation only
uses values of the input.

It runs after the timed part and in its own process, because its peak
memory is higher than the mining's and ``ru_maxrss`` is a high-water mark.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import gen
from common import cover_digest, use_program_sources


def reference(names, rows):
    use_program_sources()
    from repro.core.agree_sets import agree_sets_from_couples
    from repro.core.attributes import Schema
    from repro.core.lhs import fd_output
    from repro.core.maximal_sets import (
        complement_maximal_sets,
        max_set_union,
        maximal_sets,
    )
    from repro.core.relation import Relation
    from repro.hypergraph.transversals import minimal_transversals_levelwise
    from repro.partitions.database import StrippedPartitionDatabase

    schema = Schema(names)
    relation = Relation.from_rows(schema, rows)
    agree = agree_sets_from_couples(
        StrippedPartitionDatabase.from_relation(relation)
    )
    max_sets = maximal_sets(agree, schema)
    cmax = complement_maximal_sets(max_sets, schema)
    lhs = {attribute: minimal_transversals_levelwise(edges, len(schema))
           for attribute, edges in cmax.items()}
    fds = fd_output(lhs, schema)
    digest = cover_digest((fd.lhs.names, fd.rhs) for fd in fds)
    return relation, digest, max_set_union(max_sets)


def check_armstrong(relation, max_union, document) -> bool:
    from repro.core.armstrong import is_armstrong_for
    from repro.core.relation import Relation

    candidate = Relation.from_rows(relation.schema,
                                   [tuple(row) for row in document["rows"]])
    if not is_armstrong_for(candidate, max_union):
        return False
    if document["construction"] == "real-world":
        for attribute in range(len(relation.schema)):
            domain = set(relation.column(attribute))
            if not set(candidate.column(attribute)) <= domain:
                return False
    return True


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--table", choices=gen.TABLES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--appended-rounds", type=int, default=0,
                        help="also include this many appended batches")
    parser.add_argument("--dir", required=True,
                        help="directory of armstrong-*.json files to check; "
                             "reference.json is written here")
    args = parser.parse_args()
    rows = gen.base_rows(args.table, args.seed)
    for batch in gen.append_batches(args.table, args.seed,
                                    args.appended_rounds):
        rows.extend(batch)
    relation, digest, max_union = reference(
        gen.attribute_names(args.table), rows
    )
    directory = Path(args.dir)
    armstrong = {
        path.stem: check_armstrong(relation, max_union,
                                   json.loads(path.read_text()))
        for path in sorted(directory.glob("armstrong-*.json"))
    }
    (directory / "reference.json").write_text(json.dumps(
        {"cover_digest": digest, "armstrong_ok": armstrong}
    ))


if __name__ == "__main__":
    main()
