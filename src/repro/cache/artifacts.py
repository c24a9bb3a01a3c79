"""Pack/unpack pipeline artefacts to codec-representable payloads.

The store (:mod:`repro.cache.store`) only traffics in plain containers
of ints and strings; these helpers translate the pipeline's object
types — :class:`~repro.partitions.database.StrippedPartitionDatabase`,
``ag(r)`` mask sets, the per-attribute cmax/lhs families and the FD
cover — into that shape and back.

Unpackers always build *fresh* containers (and re-validate through the
normal constructors), so artefacts coming out of the cache are never
aliased with the store's copy: mutating a returned result cannot poison
later hits.

Payload schemas (informal; ``docs/caching.md`` documents the on-disk
framing around them):

- ``partitions``  ``{"names": (...), "rows": n, "classes": [[class…]…]}``
  — one list of row-index classes per attribute, in schema order;
- ``agree``       ``{"agree": {mask…}, "stats": {...}}``;
- ``cover``       ``{"agree": {mask…}, "max": {attr: [mask…]},
  "cmax": …, "lhs": …, "fds": [(lhs_mask, rhs)…], "stats": {...}}``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.core.attributes import AttributeSet, Schema
from repro.errors import CacheCodecError
from repro.fd.fd import FD
from repro.partitions.database import StrippedPartitionDatabase
from repro.partitions.partition import StrippedPartition

__all__ = [
    "pack_partitions",
    "unpack_partitions",
    "pack_agree",
    "unpack_agree",
    "pack_cover",
    "unpack_cover",
]


def pack_partitions(spdb: StrippedPartitionDatabase) -> Dict[str, Any]:
    """``r̂`` as a plain payload (schema names, row count, class lists)."""
    return {
        "names": tuple(spdb.schema.names),
        "rows": spdb.num_rows,
        "classes": [
            [list(cls) for cls in partition] for _attr, partition in spdb
        ],
    }


def unpack_partitions(payload: Dict[str, Any]) -> StrippedPartitionDatabase:
    """Rebuild the stripped partition database from a payload.

    Goes through the normal constructors, so structurally invalid
    payloads (singleton classes, out-of-range rows) are rejected as
    :class:`CacheCodecError` rather than corrupting the pipeline.
    """
    try:
        schema = Schema(payload["names"])
        num_rows = payload["rows"]
        partitions = {
            index: StrippedPartition(classes, num_rows)
            for index, classes in enumerate(payload["classes"])
        }
        return StrippedPartitionDatabase(schema, partitions, num_rows)
    except CacheCodecError:
        raise
    except Exception as error:
        raise CacheCodecError(
            f"invalid partitions payload: {error}"
        ) from error


def pack_agree(agree: Set[int], stats: Dict[str, int]) -> Dict[str, Any]:
    """``ag(r)`` plus the enumeration counters it was computed with."""
    return {"agree": set(agree), "stats": _plain_stats(stats)}


def unpack_agree(payload: Dict[str, Any]) -> Tuple[Set[int], Dict[str, int]]:
    try:
        return set(payload["agree"]), dict(payload["stats"])
    except Exception as error:
        raise CacheCodecError(f"invalid agree payload: {error}") from error


def pack_cover(agree: Set[int],
               max_sets: Dict[int, List[int]],
               cmax_sets: Dict[int, List[int]],
               lhs_sets: Dict[int, List[int]],
               fds: List[FD],
               stats: Dict[str, int]) -> Dict[str, Any]:
    """The full derivation bundle behind one mined FD cover."""
    return {
        "agree": set(agree),
        "max": {attr: list(masks) for attr, masks in max_sets.items()},
        "cmax": {attr: list(masks) for attr, masks in cmax_sets.items()},
        "lhs": {attr: list(masks) for attr, masks in lhs_sets.items()},
        "fds": [(fd.lhs.mask, fd.rhs_index) for fd in fds],
        "stats": _plain_stats(stats),
    }


def unpack_cover(payload: Dict[str, Any], schema: Schema):
    """``(agree, max_sets, cmax_sets, lhs_sets, fds, stats)`` — fresh
    containers, FDs rebuilt over *schema*."""
    try:
        agree = set(payload["agree"])
        max_sets = {
            attr: list(masks) for attr, masks in payload["max"].items()
        }
        cmax_sets = {
            attr: list(masks) for attr, masks in payload["cmax"].items()
        }
        lhs_sets = {
            attr: list(masks) for attr, masks in payload["lhs"].items()
        }
        fds = [
            FD(AttributeSet(schema, lhs_mask), rhs)
            for lhs_mask, rhs in payload["fds"]
        ]
        stats = dict(payload["stats"])
        return agree, max_sets, cmax_sets, lhs_sets, fds, stats
    except Exception as error:
        raise CacheCodecError(f"invalid cover payload: {error}") from error


def _plain_stats(stats: Dict[str, Any]) -> Dict[str, Any]:
    """The integer counters plus the string facts (such as the plan
    reason) of a run's stats."""
    return {name: value for name, value in stats.items()
            if isinstance(value, (int, str))}
