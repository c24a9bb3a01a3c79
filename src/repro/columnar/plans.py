"""Execution plans of the agree-set stage, chosen by a couple preflight.

Algorithm 2 enumerates every couple inside the maximal classes, so one
large class makes the agree-set stage quadratic in time and memory
while its agree sets stay few (a constant column over 2 000 rows is
~2M couples for a handful of agree sets).  The columnar backend
therefore decides *before* enumerating:

- the **preflight** (:func:`repro.columnar.grouping.couple_preflight`)
  counts the couples exactly from the class sizes of the class-id
  matrix;
- **Plan 1** enumerates them all, as the paper does;
- **Plan 2** (:func:`sample_and_repair`) mines a sample of rows, with
  the very same couple enumeration on a column slice of the code
  matrix, and repairs it with counterexamples found by
  :func:`lhs_violations` until every FD of the sample holds in ``r``
  (the loop is :func:`repro.core.sampling.repair_loop`).

:func:`choose_plan` picks Plan 2 only when the predicted couples exceed
both :data:`PLAN_COUPLES_PER_CELL` per row·attribute and the absolute
:data:`PLAN_COUPLE_FLOOR`.  Both plans yield the identical cover, max
sets and Armstrong relation; Plan 2's agree sets are ``ag(s) ⊆ ag(r)``
with equal ``Max⊆`` families.  ``docs/columnar.md`` ("Plans") has the
measurements behind the constants and the exactness argument.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.columnar.agree import candidate_couples, resolve_couples
from repro.columnar.cmax import maximal_sets_packed
from repro.columnar.grouping import Preflight, class_matrix
from repro.core.attributes import Schema, iter_bits
from repro.core.lhs import left_hand_sides
from repro.core.sampling import repair_loop
from repro.obs import MetricsRegistry, Tracer

__all__ = [
    "PLAN_COUPLES_PER_CELL",
    "PLAN_COUPLE_FLOOR",
    "PLAN_SAMPLE_ROWS",
    "choose_plan",
    "lhs_violations",
    "sample_and_repair",
]

#: Plan 2 needs more predicted couples than this per row·attribute.
#: Ordinary section 5.2 tables sit near 1; a constant column puts the
#: ratio near rows / (2 · attributes).
PLAN_COUPLES_PER_CELL = 32
#: ... and more than this many couples in absolute terms, below which
#: Plan 1 finishes in milliseconds anyway.
PLAN_COUPLE_FLOOR = 1 << 18
#: Rows of Plan 2's initial sample; a relation this small is Plan 1.
PLAN_SAMPLE_ROWS = 256


def choose_plan(preflight: Preflight, num_rows: int,
                width: int) -> Tuple[int, str]:
    """``(plan, reason)`` for a relation with this preflight."""
    couples = preflight.couples
    per_cell = couples / max(num_rows * width, 1)
    if num_rows <= PLAN_SAMPLE_ROWS:
        return 1, (f"{num_rows} rows fit in one {PLAN_SAMPLE_ROWS}-row "
                   f"sample")
    if couples <= PLAN_COUPLE_FLOOR:
        return 1, f"{couples} couples <= floor {PLAN_COUPLE_FLOOR}"
    if per_cell <= PLAN_COUPLES_PER_CELL:
        return 1, (f"{per_cell:.2f} couples per row·attribute <= "
                   f"{PLAN_COUPLES_PER_CELL}")
    return 2, (f"{per_cell:.2f} couples per row·attribute > "
               f"{PLAN_COUPLES_PER_CELL} and {couples} couples > floor "
               f"{PLAN_COUPLE_FLOOR}")


def lhs_violations(codes: np.ndarray, lhs_mask: int,
                   rhs_mask: int) -> Dict[int, Tuple[int, int]]:
    """One witness pair per rhs attribute that *lhs_mask* does not
    determine in the relation of *codes*.

    One stable lexsort groups the rows by their lhs codes; each row is
    compared with the first row of its group on every rhs attribute at
    once, and the first disagreement per attribute is the witness.  The
    empty lhs is one group holding every row.
    """
    num_rows = int(codes.shape[1])
    rhs = list(iter_bits(rhs_mask))
    if num_rows < 2 or not rhs:
        return {}
    lhs = list(iter_bits(lhs_mask))
    if lhs:
        keys = codes[lhs]
        order = np.lexsort(keys[::-1])
        ordered = keys[:, order]
        boundary = np.empty(num_rows, dtype=bool)
        boundary[0] = True
        np.any(ordered[:, 1:] != ordered[:, :-1], axis=0,
               out=boundary[1:])
        starts = np.maximum.accumulate(
            np.where(boundary, np.arange(num_rows), 0)
        )
        first = order[starts]
    else:
        order = np.arange(num_rows)
        first = np.zeros(num_rows, dtype=np.int64)
    values = codes[rhs]
    differs = values[:, order] != values[:, first]
    positions = differs.argmax(axis=1)
    return {
        rhs[k]: (int(first[positions[k]]), int(order[positions[k]]))
        for k in np.flatnonzero(differs.any(axis=1)).tolist()
    }


def sample_and_repair(codes: np.ndarray, schema: Schema, method: str,
                      tracer: Tracer,
                      metrics: MetricsRegistry) -> Tuple[Set[int],
                                                         Dict[str, int]]:
    """Plan 2: ``(ag(s), stats)`` for a sample ``s`` with
    ``dep(s) = dep(r)``.

    The initial sample is drawn with a fixed seed, so runs repeat.
    Each round mines ``codes[:, rows]`` exactly as Plan 1 mines the
    whole matrix (couples, resolution, the ``∅`` test, cmax) and takes
    the sample's *unrestricted* minimal cover with the transversal
    *method*; each distinct lhs is then checked on the full code matrix
    by :func:`lhs_violations`.
    """
    num_rows = int(codes.shape[1])
    enumerated = 0

    def mine(rows: List[int]):
        nonlocal enumerated
        with tracer.span("columnar.sample", rows=len(rows)):
            ec = class_matrix(codes[:, rows])
            left, right = candidate_couples(ec)
            count = int(left.shape[0])
            enumerated += count
            agree = resolve_couples(ec, left, right)
            if count < len(rows) * (len(rows) - 1) // 2:
                agree.add(0)
            _, cmax = maximal_sets_packed(agree, schema)
            lhs_sets = left_hand_sides(cmax, schema, method=method)
        by_lhs: Dict[int, int] = {}
        for attribute, masks in lhs_sets.items():
            bit = 1 << attribute
            for mask in masks:
                if not mask & bit:
                    by_lhs[mask] = by_lhs.get(mask, 0) | bit
        return by_lhs, agree

    def verify(lhs_mask: int, rhs_mask: int):
        with tracer.span("columnar.verify"):
            return lhs_violations(codes, lhs_mask, rhs_mask)

    outcome = repair_loop(num_rows, mine, verify,
                          sample_size=PLAN_SAMPLE_ROWS)
    metrics.inc("agree.couples_enumerated", enumerated)
    stats = {
        "num_couples": enumerated,
        "plan_sample_rows": len(outcome.rows),
        "plan_rounds": outcome.rounds,
        "plan_verifications": outcome.verifications,
    }
    return outcome.mined, stats
