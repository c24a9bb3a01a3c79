"""Guided-sampling FD discovery: mine a sample, repair it, repeat.

The paper designs Dep-Miner "under the assumption of limited main memory
resources"; the classical complementary technique (Kivinen & Mannila's
sampling bounds, the self-tuning loop of [MR94a]) is to mine a *sample*
and repair it with counterexamples:

1. mine the minimal FDs of a small random sample ``s ⊆ r``;
2. verify each mined FD against the full relation (one group-by per
   distinct lhs covers every rhs sharing it);
3. for every FD that fails, add the witnessing tuple pair to the sample
   and repeat.

The loop always converges and its answer is *exact*, not approximate;
the argument is in ``docs/columnar.md`` ("Plans").  :func:`repair_loop`
is that loop, independent of how a sample is mined or an FD verified.
Two callers drive it:

- :func:`discover_with_sampling` — the NumPy-free reference: each round
  runs a full :class:`DepMiner` on ``relation.take(sample)`` and
  verifies with a pure-Python hash scan;
- Plan 2 of the columnar backend (:mod:`repro.columnar.plans`), which
  mines column slices of the code matrix and verifies with one
  vectorized group-by per lhs.

The final sample is itself an interesting by-product: like a real-world
Armstrong relation it is small, uses only values of ``r``, and satisfies
exactly ``dep(r)`` (it is a "witness sample" rather than a minimal
Armstrong relation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.depminer import DepMiner
from repro.core.relation import Relation
from repro.errors import ReproError
from repro.fd.fd import FD, sort_fds

__all__ = [
    "RepairOutcome",
    "SamplingResult",
    "discover_with_sampling",
    "repair_loop",
]

#: ``mine(sample_rows) -> ({lhs_mask: rhs_mask}, payload)`` — the
#: sample's minimal FDs grouped by lhs, plus whatever the caller keeps.
MineSample = Callable[[List[int]], Tuple[Dict[int, int], Any]]
#: ``verify(lhs_mask, rhs_mask) -> {rhs_attribute: (row, row)}`` — one
#: witness pair per rhs attribute the lhs does not determine in ``r``.
VerifyLhs = Callable[[int, int], Dict[int, Tuple[int, int]]]


@dataclass
class RepairOutcome:
    """Where :func:`repair_loop` converged."""

    rows: List[int]
    mined: Any
    rounds: int
    verifications: int


def repair_loop(num_rows: int, mine: MineSample, verify: VerifyLhs,
                sample_size: int = 256, seed: int = 0,
                max_rounds: Optional[int] = None) -> RepairOutcome:
    """Sample, mine, verify and repair until every sampled FD holds.

    Starts from ``sample_size`` rows drawn with ``random.Random(seed)``
    (all rows when the relation is that small).  Every round mines the
    current sample, verifies each distinct lhs against ``r`` and adds
    the witness rows of every violated FD; it stops when a round adds no
    row.  An FD found to hold is never verified again (``r`` does not
    change).  *max_rounds* optionally bounds the loop with a
    :class:`ReproError`; without it the loop always ends, because each
    round that does not stop adds at least one row.
    """
    if sample_size < 1:
        raise ReproError("sample_size must be positive")
    if num_rows <= sample_size:
        rows = list(range(num_rows))
    else:
        rows = sorted(random.Random(seed).sample(range(num_rows),
                                                 sample_size))
    in_sample = set(rows)
    held: Dict[int, int] = {}
    rounds = 0
    verifications = 0
    while True:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise ReproError(
                f"sampling did not converge within {max_rounds} rounds"
            )
        by_lhs, mined = mine(rows)
        new_rows = []
        for lhs_mask, rhs_mask in by_lhs.items():
            pending = rhs_mask & ~held.get(lhs_mask, 0)
            if not pending:
                continue
            verifications += 1
            witnesses = verify(lhs_mask, pending)
            violated = 0
            for attribute, pair in witnesses.items():
                violated |= 1 << attribute
                for row in pair:
                    if row not in in_sample:
                        in_sample.add(row)
                        new_rows.append(row)
            held[lhs_mask] = held.get(lhs_mask, 0) | (pending & ~violated)
        if not new_rows:
            return RepairOutcome(rows, mined, rounds, verifications)
        rows = sorted(in_sample)


@dataclass
class SamplingResult:
    """Outcome of the sample-and-verify loop."""

    fds: List[FD]
    sample: Relation
    rounds: int
    verifications: int

    @property
    def sample_size(self) -> int:
        return len(self.sample)


def discover_with_sampling(relation: Relation, sample_size: int = 256,
                           seed: int = 0, max_rounds: Optional[int] = None,
                           **miner_options) -> SamplingResult:
    """Discover the exact minimal FDs of *relation* via guided sampling.

    *sample_size* is the size of the initial random sample (clamped to
    the relation); *max_rounds* optionally bounds the repair loop (see
    :func:`repair_loop`).  Extra keyword options go to the inner
    :class:`DepMiner`.  Needs no NumPy.

    >>> # doctest-style sketch:
    >>> # result = discover_with_sampling(big_relation, sample_size=512)
    >>> # result.fds == discover_fds(big_relation)
    """
    miner_options.setdefault("build_armstrong", "none")
    miner = DepMiner(**miner_options)

    def mine(rows: List[int]):
        sample = relation.take(rows)
        fds = miner.run(sample).fds
        by_lhs: Dict[int, int] = {}
        for fd in fds:
            by_lhs[fd.lhs.mask] = by_lhs.get(fd.lhs.mask, 0) | fd.rhs_mask
        return by_lhs, (sample, fds)

    def verify(lhs_mask: int, rhs_mask: int):
        return _find_violations_grouped(relation, lhs_mask, rhs_mask)

    outcome = repair_loop(len(relation), mine, verify,
                          sample_size=sample_size, seed=seed,
                          max_rounds=max_rounds)
    sample, fds = outcome.mined
    return SamplingResult(
        fds=sort_fds(fds),
        sample=sample,
        rounds=outcome.rounds,
        verifications=outcome.verifications,
    )


def _find_violations_grouped(relation: Relation, lhs_mask: int,
                             rhs_mask: int) -> Dict[int, Tuple[int, int]]:
    """One witness pair per violated rhs attribute, in a single scan.

    Checks every FD ``lhs → A`` for ``A`` in *rhs_mask* simultaneously:
    tuples are grouped by their lhs projection; the first group member
    serves as the representative, and the first disagreement on each
    still-unviolated rhs attribute is reported.
    """
    from repro.core.attributes import iter_bits

    columns = [relation.column(i) for i in range(len(relation.schema))]
    lhs_indices = tuple(iter_bits(lhs_mask))
    representative: dict = {}
    pending = set(iter_bits(rhs_mask))
    witnesses: Dict[int, Tuple[int, int]] = {}
    for i in range(len(relation)):
        key = tuple(columns[a][i] for a in lhs_indices)
        first = representative.setdefault(key, i)
        if first == i or not pending:
            continue
        for attribute in list(pending):
            if columns[attribute][first] != columns[attribute][i]:
                witnesses[attribute] = (first, i)
                pending.discard(attribute)
    return witnesses
