"""The paper's synthetic benchmark database (section 5.2).

Relations are generated from three parameters (Table 2 of the paper):

- ``|R|`` — number of attributes;
- ``|r|`` — number of tuples;
- ``c``  — "rate of identical values": with ``c = 50%`` and 1 000 tuples,
  "each value for this attribute is chosen between 500 possible values",
  i.e. each column draws uniformly from ``round((1 − c) · |r|)`` distinct
  values, so a larger *rate of identical values* means a smaller active
  domain.  ``c = None`` reproduces "data sets without constraints":
  ``c = 0``, values drawn among ``|r|`` possibilities.

  Calibration note: the paper's sentence is ambiguous exactly at
  ``c = 50%`` (both ``c·|r|`` and ``(1−c)·|r|`` give 500 of 1 000).  Two
  observations pin the ``(1 − c)`` reading down: (a) a truly unbounded
  "without constraints" domain would make every agree set empty and
  every Armstrong relation 2 tuples, while Table 3(b) shows sizes in the
  hundreds, so the unconstrained generator drew from an ``O(|r|)``
  range; (b) only ``(1 − c)`` reproduces the paper's consistent ordering
  none < 30% < 50% of both execution times and Armstrong sizes
  (Tables 3–5) — under the ``c·|r|`` reading, 30% produces *more*
  duplication than 50% and the ordering inverts.

Generation is deterministic given ``seed``; columns use independent
streams so adding attributes does not reshuffle existing ones (useful
when sweeping ``|R|`` at fixed ``|r|``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.core.attributes import Schema
from repro.core.relation import Relation
from repro.errors import ReproError

__all__ = [
    "SyntheticSpec",
    "generate_relation",
    "generate_columns",
    "large_class_relation",
]

@dataclass(frozen=True)
class SyntheticSpec:
    """One cell of the benchmark grid.

    ``skew`` extends the paper's uniform generator with Zipf-distributed
    values (``skew = 0`` keeps the uniform draw; larger values
    concentrate mass on few values, producing heavy-tailed equivalence
    classes — the regime the paper's c parameter cannot reach).
    """

    num_attributes: int
    num_tuples: int
    correlation: Optional[float] = None  # the paper's parameter c
    seed: int = 0
    skew: float = 0.0

    def __post_init__(self):
        if self.num_attributes < 1:
            raise ReproError("num_attributes must be positive")
        if self.num_tuples < 0:
            raise ReproError("num_tuples must be non-negative")
        if self.correlation is not None and not 0 <= self.correlation < 1:
            raise ReproError(
                "correlation c must lie in [0, 1) or be None "
                "(unconstrained)"
            )
        if self.skew < 0:
            raise ReproError("skew must be non-negative")

    @property
    def domain_size(self) -> int:
        """Distinct values available per column: ``(1 − c) · |r|``,
        with the unconstrained setting behaving as ``c = 0`` — see the
        module docstring's calibration note."""
        correlation = 0.0 if self.correlation is None else self.correlation
        return max(1, round((1.0 - correlation) * self.num_tuples))

    def label(self) -> str:
        c = "none" if self.correlation is None else f"{self.correlation:.0%}"
        return (
            f"|R|={self.num_attributes} |r|={self.num_tuples} c={c}"
        )


def _zipf_weights(domain: int, skew: float) -> List[float]:
    """Cumulative Zipf(s = skew) weights over ``domain`` values."""
    total = 0.0
    cumulative = []
    for rank in range(1, domain + 1):
        total += 1.0 / (rank ** skew)
        cumulative.append(total)
    return [weight / total for weight in cumulative]


def generate_columns(spec: SyntheticSpec) -> List[List[int]]:
    """The raw integer columns for *spec* (one independent RNG each)."""
    import bisect

    domain = spec.domain_size
    weights = _zipf_weights(domain, spec.skew) if spec.skew else None
    columns: List[List[int]] = []
    for attribute in range(spec.num_attributes):
        rng = random.Random(f"{spec.seed}/{attribute}")
        if weights is None:
            column = [rng.randrange(domain) for _ in range(spec.num_tuples)]
        else:
            column = [
                bisect.bisect_left(weights, rng.random())
                for _ in range(spec.num_tuples)
            ]
        columns.append(column)
    return columns


def generate_relation(num_attributes: int, num_tuples: int,
                      correlation: Optional[float] = None,
                      seed: int = 0, skew: float = 0.0) -> Relation:
    """Generate one benchmark relation.

    >>> r = generate_relation(5, 100, correlation=0.3, seed=1)
    >>> (len(r.schema), len(r))
    (5, 100)
    """
    spec = SyntheticSpec(
        num_attributes=num_attributes,
        num_tuples=num_tuples,
        correlation=correlation,
        seed=seed,
        skew=skew,
    )
    schema = Schema.of_width(spec.num_attributes)
    return Relation.from_columns(schema, generate_columns(spec))


def large_class_relation(num_rows: int, seed: int = 0) -> Relation:
    """The couple-wall shape: a constant column (one class holding every
    row), a binary column, two near-unique columns and a key.

    Its couples grow with ``num_rows²`` while its agree sets stay a
    handful — the shape the columnar backend's Plan 2 exists for
    (``docs/columnar.md``, "Plans"); from 700 rows the default plan
    choice picks it.

    >>> r = large_class_relation(10)
    >>> (len(r.schema), len(r), len(set(r.column(0))))
    (5, 10, 1)
    """
    rng = random.Random(seed)
    domain = 20 * num_rows
    keys = list(range(num_rows))
    rng.shuffle(keys)
    rows = [
        ("const", rng.randrange(2), rng.randrange(domain),
         f"t{rng.randrange(domain)}", keys[row])
        for row in range(num_rows)
    ]
    return Relation.from_rows(Schema(["A", "B", "C", "D", "E"]), rows)
