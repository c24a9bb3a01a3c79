"""End-to-end validation of mining results.

``validate_result`` re-checks every invariant the Dep-Miner pipeline is
supposed to guarantee, directly against the relation:

1. every reported FD holds, is non-trivial, and is lhs-minimal;
2. the agree sets are exactly ``ag(r)`` (checked against the naive
   all-pairs oracle — quadratic, so guarded by a size limit); for a
   Plan 2 result (``result.stats["plan"] == 2``, the columnar
   sample-and-repair plan) they are a subset of ``ag(r)`` with the same
   ``Max⊆`` family for every attribute;
3. ``max(dep(r), A)`` is an antichain of agree sets avoiding ``A``,
   maximal among them;
4. ``lhs(dep(r), A)`` are minimal transversals of the cmax hypergraph;
5. the Armstrong relations (classical and real-world) satisfy exactly
   the same minimal FDs (checked by re-mining them);
6. the real-world relation draws every value from the input and meets
   Proposition 1's size bound.

Violations are collected (not raised) into a report, so a failed run
shows everything that is wrong at once.  This is the library's built-in
answer to "do I trust this output?" and is itself exercised by the test
suite on known-good and deliberately corrupted results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.agree_sets import naive_agree_sets
from repro.core.depminer import DepMinerResult
from repro.core.relation import Relation
from repro.hypergraph.hypergraph import SimpleHypergraph, maximize_sets

__all__ = ["ValidationReport", "validate_result"]

_NAIVE_ORACLE_LIMIT = 2000  # rows; above this the O(p²) checks are skipped


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_result`."""

    violations: List[str] = field(default_factory=list)
    checks_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, check: str) -> None:
        self.checks_run.append(check)

    def fail(self, message: str) -> None:
        self.violations.append(message)

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [f"validation: {status} ({len(self.checks_run)} checks)"]
        lines.extend(f"  - {violation}" for violation in self.violations)
        return "\n".join(lines)


def validate_result(result: DepMinerResult, relation: Relation,
                    deep: bool = True) -> ValidationReport:
    """Re-check the pipeline invariants of *result* against *relation*.

    ``deep=True`` adds the quadratic agree-set oracle and the Armstrong
    re-mining checks (skipped automatically above
    ``_NAIVE_ORACLE_LIMIT`` rows).
    """
    report = ValidationReport()
    schema = result.schema
    universe = schema.universe_mask

    # 1. Every FD holds, is non-trivial and minimal.
    report.add("fds-hold-and-minimal")
    for fd in result.fds:
        rhs = schema.from_mask(fd.rhs_mask)
        if fd.is_trivial():
            report.fail(f"trivial FD reported: {fd}")
        if not relation.satisfies(fd.lhs, rhs):
            report.fail(f"reported FD does not hold: {fd}")
        for attribute in fd.lhs.indices():
            if relation.satisfies(fd.lhs.remove(attribute), rhs):
                report.fail(f"non-minimal lhs: {fd} (drop {attribute})")

    # 2. Agree sets match the naive oracle (Plan 2: subset, same Max⊆).
    if deep and len(relation) <= _NAIVE_ORACLE_LIMIT:
        report.add("agree-sets-oracle")
        expected = naive_agree_sets(relation)
        if result.stats.get("plan") == 2:
            extra = sorted(result.agree_sets - expected)
            if extra:
                report.fail(
                    f"plan-2 agree sets are not a subset of the oracle "
                    f"(extra={extra[:5]})"
                )
            for attribute in range(len(schema)):
                bit = 1 << attribute
                if _max_family(result.agree_sets, bit) != \
                        _max_family(expected, bit):
                    report.fail(
                        f"plan-2 agree sets change the maximal family "
                        f"of {schema.name_of(attribute)}"
                    )
        elif result.agree_sets != expected:
            missing = sorted(expected - result.agree_sets)
            extra = sorted(result.agree_sets - expected)
            report.fail(
                f"agree sets differ from oracle "
                f"(missing={missing[:5]}, extra={extra[:5]})"
            )

    # 3. Maximal sets are maximal agree sets avoiding their attribute.
    report.add("max-sets-structure")
    for attribute, masks in result.max_sets.items():
        if sorted(masks) != _max_family(result.agree_sets, 1 << attribute):
            report.fail(
                f"max(dep(r), {schema.name_of(attribute)}) is not the "
                f"maximal agree-set family"
            )

    # 4. lhs families are the minimal transversals of cmax.
    report.add("lhs-are-minimal-transversals")
    for attribute, edges in result.cmax_sets.items():
        lhs_masks = result.lhs_sets[attribute]
        if not edges:
            if lhs_masks != [0]:
                report.fail(
                    f"constant attribute {schema.name_of(attribute)} "
                    f"should have lhs family [∅]"
                )
            continue
        hypergraph = SimpleHypergraph(
            len(schema), edges, check_simple=False
        )
        for mask in lhs_masks:
            if not hypergraph.is_minimal_transversal(mask):
                report.fail(
                    f"lhs {bin(mask)} of {schema.name_of(attribute)} is "
                    f"not a minimal transversal of cmax"
                )

    # 5./6. Armstrong relations.
    if result.armstrong is not None:
        report.add("armstrong-size-and-values")
        if len(result.armstrong) != len(result.max_union) + 1:
            report.fail("real-world Armstrong relation has the wrong size")
        for name in schema.names:
            if not set(result.armstrong.column(name)) <= set(
                relation.column(name)
            ):
                report.fail(
                    f"Armstrong column {name} holds values not in the input"
                )
    if deep and len(schema) <= 10:
        from repro.core.depminer import DepMiner

        miner = DepMiner(build_armstrong="none")
        for label, candidate in (
            ("classical", result.classical_armstrong),
            ("real-world", result.armstrong),
        ):
            if candidate is None:
                continue
            report.add(f"armstrong-dep-equality-{label}")
            if miner.run(candidate).fds != result.fds:
                report.fail(
                    f"the {label} Armstrong relation does not satisfy "
                    f"exactly the mined FDs"
                )
    return report


def _max_family(agree, bit: int) -> List[int]:
    """The maximal agree sets avoiding the attribute *bit*, sorted."""
    return maximize_sets([mask for mask in agree if not mask & bit])
