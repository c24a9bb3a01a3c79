"""Unit tests for the result-validation module."""

from __future__ import annotations

import pytest

from repro.columnar import numpy_available
from repro.core.agree_sets import naive_agree_sets
from repro.core.attributes import AttributeSet
from repro.core.depminer import DepMiner
from repro.datagen.synthetic import generate_relation
from repro.fd.fd import FD
from repro.validate import validate_result
from tests.oracle import force_plan, large_class_relation


class TestKnownGoodResults:
    def test_paper_example_validates(self, paper_relation):
        result = DepMiner().run(paper_relation)
        report = validate_result(result, paper_relation)
        assert report.ok, report.render()
        assert "agree-sets-oracle" in report.checks_run
        assert any(
            check.startswith("armstrong-dep-equality")
            for check in report.checks_run
        )

    def test_synthetic_relations_validate(self):
        for seed in range(5):
            relation = generate_relation(5, 60, correlation=0.5, seed=seed)
            result = DepMiner().run(relation)
            report = validate_result(result, relation)
            assert report.ok, report.render()

    def test_shallow_mode_skips_expensive_checks(self, paper_relation):
        result = DepMiner().run(paper_relation)
        report = validate_result(result, paper_relation, deep=False)
        assert report.ok
        assert "agree-sets-oracle" not in report.checks_run

    def test_render(self, paper_relation):
        result = DepMiner().run(paper_relation)
        text = validate_result(result, paper_relation).render()
        assert text.startswith("validation: OK")


class TestCorruptedResults:
    def test_detects_bogus_fd(self, paper_relation):
        result = DepMiner().run(paper_relation)
        schema = result.schema
        result.fds.append(FD(schema.attribute_set(["A"]), "B"))
        report = validate_result(result, paper_relation)
        assert not report.ok
        assert any("does not hold" in v for v in report.violations)

    def test_detects_trivial_fd(self, paper_relation):
        result = DepMiner().run(paper_relation)
        schema = result.schema
        result.fds.append(FD(schema.attribute_set(["A", "B"]), "A"))
        report = validate_result(result, paper_relation)
        assert any("trivial" in v for v in report.violations)

    def test_detects_non_minimal_lhs(self, paper_relation):
        result = DepMiner().run(paper_relation)
        schema = result.schema
        # D -> B holds, so CD -> B is valid but not minimal.
        result.fds.append(FD(schema.attribute_set(["C", "D"]), "B"))
        report = validate_result(result, paper_relation)
        assert any("non-minimal" in v for v in report.violations)

    def test_detects_corrupted_agree_sets(self, paper_relation):
        result = DepMiner().run(paper_relation)
        result.agree_sets.add(0b11111)
        report = validate_result(result, paper_relation)
        assert any("agree sets differ" in v for v in report.violations)

    def test_detects_corrupted_max_sets(self, paper_relation):
        result = DepMiner().run(paper_relation)
        result.max_sets[0] = [0b00010]
        report = validate_result(result, paper_relation)
        assert any("maximal agree-set" in v for v in report.violations)

    def test_detects_corrupted_lhs(self, paper_relation):
        result = DepMiner().run(paper_relation)
        # Replace A's lhs family with a non-transversal.
        result.lhs_sets[0] = [0b00010]
        report = validate_result(result, paper_relation)
        assert any("minimal transversal" in v for v in report.violations)

    def test_detects_foreign_armstrong_values(self, paper_relation):
        from repro.core.relation import Relation

        result = DepMiner().run(paper_relation)
        rows = [list(row) for row in result.armstrong.rows()]
        rows[0][0] = "not-in-input"
        result.armstrong = Relation.from_rows(result.schema, rows)
        report = validate_result(result, paper_relation)
        assert any(
            "values not in the input" in v for v in report.violations
        )


@pytest.mark.skipif(not numpy_available(),
                    reason="the plans belong to the columnar backend")
class TestPlanAwareValidation:
    """Check 2 accepts Plan 2's ``ag(s) ⊆ ag(r)`` with equal Max⊆."""

    def test_large_class_plan2_result_validates(self):
        relation = large_class_relation(700)
        result = DepMiner(backend="columnar").run(relation)
        assert result.stats["plan"] == 2
        report = validate_result(result, relation)
        assert "agree-sets-oracle" in report.checks_run
        assert report.ok, report.render()

    def _strict_subset_result(self, monkeypatch):
        # A forced tiny sample converges without one non-maximal
        # agree set of r.
        relation = generate_relation(4, 60, correlation=0.7, seed=1)
        force_plan(monkeypatch, 2, sample_rows=4)
        result = DepMiner(backend="columnar").run(relation)
        assert result.stats["plan"] == 2
        assert result.agree_sets < naive_agree_sets(relation)
        return relation, result

    def test_strict_subset_validates_only_as_plan2(self, monkeypatch):
        relation, result = self._strict_subset_result(monkeypatch)
        assert validate_result(result, relation).ok
        result.stats["plan"] = 1
        report = validate_result(result, relation)
        assert any("agree sets differ" in v for v in report.violations)

    def test_detects_foreign_plan2_agree_set(self, monkeypatch):
        relation, result = self._strict_subset_result(monkeypatch)
        full = naive_agree_sets(relation)
        result.agree_sets.add(min(
            mask for mask in range(relation.schema.universe_mask + 1)
            if mask not in full
        ))
        report = validate_result(result, relation)
        assert any("not a subset" in v for v in report.violations)

    def test_detects_lost_maximal_set(self, monkeypatch):
        relation, result = self._strict_subset_result(monkeypatch)
        result.agree_sets.discard(max(result.max_sets[0]))
        report = validate_result(result, relation)
        assert any("maximal family" in v for v in report.violations)
