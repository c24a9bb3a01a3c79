"""Backend conformance: python and columnar covers are bit-for-bit equal.

The grid sweep over the brute-force-validated corpus lives in
``tests/test_differential_miners.py``; this module covers the cases
brute force cannot reach and the cross-cutting concerns of the
columnar backend:

* the structured 70-attribute **lane-boundary relation** — agree-set
  masks straddle bit 63, so every uint64-packed stage (columnar agree
  resolution, packed cmax, the lane-packed transversal kernel) must
  reassemble multi-lane masks correctly.  The serial python backend is
  the oracle (itself brute-force-validated on narrow schemas);
* the full backend ∈ {python, columnar} × jobs ∈ {1, 2} × cache on/off
  grid on that wide relation, including warm cache replays;
* trace conformance — the columnar pipeline emits the same phase spans
  (strip, agree_sets, cmax, lhs, fd_output) as the python one, tagged
  ``backend="columnar"``, so ``phase_seconds`` consumers never notice
  the backend swap;
* cache-key separation — artifacts written by one backend are keyed by
  that backend, so switching backends over the same store re-mines
  rather than replaying the other backend's artifacts (and still
  produces the identical cover);
* plan conformance — the columnar agree-set stage's Plan 1 (full
  couples) and Plan 2 (sample-and-repair), forced through the
  selection constants, reproduce the python oracle's cover, maximal
  sets and Armstrong rows over the corpus, the wide relation, SQL
  nulls, ``max_lhs_size`` and warm cache replays, and an incremental
  session seeded from a Plan 2 base stays exact under appends.
"""

from __future__ import annotations

import pytest

from repro.cache import ArtifactStore
from repro.columnar import numpy_available
from repro.core.depminer import DepMiner
from repro.obs import Tracer
from tests.oracle import (
    WIDE_ATTRS,
    assert_backend_grid_agrees,
    assert_plans_agree,
    canonical_cover,
    corpus_relations,
    force_plan,
    large_class_relation,
    python_oracle_cover,
    wide_lane_boundary_relation,
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="columnar backend needs NumPy"
)

PHASES = ("strip", "agree_sets", "cmax", "lhs", "fd_output")


class TestWideLaneBoundary:
    """The >63-attribute relation every packed kernel must survive."""

    def test_masks_straddle_the_lane_boundary(self):
        relation = wide_lane_boundary_relation()
        assert len(relation.schema) == WIDE_ATTRS > 63
        result = DepMiner(backend="python", build_armstrong="none").run(
            relation
        )
        assert any(mask >> 63 for mask in result.agree_sets), (
            "the wide fixture must produce agree sets crossing bit 63 "
            "or it does not pin the lane boundary at all"
        )
        assert result.fds, "a non-trivial cover is expected"

    def test_backend_grid_agrees_on_wide_relation(self):
        relation = wide_lane_boundary_relation()
        assert_backend_grid_agrees(relation)

    def test_shm_and_pool_mode_grid_agrees(self):
        """backend × shm on/off × pool persistent/ephemeral, jobs=2.

        The zero-copy dispatch dimensions of the tentpole: forcing the
        shared-memory arena on (or off) and swapping the persistent
        pool for a per-map one must never change a single bit of the
        cover.  Cache cells are skipped — warm replay is orthogonal to
        how shards travel."""
        relation = wide_lane_boundary_relation()
        assert_backend_grid_agrees(
            relation, jobs_values=(2,), cache_values=(False,),
            shm_values=(False, True),
            pool_modes=("persistent", "ephemeral"),
        )

    @needs_numpy
    def test_columnar_agree_sets_match_python(self):
        relation = wide_lane_boundary_relation()
        python = DepMiner(backend="python", build_armstrong="none").run(
            relation
        )
        columnar = DepMiner(backend="columnar",
                            build_armstrong="none").run(relation)
        assert columnar.agree_sets == python.agree_sets
        assert columnar.cmax_sets == python.cmax_sets
        assert columnar.lhs_sets == python.lhs_sets


@needs_numpy
class TestColumnarTraceConformance:
    def test_columnar_emits_the_same_phase_spans(self):
        relation = wide_lane_boundary_relation()
        tracer = Tracer()
        DepMiner(backend="columnar", build_armstrong="none",
                 tracer=tracer).run(relation)
        spans = {span.name: span for span in tracer.spans}
        for phase in PHASES:
            assert phase in spans, f"columnar run missing {phase} span"
            assert spans[phase].attrs.get("phase") is True
        assert spans["strip"].attrs.get("backend") == "columnar"
        assert spans["agree_sets"].attrs.get("algorithm") == "columnar"

    def test_phase_seconds_cover_the_pipeline(self):
        relation = wide_lane_boundary_relation()
        result = DepMiner(backend="columnar",
                          build_armstrong="none").run(relation)
        for phase in PHASES:
            assert phase in result.phase_seconds


@needs_numpy
class TestBackendCacheSeparation:
    def test_backends_do_not_share_artifacts(self):
        relation = wide_lane_boundary_relation()
        oracle = python_oracle_cover(relation)
        store = ArtifactStore()
        first = DepMiner(backend="columnar", cache=store,
                         build_armstrong="none").run(relation)
        assert canonical_cover(first.fds) == oracle
        misses_after_columnar = store.stats["cache.miss"]
        # The python backend over the same store must re-mine (its keys
        # differ), not replay columnar-keyed artifacts …
        second = DepMiner(backend="python", cache=store,
                          build_armstrong="none").run(relation)
        assert canonical_cover(second.fds) == oracle
        assert store.stats["cache.miss"] > misses_after_columnar
        # … while a warm columnar rerun replays from the store.
        hits_before = store.stats.get("cache.memory_hit", 0)
        third = DepMiner(backend="columnar", cache=store,
                         build_armstrong="none").run(relation)
        assert canonical_cover(third.fds) == oracle
        assert store.stats["cache.memory_hit"] > hits_before


def _with_nulls(relation, every: int = 3):
    """*relation* with every *every*-th cell of columns B and C nulled."""
    from repro.core.relation import Relation

    rows = []
    for index, row in enumerate(relation.rows()):
        row = list(row)
        if index % every == 0:
            row[1] = None
        if index % every == 1:
            row[2] = None
        rows.append(tuple(row))
    return Relation.from_rows(relation.schema, rows)


@needs_numpy
class TestPlanConformance:
    """Both agree-set plans of the columnar backend are exact."""

    @pytest.mark.parametrize(
        "relation",
        [relation for _, relation in corpus_relations()],
        ids=[label for label, _ in corpus_relations()],
    )
    def test_corpus(self, relation):
        assert_plans_agree(relation)

    def test_wide_lane_boundary_relation(self):
        relation = wide_lane_boundary_relation()
        plan2 = assert_plans_agree(relation)
        assert any(mask >> 63 for mask in plan2.agree_sets)

    def test_large_class_relation(self):
        plan2 = assert_plans_agree(large_class_relation(300))
        assert plan2.stats["plan_rounds"] > 1

    @pytest.mark.parametrize("nulls_equal", [True, False])
    def test_null_semantics(self, nulls_equal):
        relation = _with_nulls(large_class_relation(120))
        assert_plans_agree(relation, nulls_equal=nulls_equal)

    @pytest.mark.parametrize("max_lhs_size", [1, 2])
    def test_max_lhs_size(self, max_lhs_size):
        from repro.datasets import paper_example_relation

        for relation in (paper_example_relation(),
                         large_class_relation(120)):
            assert_plans_agree(relation, max_lhs_size=max_lhs_size)

    def test_incremental_session_from_a_plan2_base(self, monkeypatch):
        from repro.cache import IncrementalMiner

        base = large_class_relation(200, seed=1)
        grown_rows = list(large_class_relation(260, seed=2).rows())[:60]
        # Rows that break FDs the base satisfies: a second constant,
        # and a repeated key value.
        grown_rows += [("other", 0, 1, "t1", 5), ("const", 1, 2, "t2", 5)]
        force_plan(monkeypatch, 2, sample_rows=16)
        session = IncrementalMiner(base, backend="columnar",
                                   build_armstrong="none")
        assert session.result.stats["plan"] == 2
        for offset in range(0, len(grown_rows), 20):
            session.append(grown_rows[offset:offset + 20])
        force_plan(monkeypatch, 1)
        cold = DepMiner(backend="columnar", build_armstrong="none").run(
            session.relation()
        )
        assert cold.stats["plan"] == 1
        assert canonical_cover(session.result.fds) == \
            canonical_cover(cold.fds)
        assert session.result.max_sets == cold.max_sets

    def test_default_constants_choose_by_shape(self):
        from repro.datagen.synthetic import generate_relation

        tracer = Tracer()
        wall = DepMiner(backend="columnar", build_armstrong="none",
                        tracer=tracer).run(large_class_relation(700))
        assert wall.stats["plan"] == 2
        assert wall.stats["largest_class"] == 700
        (span,) = tracer.find("agree_sets")
        for key in ("plan", "plan_reason", "preflight_couples",
                    "largest_class"):
            assert span.attrs[key] == wall.stats[key]
        assert tracer.find("columnar.sample")
        assert tracer.find("columnar.verify")
        assert not tracer.find("columnar.couples")
        ordinary = DepMiner(backend="columnar",
                            build_armstrong="none").run(
            generate_relation(8, 2000, correlation=0.5, seed=0)
        )
        assert ordinary.stats["plan"] == 1
        assert ordinary.stats["preflight_couples"] > 0
