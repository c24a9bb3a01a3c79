"""Property-based tests (hypothesis) on the core invariants.

These pin down the semantic contracts the whole system rests on:

- the three agree-set algorithms are extensionally equal;
- Dep-Miner ≡ TANE ≡ brute force on arbitrary relations;
- Armstrong relations (classical and real-world) satisfy exactly the
  source relation's dependencies;
- partition products match direct grouping;
- ``Tr`` is an involution on simple hypergraphs, and its output is an
  antichain of genuine minimal transversals;
- attribute closure is a closure operator (extensive, monotone,
  idempotent);
- minimal covers are equivalent to their input;
- the columnar backend's two agree-set plans (full couples and
  sample-and-repair) give the same cover, maximal sets and Armstrong
  rows as the python backend.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.agree_sets import (
    agree_sets_from_couples,
    agree_sets_from_identifiers,
    naive_agree_sets,
)
from repro.core.attributes import Schema
from repro.core.depminer import DepMiner, discover_fds
from repro.core.relation import Relation
from repro.fd.bruteforce import bruteforce_minimal_fds
from repro.fd.closure import attribute_closure, equivalent_covers
from repro.fd.cover import is_minimal_cover, minimal_cover
from repro.fd.fd import FD
from repro.hypergraph.hypergraph import SimpleHypergraph, minimize_sets
from repro.hypergraph.transversals import (
    minimal_transversals_berge,
    minimal_transversals_levelwise,
)
from repro.partitions.database import StrippedPartitionDatabase
from repro.partitions.partition import (
    partition_product,
    stripped_partition_of_column,
)
from repro.tane.tane import Tane


@st.composite
def relations(draw, max_width=4, max_rows=12, max_value=3):
    width = draw(st.integers(min_value=1, max_value=max_width))
    num_rows = draw(st.integers(min_value=0, max_value=max_rows))
    rows = [
        tuple(
            draw(st.integers(min_value=0, max_value=max_value))
            for _ in range(width)
        )
        for _ in range(num_rows)
    ]
    return Relation.from_rows(Schema.of_width(width), rows)


@st.composite
def hypergraphs(draw, max_vertices=6, max_edges=5):
    num_vertices = draw(st.integers(min_value=1, max_value=max_vertices))
    universe = (1 << num_vertices) - 1
    edges = draw(
        st.lists(
            st.integers(min_value=1, max_value=universe),
            min_size=0,
            max_size=max_edges,
        )
    )
    return num_vertices, minimize_sets(edges)


@st.composite
def fd_sets(draw, width=4, max_fds=6):
    schema = Schema.of_width(width)
    universe = schema.universe_mask
    fds = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_fds))):
        lhs = draw(st.integers(min_value=0, max_value=universe))
        rhs = draw(st.integers(min_value=0, max_value=width - 1))
        fds.append(FD(schema.from_mask(lhs & ~(1 << rhs)), rhs))
    return schema, fds


@settings(max_examples=60, deadline=None)
@given(relations())
def test_agree_set_algorithms_are_extensionally_equal(relation):
    spdb = StrippedPartitionDatabase.from_relation(relation)
    naive = naive_agree_sets(relation)
    assert agree_sets_from_couples(spdb) == naive
    assert agree_sets_from_identifiers(spdb) == naive
    assert agree_sets_from_couples(spdb, max_couples=2) == naive


@settings(max_examples=60, deadline=None)
@given(relations())
def test_miners_agree_with_brute_force(relation):
    expected = bruteforce_minimal_fds(relation)
    assert discover_fds(relation) == expected
    assert discover_fds(relation, agree_algorithm="identifiers") == expected
    assert Tane().run(relation).fds == expected


@settings(max_examples=40, deadline=None)
@given(relations(max_value=9))
def test_armstrong_relations_satisfy_exactly_the_source_dependencies(relation):
    result = DepMiner().run(relation)
    expected = bruteforce_minimal_fds(relation)
    assert bruteforce_minimal_fds(result.classical_armstrong) == expected
    if result.armstrong is not None:
        assert bruteforce_minimal_fds(result.armstrong) == expected
        # Definition 1: values come from the initial relation.
        for name in relation.schema.names:
            assert set(result.armstrong.column(name)) <= set(
                relation.column(name)
            )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), max_size=12),
    st.lists(st.integers(min_value=0, max_value=3), max_size=12),
)
def test_partition_product_matches_direct_grouping(left_col, right_col):
    size = min(len(left_col), len(right_col))
    left_col, right_col = left_col[:size], right_col[:size]
    left = stripped_partition_of_column(left_col)
    right = stripped_partition_of_column(right_col)
    direct = stripped_partition_of_column(
        list(zip(left_col, right_col))
    )
    assert partition_product(left, right) == direct


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_transversal_algorithms_agree_and_produce_antichains(case):
    num_vertices, edges = case
    levelwise = minimal_transversals_levelwise(edges, num_vertices)
    berge = minimal_transversals_berge(edges, num_vertices)
    assert levelwise == berge
    # Antichain property.
    assert minimize_sets(levelwise) == sorted(levelwise)
    # Each result is a genuine minimal transversal.
    if edges:
        h = SimpleHypergraph(num_vertices, edges, check_simple=False)
        for transversal in levelwise:
            assert h.is_minimal_transversal(transversal)


@settings(max_examples=40, deadline=None)
@given(hypergraphs())
def test_transversal_hypergraph_is_an_involution(case):
    num_vertices, edges = case
    if not edges:
        return
    h = SimpleHypergraph(num_vertices, edges, check_simple=False)
    assert h.transversal_hypergraph().transversal_hypergraph() == h


@settings(max_examples=60, deadline=None)
@given(fd_sets(), st.integers(min_value=0, max_value=15))
def test_closure_is_a_closure_operator(case, start_mask):
    schema, fds = case
    start_mask &= schema.universe_mask
    closure = attribute_closure(start_mask, fds, schema)
    # extensive
    assert start_mask & ~closure == 0
    # idempotent
    assert attribute_closure(closure, fds, schema) == closure
    # monotone (against every superset obtained by adding one attribute)
    for attribute in range(len(schema)):
        bigger = start_mask | (1 << attribute)
        bigger_closure = attribute_closure(bigger, fds, schema)
        assert closure & ~bigger_closure == 0


@settings(max_examples=60, deadline=None)
@given(fd_sets())
def test_minimal_cover_is_equivalent_and_minimal(case):
    _schema, fds = case
    cover = minimal_cover(fds)
    assert equivalent_covers(cover, fds)
    assert is_minimal_cover(cover)


@settings(max_examples=40, deadline=None)
@given(relations())
def test_sampling_discovery_is_exact(relation):
    from repro.core.sampling import discover_with_sampling

    result = discover_with_sampling(relation, sample_size=3, seed=0)
    assert result.fds == bruteforce_minimal_fds(relation)
    assert result.sample_size <= len(relation) or len(relation) == 0


@settings(max_examples=40, deadline=None)
@given(relations(max_rows=16), st.booleans())
def test_both_columnar_plans_are_exact(relation, nulls_equal):
    from repro.columnar import numpy_available
    from tests.oracle import assert_plans_agree

    if numpy_available():
        # Value 0 stands for NULL, so both null semantics are exercised.
        nulled = Relation.from_rows(relation.schema, [
            tuple(None if value == 0 else value for value in row)
            for row in relation.rows()
        ])
        assert_plans_agree(nulled, nulls_equal=nulls_equal)


@settings(max_examples=40, deadline=None)
@given(relations())
def test_discovered_keys_are_exactly_the_minimal_unique_combinations(relation):
    from itertools import combinations

    from repro.core.keys_mining import discover_keys

    keys = [k.mask for k in discover_keys(relation)]
    # Oracle: enumerate subsets, keep minimal instance superkeys.
    schema = relation.schema
    width = len(schema)
    expected = []
    for size in range(width + 1):
        for subset in combinations(range(width), size):
            mask = 0
            for attribute in subset:
                mask |= 1 << attribute
            if any(mask & kept == kept for kept in expected):
                continue
            if relation.is_superkey(schema.from_mask(mask)):
                expected.append(mask)
    assert keys == sorted(expected)


@settings(max_examples=40, deadline=None)
@given(relations(max_width=3, max_rows=10, max_value=2))
def test_fdep_equals_the_other_miners(relation):
    from repro.fdep import Fdep

    assert Fdep().run(relation).fds == bruteforce_minimal_fds(relation)


@settings(max_examples=30, deadline=None)
@given(relations(max_width=4, max_rows=10, max_value=2))
def test_mined_fds_hold_as_mvds_and_split_losslessly(relation):
    """Every mined FD X -> A also holds as the MVD X ->> A, and the
    Heath split it induces is lossless on the instance (verified by
    joining the projections back)."""
    from repro.fd.mvd import MVD

    schema = relation.schema
    for fd in discover_fds(relation)[:3]:
        mvd = MVD(fd.lhs, schema.from_mask(fd.rhs_mask))
        assert mvd.holds_in(relation)
        if len(relation) == 0:
            continue
        left_names = (fd.lhs | schema.from_mask(fd.rhs_mask)).names
        right_mask = schema.universe_mask & ~fd.rhs_mask
        right_names = schema.from_mask(right_mask).names
        if not left_names or not right_names:
            continue
        joined = relation.project(left_names).natural_join(
            relation.project(right_names)
        )

        def canonical(rel):
            names = sorted(rel.schema.names)
            idx = [rel.schema.index_of(n) for n in names]
            return {tuple(row[i] for i in idx) for row in rel.rows()}

        assert canonical(joined) == canonical(relation)


@settings(max_examples=40, deadline=None)
@given(relations())
def test_discovered_fds_hold_and_are_minimal(relation):
    for fd in discover_fds(relation):
        assert fd.holds_in(relation)
        assert not fd.is_trivial()
        for attribute in fd.lhs.indices():
            shrunk = fd.lhs.remove(attribute)
            assert not relation.satisfies(
                shrunk, relation.schema.from_mask(fd.rhs_mask)
            )


def _canonical_cover(fds):
    return sorted((fd.lhs.mask, fd.rhs_index) for fd in fds)


@settings(max_examples=40, deadline=None)
@given(relations(), st.randoms(use_true_random=False))
def test_cover_is_invariant_under_row_permutation(relation, rng):
    """FDs are a property of the tuple *set*: reordering rows must not
    change the mined cover (nor which agree sets exist)."""
    rows = list(relation.rows())
    rng.shuffle(rows)
    shuffled = Relation.from_rows(relation.schema, rows)
    original = DepMiner(build_armstrong="none").run(relation)
    permuted = DepMiner(build_armstrong="none").run(shuffled)
    assert _canonical_cover(permuted.fds) == _canonical_cover(original.fds)
    assert permuted.agree_sets == original.agree_sets
    assert permuted.cmax_sets == original.cmax_sets


@settings(max_examples=40, deadline=None)
@given(relations(), st.data())
def test_cover_is_invariant_under_duplicate_row_insertion(relation, data):
    """Duplicating existing tuples adds only reflexive agreements and
    must leave the mined cover untouched."""
    rows = list(relation.rows())
    if not rows:
        return
    extra = data.draw(
        st.lists(st.sampled_from(rows), min_size=1, max_size=4)
    )
    positions = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(rows)),
            min_size=len(extra), max_size=len(extra),
        )
    )
    padded = list(rows)
    for row, position in zip(extra, positions):
        padded.insert(position, row)
    duplicated = Relation.from_rows(relation.schema, padded)
    original = DepMiner(build_armstrong="none").run(relation)
    padded_result = DepMiner(build_armstrong="none").run(duplicated)
    assert _canonical_cover(padded_result.fds) == _canonical_cover(
        original.fds
    )
    assert padded_result.cmax_sets == original.cmax_sets


def test_wide_relation_crosses_the_uint64_lane_boundary():
    """Nothing above generates schemas wider than a handful of
    attributes, so the 63-bit uint64 lane packing shared by the fast
    agree-set path, the columnar backend and the transversal kernel
    was never exercised past its first lane.  This 70-attribute fixture
    produces agree sets with bits on both sides of bit 63 and pins the
    multi-lane mask reassembly: serial, sharded and (where NumPy is
    available) columnar runs must all emit the identical cover, and
    every mined FD must genuinely hold and be left-minimal."""
    from tests.oracle import wide_lane_boundary_relation

    relation = wide_lane_boundary_relation()
    assert len(relation.schema) == 70
    serial = DepMiner(build_armstrong="none").run(relation)
    assert any(mask >> 63 for mask in serial.agree_sets), (
        "the fixture must straddle bit 63 or it pins nothing"
    )
    sharded = DepMiner(jobs=2, build_armstrong="none").run(relation)
    assert sharded.agree_sets == serial.agree_sets
    assert _canonical_cover(sharded.fds) == _canonical_cover(serial.fds)
    from repro.columnar import numpy_available

    if numpy_available():
        columnar = DepMiner(backend="columnar",
                            build_armstrong="none").run(relation)
        assert columnar.agree_sets == serial.agree_sets
        assert _canonical_cover(columnar.fds) == _canonical_cover(
            serial.fds
        )
    for fd in serial.fds[:20]:
        assert fd.holds_in(relation)
        for attribute in fd.lhs.indices():
            shrunk = fd.lhs.remove(attribute)
            assert not relation.satisfies(
                shrunk, relation.schema.from_mask(fd.rhs_mask)
            )


@settings(max_examples=15, deadline=None)
@given(relations(max_width=4, max_rows=14))
def test_sharded_execution_matches_serial_on_arbitrary_relations(relation):
    """The ``jobs=2`` execution layer is extensionally invisible: same
    agree sets, same cmax sets, same cover, on arbitrary relations."""
    serial = DepMiner(jobs=1, build_armstrong="none").run(relation)
    sharded = DepMiner(jobs=2, build_armstrong="none").run(relation)
    assert sharded.agree_sets == serial.agree_sets
    assert sharded.cmax_sets == serial.cmax_sets
    assert sharded.lhs_sets == serial.lhs_sets
    assert _canonical_cover(sharded.fds) == _canonical_cover(serial.fds)
