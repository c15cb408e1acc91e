"""TLC workload tests: schema shape, generator conformance & determinism,
the 11 built-in queries, and the >90%-coverage claim."""

from collections import Counter

import pytest

from repro import BEAS, ExecutionMode
from repro.access.conformance import check_database
from repro.workloads.tlc import (
    generate_tlc,
    query_by_name,
    tlc_access_schema,
    tlc_queries,
    tlc_schema,
)


class TestSchemaShape:
    def test_twelve_relations(self):
        assert len(tlc_schema()) == 12

    def test_285_attributes_total(self):
        """The paper: 'The benchmark ... has 12 relations with 285
        attributes in total.'"""
        assert tlc_schema().total_attributes() == 285

    def test_paper_relations_verbatim(self):
        schema = tlc_schema()
        call = schema.table("call")
        for attr in ("pnum", "recnum", "date", "region"):
            assert attr in call
        package = schema.table("package")
        for attr in ("pnum", "pid", "start", "end", "year"):
            assert attr in package
        business = schema.table("business")
        for attr in ("pnum", "type", "region"):
            assert attr in business

    def test_every_relation_has_a_key(self):
        for table in tlc_schema():
            assert table.keys, table.name

    def test_paper_constraint_bounds(self):
        schema = tlc_access_schema()
        assert schema.get("psi1").n == 500
        assert schema.get("psi2").n == 12
        assert schema.get("psi3").n == 2000

    def test_access_schema_validates(self):
        tlc_access_schema().validate_against(tlc_schema())


class TestGenerator:
    def test_determinism(self):
        a = generate_tlc(scale=1, seed=7)
        b = generate_tlc(scale=1, seed=7)
        for name in a.database.table_names:
            assert a.database.table(name).rows == b.database.table(name).rows

    def test_seed_changes_data(self):
        a = generate_tlc(scale=1, seed=7)
        b = generate_tlc(scale=1, seed=8)
        assert a.database.table("call").rows != b.database.table("call").rows

    def test_scale_grows_linearly(self):
        one = generate_tlc(scale=1)
        three = generate_tlc(scale=3)
        calls1 = len(one.database.table("call"))
        calls3 = len(three.database.table("call"))
        assert 2.5 < calls3 / calls1 < 3.5

    def test_conforms_to_access_schema(self, tlc_small):
        """The generated data must satisfy every bound of A0."""
        report = check_database(tlc_small.database, tlc_access_schema())
        assert report.conforms, [str(v) for v in report.violations[:3]]

    def test_conforms_at_larger_scale(self):
        ds = generate_tlc(scale=5, seed=99)
        report = check_database(ds.database, tlc_access_schema())
        assert report.conforms

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            generate_tlc(scale=0)

    def test_planted_entities_exist(self, tlc_small):
        db = tlc_small.database
        params = tlc_small.params
        businesses = {
            row[0]
            for row in db.table("business").rows
            if row[1] == params.t0 and row[2] == params.r0
        }
        assert params.p0 in businesses
        planted_calls = [
            row
            for row in db.table("call").rows
            if row[1] == params.p0 and row[3] == params.d0
        ]
        assert len(planted_calls) >= 12

    def test_customers_cover_all_pnums(self, tlc_small):
        db = tlc_small.database
        customers = {row[0] for row in db.table("customer").rows}
        package_pnums = {row[1] for row in db.table("package").rows}
        assert package_pnums <= customers


class TestBuiltInQueries:
    def test_eleven_queries(self, tlc_small):
        assert len(tlc_queries(tlc_small.params)) == 11

    def test_coverage_matches_expectation(self, tlc_beas, tlc_small):
        for query in tlc_queries(tlc_small.params):
            decision = tlc_beas.check(query.sql)
            assert decision.covered == query.covered, query.name

    def test_more_than_90_percent_covered(self, tlc_beas, tlc_small):
        """The paper's industry deployment: BEAS beats the DBMS on >90%
        of queries — here: 10 of 11 TLC queries are covered."""
        queries = tlc_queries(tlc_small.params)
        covered = sum(
            1 for q in queries if tlc_beas.check(q.sql).covered
        )
        assert covered / len(queries) > 0.9

    def test_constraints_used_match_metadata(self, tlc_beas, tlc_small):
        for query in tlc_queries(tlc_small.params):
            if not query.covered:
                continue
            decision = tlc_beas.check(query.sql)
            used = {c.name for c in decision.constraints_used}
            assert used == set(query.constraints), query.name

    def test_all_queries_nonempty(self, tlc_beas, tlc_small):
        """Planted data guarantees meaningful answers at every scale."""
        for query in tlc_queries(tlc_small.params):
            result = tlc_beas.session().run(query.sql)
            assert len(result.rows) > 0, query.name

    def test_bounded_answers_equal_host_answers(self, tlc_beas, tlc_small):
        host = tlc_beas.host_engine()
        for query in tlc_queries(tlc_small.params):
            mine = tlc_beas.session().run(query.sql)
            theirs = host.execute(query.sql)
            if mine.decision.bag_exact:
                assert Counter(mine.rows) == Counter(theirs.rows), query.name
            else:
                assert set(mine.rows) == set(theirs.rows), query.name

    def test_q1_is_the_paper_example(self, tlc_beas, tlc_small):
        decision = tlc_beas.check(query_by_name(tlc_small.params, "Q1").sql)
        assert decision.access_bound == 12_026_000
        assert [c.name for c in decision.constraints_used] == [
            "psi3", "psi2", "psi1",
        ]

    def test_q7_is_bag_exact(self, tlc_beas, tlc_small):
        decision = tlc_beas.check(query_by_name(tlc_small.params, "Q7").sql)
        assert decision.covered and decision.bag_exact

    def test_q11_takes_partial_route(self, tlc_beas, tlc_small):
        result = tlc_beas.session().run(query_by_name(tlc_small.params, "Q11").sql)
        assert result.mode is ExecutionMode.PARTIAL

    def test_query_by_name_unknown(self, tlc_small):
        with pytest.raises(KeyError):
            query_by_name(tlc_small.params, "Q99")

    def test_covered_queries_scan_nothing(self, tlc_beas, tlc_small):
        for query in tlc_queries(tlc_small.params):
            if not query.covered:
                continue
            result = tlc_beas.session().run(query.sql)
            assert result.metrics.tuples_scanned == 0, query.name
