"""Deeper TLC generator invariants: headroom under every bound, planted
chain integrity, and query-metadata hygiene."""

from repro.access.constraint import AccessConstraint
from repro.access.index import AccessIndex
from repro.workloads.tlc import (
    BUSINESS_TYPES,
    REGIONS,
    tlc_access_schema,
    tlc_queries,
)


class TestBoundHeadroom:
    """The generator must stay comfortably below every declared N, so that
    scaled-up instances (the Fig. 4 sweep generates up to scale 200) keep
    conforming — load per bucket is scale-independent by construction."""

    def test_every_constraint_has_headroom(self, tlc_small):
        db = tlc_small.database
        for constraint in tlc_access_schema():
            table = db.table(constraint.relation)
            observed = AccessIndex(constraint, table).max_bucket_size
            # psi8 (N=1, one customer row per pnum) is tight by design
            assert observed <= max(constraint.n * 0.5, 1), (
                f"{constraint.name}: observed {observed} too close to "
                f"N={constraint.n}"
            )

    def test_customer_is_exactly_keyed(self, tlc_small):
        segment = AccessConstraint("customer", ["pnum"], ["segment"], 1, name="segment")
        index = AccessIndex(segment, tlc_small.database.table("customer"))
        assert index.max_bucket_size == 1  # psi8's N=1 is tight by construction


class TestPlantedChain:
    def test_planted_businesses_have_the_q1_package(self, tlc_small):
        db = tlc_small.database
        params = tlc_small.params
        planted = [
            row[0]
            for row in db.table("business").rows
            if row[1] == params.t0 and row[2] == params.r0
        ][:5]
        package_rows = db.table("package").rows
        for pnum in planted:
            spanning = [
                row
                for row in package_rows
                if row[1] == pnum
                and row[2] == params.c0
                and row[3] <= params.d0 <= row[4]
                and row[5] == params.year
            ]
            assert spanning, f"planted {pnum} lacks the c0 package"

    def test_x0_receives_calls_on_d0(self, tlc_small):
        db = tlc_small.database
        params = tlc_small.params
        callers = {
            row[1]
            for row in db.table("call").rows
            if row[2] == params.x0 and row[3] == params.d0
        }
        assert len(callers) >= 5

    def test_planted_rows_per_fact_table(self, tlc_small):
        db = tlc_small.database
        params = tlc_small.params
        sms = [
            row for row in db.table("sms").rows
            if row[1] == params.p0 and row[3] == params.d0
        ]
        assert len(sms) >= 3
        usage = [
            row for row in db.table("data_usage").rows
            if row[1] == params.p0 and row[3] == params.m0
        ]
        assert len(usage) >= 3
        complaints = [
            row for row in db.table("complaint").rows if row[1] == params.p0
        ]
        assert len(complaints) >= 2


class TestValuePools:
    def test_regions_and_types_within_pools(self, tlc_small):
        db = tlc_small.database
        call_regions = {row[4] for row in db.table("call").rows}
        assert call_regions <= set(REGIONS)
        business_types = {row[1] for row in db.table("business").rows}
        assert business_types <= set(BUSINESS_TYPES)

    def test_dates_within_generator_window(self, tlc_small):
        dates = {row[3] for row in tlc_small.database.table("call").rows}
        assert all("2016-05-01" <= d <= "2016-06-29" for d in dates)
        assert tlc_small.params.d0 in dates

    def test_ids_unique_per_fact_table(self, tlc_small):
        db = tlc_small.database
        for table_name, position in (
            ("call", 0), ("sms", 0), ("data_usage", 0),
            ("package", 0), ("bill", 0), ("complaint", 0),
        ):
            ids = [row[position] for row in db.table(table_name).rows]
            assert len(ids) == len(set(ids)), table_name


class TestQueryMetadata:
    def test_names_unique_and_ordered(self, tlc_small):
        queries = tlc_queries(tlc_small.params)
        names = [q.name for q in queries]
        assert names == [f"Q{i}" for i in range(1, 12)]

    def test_descriptions_nonempty(self, tlc_small):
        for query in tlc_queries(tlc_small.params):
            assert query.description.strip()

    def test_sql_parses(self, tlc_small):
        from repro.sql.parser import parse

        for query in tlc_queries(tlc_small.params):
            parse(query.sql)

    def test_constants_embedded(self, tlc_small):
        params = tlc_small.params
        q1 = tlc_queries(params)[0].sql
        for constant in (params.t0, params.r0, params.d0, params.c0):
            assert str(constant) in q1
