"""Extended N1QL behaviour tests: LET, CASE, collection predicates in
WHERE, LIKE sargability, BETWEEN, string/number functions in queries,
positional parameters, RETURNING shapes, and planner details."""

import pytest

from repro import Cluster
from repro.common.errors import N1qlRuntimeError, N1qlSemanticError


@pytest.fixture(scope="class")
def cluster():
    cluster = Cluster(nodes=2, vbuckets=16)
    cluster.create_bucket("store", replicas=0)
    client = cluster.connect()
    for i in range(30):
        client.upsert("store", f"item::{i:03d}", {
            "name": f"Item {i:03d}",
            "price": float(i),
            "qty": i % 7,
            "tags": [f"t{i % 3}"] + (["sale"] if i % 5 == 0 else []),
            "maker": {"country": ["US", "DE", "JP"][i % 3]},
        })
    cluster.run_until_idle()
    cluster.query("CREATE PRIMARY INDEX ON store USING GSI")
    return cluster


RP = {"scan_consistency": "request_plus"}


class TestLetAndCase:
    def test_let_binding_in_where_and_projection(self, cluster):
        rows = cluster.query(
            "SELECT s.name, total FROM store s "
            "LET total = s.price * s.qty "
            "WHERE total > 100 ORDER BY total DESC LIMIT 3", **RP).rows
        assert len(rows) == 3
        assert rows[0]["total"] >= rows[1]["total"] >= rows[2]["total"]

    def test_case_in_projection(self, cluster):
        rows = cluster.query(
            "SELECT s.name, CASE WHEN s.price > 20 THEN 'premium' "
            "WHEN s.price > 10 THEN 'mid' ELSE 'budget' END AS tier "
            "FROM store s WHERE s.price = 25", **RP).rows
        assert rows[0]["tier"] == "premium"

    def test_case_with_group(self, cluster):
        rows = cluster.query(
            "SELECT CASE WHEN s.price >= 15 THEN 'high' ELSE 'low' END "
            "AS band, COUNT(*) AS n FROM store s GROUP BY "
            "CASE WHEN s.price >= 15 THEN 'high' ELSE 'low' END "
            "ORDER BY band", **RP).rows
        assert rows == [{"band": "high", "n": 15}, {"band": "low", "n": 15}]


class TestCollectionPredicatesInQueries:
    def test_any_satisfies_filter(self, cluster):
        rows = cluster.query(
            "SELECT meta(s).id AS id FROM store s "
            "WHERE ANY t IN s.tags SATISFIES t = 'sale' END", **RP).rows
        assert len(rows) == 6  # i % 5 == 0 for 30 items

    def test_every_satisfies_filter(self, cluster):
        rows = cluster.query(
            "SELECT meta(s).id AS id FROM store s "
            "WHERE EVERY t IN s.tags SATISFIES t != 'sale' END", **RP).rows
        assert len(rows) == 24

    def test_array_contains_function(self, cluster):
        rows = cluster.query(
            "SELECT COUNT(*) AS n FROM store s "
            "WHERE ARRAY_CONTAINS(s.tags, 't1')", **RP).rows
        assert rows[0]["n"] == 10


class TestSargability:
    def test_like_prefix_becomes_index_span(self, cluster):
        cluster.query("CREATE INDEX by_name ON store(name) USING GSI")
        explain = cluster.query(
            "EXPLAIN SELECT s.name FROM store s WHERE s.name LIKE 'Item 00%'")
        scan = explain.rows[0]["~children"][0]
        assert scan["#operator"] == "IndexScan"
        assert scan["index"] == "by_name"
        assert scan["span"]["low"] == ['"Item 00"']
        rows = cluster.query(
            "SELECT s.name FROM store s WHERE s.name LIKE 'Item 00%'",
            **RP).rows
        assert len(rows) == 10

    def test_between_becomes_index_span(self, cluster):
        cluster.query("CREATE INDEX by_price ON store(price) USING GSI")
        explain = cluster.query(
            "EXPLAIN SELECT s.price FROM store s "
            "WHERE s.price BETWEEN 5 AND 8")
        scan = explain.rows[0]["~children"][0]
        assert scan["index"] == "by_price"
        rows = cluster.query(
            "SELECT s.price FROM store s WHERE s.price BETWEEN 5 AND 8",
            **RP).rows
        assert {r["price"] for r in rows} == {5.0, 6.0, 7.0, 8.0}

    def test_non_sargable_operator_falls_back(self, cluster):
        explain = cluster.query(
            "EXPLAIN SELECT s.qty FROM store s WHERE s.qty != 3")
        assert explain.rows[0]["~children"][0]["#operator"] == "PrimaryScan"

    def test_dotted_path_index(self, cluster):
        cluster.query("CREATE INDEX by_country ON store(maker.country)")
        rows = cluster.query(
            "SELECT meta(s).id AS id FROM store s "
            "WHERE s.maker.country = 'DE'", **RP).rows
        assert len(rows) == 10
        explain = cluster.query(
            "EXPLAIN SELECT meta(s).id FROM store s "
            "WHERE s.maker.country = 'DE'")
        assert explain.rows[0]["~children"][0]["index"] == "by_country"


class TestFunctionsInQueries:
    def test_string_functions(self, cluster):
        rows = cluster.query(
            "SELECT UPPER(s.name) AS loud FROM store s "
            "WHERE LOWER(s.name) = 'item 003'", **RP).rows
        assert rows == [{"loud": "ITEM 003"}]

    def test_numeric_functions(self, cluster):
        rows = cluster.query(
            "SELECT ROUND(AVG(s.price), 2) AS mean_price, "
            "GREATEST(MIN(s.qty), 1) AS floor_qty FROM store s", **RP).rows
        assert rows[0]["mean_price"] == 14.5
        assert rows[0]["floor_qty"] == 1

    def test_array_agg(self, cluster):
        rows = cluster.query(
            "SELECT s.qty, ARRAY_AGG(s.price) AS prices FROM store s "
            "WHERE s.qty = 6 GROUP BY s.qty", **RP).rows
        assert sorted(rows[0]["prices"]) == [6.0, 13.0, 20.0, 27.0]

    def test_ifmissing_in_projection(self, cluster):
        rows = cluster.query(
            "SELECT IFMISSING(s.discount, 0) AS discount FROM store s "
            "LIMIT 1", **RP).rows
        assert rows == [{"discount": 0}]


class TestParameters:
    def test_positional_question_marks(self, cluster):
        rows = cluster.query(
            "SELECT s.name FROM store s WHERE s.price = ? OR s.price = ?",
            params=[3, 4], **RP).rows
        assert len(rows) == 2

    def test_named_parameters(self, cluster):
        rows = cluster.query(
            "SELECT s.name FROM store s WHERE s.price >= $lo AND s.price <= $hi",
            params={"lo": 1, "hi": 2}, **RP).rows
        assert len(rows) == 2

    def test_param_in_limit(self, cluster):
        rows = cluster.query(
            "SELECT s.name FROM store s LIMIT $1", params=[4], **RP).rows
        assert len(rows) == 4


class TestReturningShapes:
    def test_update_returning_expression(self, cluster):
        cluster2 = Cluster(nodes=1, vbuckets=8)
        cluster2.create_bucket("t", replicas=0)
        client = cluster2.connect()
        client.upsert("t", "a", {"n": 10})
        result = cluster2.query(
            'UPDATE t USE KEYS "a" SET t.n = t.n + 1 RETURNING t.n * 2 AS twice')
        assert result.rows == [{"twice": 22}]

    def test_insert_returning_meta(self, cluster):
        cluster2 = Cluster(nodes=1, vbuckets=8)
        cluster2.create_bucket("t", replicas=0)
        result = cluster2.query(
            'INSERT INTO t (KEY, VALUE) VALUES ("x1", {"v": 1}) '
            "RETURNING meta(t).id AS id")
        assert result.rows == [{"id": "x1"}]


class TestErrorCases:
    def test_general_join_is_semantic_error_path(self, cluster):
        from repro.common.errors import N1qlSyntaxError
        with pytest.raises(N1qlSyntaxError):
            cluster.query("SELECT * FROM store a JOIN store b ON a.x = b.y")

    def test_aggregate_in_where_rejected(self, cluster):
        with pytest.raises(N1qlSemanticError):
            cluster.query("SELECT s.name FROM store s WHERE COUNT(*) > 1",
                          **RP)

    def test_meta_of_unknown_alias(self, cluster):
        with pytest.raises(N1qlSemanticError):
            cluster.query("SELECT meta(zz).id FROM store s LIMIT 1", **RP)

    @pytest.mark.parametrize("clause, params, message", [
        ("LIMIT true", None, "LIMIT requires a number"),
        ("OFFSET true", None, "OFFSET requires a number"),
        ("LIMIT $1", [True], "LIMIT requires a number"),
        ("OFFSET $1", [False], "OFFSET requires a number"),
    ])
    def test_boolean_limit_offset_rejected(self, cluster, clause, params,
                                           message):
        """JSON booleans are not numbers, although Python's bool is an
        int: LIMIT true must not return one row, OFFSET true must not
        skip one."""
        text = ('SELECT s.price FROM store s '
                'USE KEYS ["item::000", "item::001", "item::002"] ' + clause)
        with pytest.raises(N1qlRuntimeError, match=message):
            cluster.query(text, params=params, **RP)
