"""Index-served results agree with a USE KEYS oracle on keys that an
ad-hoc encoding gets wrong.

Every query runs twice: once through the index (IndexScan or
IndexAggregateScan, asserted via EXPLAIN) and once over the same
documents through ``USE KEYS``, which evaluates the WHERE clause on the
fetched documents themselves.  Both index storages are covered.
"""

import pytest

from repro import Cluster

STORAGES = pytest.mark.parametrize(
    "with_clause", ["", ' WITH {"memory_optimized": true}'],
    ids=["standard", "memopt"],
)


def make_cluster(docs: dict, index_ddl: str) -> Cluster:
    cluster = Cluster(nodes=3, vbuckets=16)
    cluster.create_bucket("b")
    client = cluster.connect()
    for key, value in docs.items():
        client.upsert("b", key, value)
    cluster.run_until_idle()
    cluster.query(index_ddl)
    return cluster


def first_operator(cluster: Cluster, query: str) -> str:
    plan = cluster.query("EXPLAIN " + query).rows[0]
    return plan["~children"][0]["#operator"]


def index_and_oracle(cluster: Cluster, docs: dict, select: str,
                     where: str) -> tuple[list, list]:
    """Rows of ``select ... FROM b x WHERE where`` through the index and
    through USE KEYS over every document, each sorted by ``id``."""
    keys = ", ".join(f'"{key}"' for key in sorted(docs))
    indexed = cluster.query(f"{select} FROM b x WHERE {where}",
                            scan_consistency="request_plus").rows
    oracle = cluster.query(f"{select} FROM b x USE KEYS [{keys}] "
                           f"WHERE {where}").rows
    return sorted(indexed, key=_by_id), sorted(oracle, key=_by_id)


def _by_id(row: dict) -> str:
    return str(row.get("id"))


class TestLikePrefixSpan:
    DOCS = {"d1": {"s": "ab\U0001F600"}, "d2": {"s": "abc"},
            "d3": {"s": "ac"}, "d4": {"s": "aa"}}

    @STORAGES
    def test_non_bmp_suffix_is_in_the_span(self, with_clause):
        cluster = make_cluster(
            self.DOCS, "CREATE INDEX by_s ON b(s) USING GSI" + with_clause)
        select = "SELECT META(x).id AS id, x.s"
        assert first_operator(
            cluster, select + ' FROM b x WHERE x.s LIKE "ab%"') == "IndexScan"
        indexed, oracle = index_and_oracle(cluster, self.DOCS, select,
                                           'x.s LIKE "ab%"')
        assert [row["id"] for row in oracle] == ["d1", "d2"]
        assert indexed == oracle

    @STORAGES
    def test_prefix_ending_in_the_last_code_point(self, with_clause):
        top = chr(0x10FFFF)
        docs = {"d1": {"s": "a" + top}, "d2": {"s": "a" + top + "z"},
                "d3": {"s": "b"}}
        cluster = make_cluster(
            docs, "CREATE INDEX by_s ON b(s) USING GSI" + with_clause)
        indexed, oracle = index_and_oracle(
            cluster, docs, "SELECT META(x).id AS id",
            f'x.s LIKE "a{top}%"')
        assert [row["id"] for row in oracle] == ["d1", "d2"]
        assert indexed == oracle


class TestMissingLookalikeKey:
    """A stored object that looks like an encoding of MISSING is an
    object: it sorts after every number, never before null."""

    DOCS = {"d1": {"v": {"__missing__": True}, "w": 1},
            "d2": {"v": 7, "w": 2}, "d3": {"v": 3, "w": 3}}

    @STORAGES
    @pytest.mark.parametrize("select", [
        "SELECT META(x).id AS id, x.v",
        "SELECT META(x).id AS id, x.v, x.w",
    ], ids=["covered", "fetch"])
    def test_index_matches_use_keys(self, with_clause, select):
        cluster = make_cluster(
            self.DOCS, "CREATE INDEX by_v ON b(v) USING GSI" + with_clause)
        assert first_operator(
            cluster, select + " FROM b x WHERE x.v > 5") == "IndexScan"
        indexed, oracle = index_and_oracle(cluster, self.DOCS, select,
                                           "x.v > 5")
        assert [row["id"] for row in oracle] == ["d1", "d2"]
        assert indexed == oracle


class TestCompositePrefixBound:
    """An inclusive prefix bound on a composite index covers every
    trailing key, including objects with non-BMP names."""

    DOCS = {"d1": {"a": 1, "b": {"\U0001F600": 1}}, "d2": {"a": 1, "b": 2},
            "d3": {"a": 0, "b": [1]}, "d4": {"a": 2, "b": 1}}
    WHERES = pytest.mark.parametrize("where", ["x.a = 1", "x.a <= 1"],
                                     ids=["eq", "le"])

    @STORAGES
    @WHERES
    def test_index_scan_matches_use_keys(self, with_clause, where):
        cluster = make_cluster(
            self.DOCS, "CREATE INDEX by_ab ON b(a, b) USING GSI" + with_clause)
        select = "SELECT META(x).id AS id, x.a, x.b"
        assert first_operator(
            cluster, f"{select} FROM b x WHERE {where}") == "IndexScan"
        indexed, oracle = index_and_oracle(cluster, self.DOCS, select, where)
        assert "d1" in [row["id"] for row in oracle]
        assert indexed == oracle

    @STORAGES
    @WHERES
    def test_count_matches_use_keys(self, with_clause, where):
        cluster = make_cluster(
            self.DOCS, "CREATE INDEX by_ab ON b(a, b) USING GSI" + with_clause)
        select = "SELECT COUNT(*) AS n"
        assert first_operator(
            cluster, f"{select} FROM b x WHERE {where}") == "IndexAggregateScan"
        indexed, oracle = index_and_oracle(cluster, self.DOCS, select, where)
        assert oracle[0]["n"] == (2 if where == "x.a = 1" else 3)
        assert indexed == oracle
