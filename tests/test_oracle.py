"""Oracle self-tests: it must accept equivalent results and reject wrong ones."""
import pandas as pd
import pyspark.sql.functions as Fn
import pytest

from repro import datasets
from repro.oracle import assert_equivalent
from repro.spark import data as sdata

# Points per unit-wide x0 bucket; floor (not truncation) puts the
# negative coordinates of tdrive in their own buckets.
BUCKET_SQL = "SELECT CAST(floor(x0) AS BIGINT) AS b, COUNT(*) AS cnt FROM pts GROUP BY b"


@pytest.fixture(scope="module")
def pts(spark):
    return sdata.to_spark(spark, datasets.make("tdrive", 500, seed=0), n_partitions=3)


def _bucket_counts(pts):
    return pts.groupBy(Fn.floor("x0").alias("b")).count()


def test_oracle_accepts_matching_aggregate(pts):
    got = _bucket_counts(pts).withColumnRenamed("count", "cnt")
    assert_equivalent(got, BUCKET_SQL, pts=pts)


def test_oracle_rejects_wrong_rows(pts):
    wrong = _bucket_counts(pts).selectExpr("b", "count + 1 AS cnt")
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, BUCKET_SQL, pts=pts)


def test_oracle_rejects_column_mismatch(pts):
    got = _bucket_counts(pts)  # spark names it "count"
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(got, BUCKET_SQL, pts=pts)


def test_oracle_accepts_pandas_tables(spark):
    pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
    got = spark.createDataFrame(pdf).groupBy("k").sum("v").withColumnRenamed("sum(v)", "s")
    assert_equivalent(got, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)
