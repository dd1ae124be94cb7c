"""The input contract of every algorithm: bad inputs raise ValueError up front."""
import numpy as np
import pytest
from py4j.protocol import Py4JJavaError
from pyspark.errors import PythonException

from repro import datasets
from repro.algorithms import ALGORITHMS
from repro.core import balltree as bt
from repro.core import daskmeans, init as cinit
from repro.spark import data as sdata, daskmeans_spark, lloyd_spark


@pytest.fixture(scope="module")
def data():
    X = datasets.make("tdrive", 300, seed=0)
    return X, cinit.random_init(X, 8, seed=1)


def test_nan_in_x_rejected(data):
    X, C0 = data
    X = X.copy()
    X[17, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        daskmeans.fit(X, C0, 3)


def test_x_not_2d_rejected(data):
    X, C0 = data
    with pytest.raises(ValueError, match="2-D"):
        daskmeans.fit(X[:, 0], C0, 3)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_init_rejected(data, bad):
    X, C0 = data
    C0 = C0.copy()
    C0[3, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        daskmeans.fit(X, C0, 3)


@pytest.mark.parametrize("shape", [(8, 3), (8, 1), (0, 2), (16,)])
def test_init_of_wrong_shape_rejected(data, shape):
    X, _ = data
    with pytest.raises(ValueError, match="init_centroids"):
        daskmeans.fit(X, np.zeros(shape), 3)


@pytest.mark.parametrize("algo", [a for a in ALGORITHMS if a != "Dask-means"])
@pytest.mark.parametrize("case", ["nan_x", "1d_x", "inf_init", "init_of_other_d"])
def test_every_algorithm_shares_the_contract(data, algo, case):
    X, C0 = data
    if case == "nan_x":
        X = X.copy()
        X[17, 1] = np.nan
    elif case == "1d_x":
        X = X[:, 0]
    elif case == "inf_init":
        C0 = C0.copy()
        C0[3, 0] = np.inf
    else:
        C0 = np.zeros((8, 3))
    with pytest.raises(ValueError, match="finite|2-D|init_centroids"):
        ALGORITHMS[algo](X, C0, 3)


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_empty_input(algo):
    """No point: every algorithm keeps its initial centroids and ends as
    Lloyd does, after one pass in which no label changed."""
    X, C0 = np.empty((0, 2)), np.array([[0.0, 0.0], [1.0, 1.0]])
    ref = ALGORITHMS["Lloyd"](X, C0, 5)
    res = ALGORITHMS[algo](X, C0, 5)
    np.testing.assert_array_equal(res.centroids, C0)
    assert res.labels.shape == (0,)
    assert (res.n_iter, res.converged) == (ref.n_iter, ref.converged)


def test_prebuilt_tree_with_other_f_rejected(data):
    X, C0 = data
    tree = bt.build(X, 16)
    with pytest.raises(ValueError, match="prebuilt tree"):
        daskmeans.fit(X, C0, 3, f=30, tree=tree)


def test_prebuilt_tree_over_other_points_rejected(data):
    X, C0 = data
    # Fewer points, and as many other points of the same shape.
    for other in (X[:200], datasets.make("tdrive", len(X), seed=7)):
        tree = bt.build(other, 30)
        with pytest.raises(ValueError, match="prebuilt tree"):
            daskmeans.fit(X, C0, 3, f=30, tree=tree)


SPARK_FITS = pytest.mark.parametrize(
    "spark_fit", [daskmeans_spark.fit, lloyd_spark.fit], ids=["daskmeans_spark", "lloyd_spark"]
)


@SPARK_FITS
@pytest.mark.parametrize("shape", [(6, 2), (8, 3)])
def test_spark_init_of_wrong_shape_rejected(spark, data, shape, spark_fit):
    """k = 8 and d = 2 are the fit's arguments; the init must match both."""
    X, _ = data
    df = sdata.to_spark(spark, X, n_partitions=2)
    with pytest.raises(ValueError, match="init_centroids"):
        spark_fit(spark, df, 8, d=2, max_iter=2, init_centroids=np.zeros(shape))


@SPARK_FITS
def test_spark_empty_input(spark, data, spark_fit):
    """A filter that leaves no row: no partition holds state, the initial
    centroids stay and no label is written."""
    X, _ = data
    df = sdata.to_spark(spark, X, n_partitions=2).where("id < 0")
    C0 = np.array([[0.0, 0.0], [1.0, 1.0]])
    res = spark_fit(spark, df, 2, d=2, max_iter=5, init_centroids=C0)
    np.testing.assert_array_equal(res.centroids, C0)
    assert res.labels_df.count() == 0


@SPARK_FITS
def test_spark_nan_init_rejected(spark, data, spark_fit):
    X, C0 = data
    C0 = C0.copy()
    C0[3, 0] = np.nan
    df = sdata.to_spark(spark, X, n_partitions=2)
    with pytest.raises(ValueError, match="init_centroids must be finite"):
        spark_fit(spark, df, 8, d=2, max_iter=2, init_centroids=C0)


@SPARK_FITS
def test_spark_non_finite_row_rejected(spark, data, spark_fit):
    """Executors check each partition's rows as they build its tree
    (Dask-means) or each Arrow batch (Lloyd); both are DataFrame paths, and
    the ValueError reaches the driver inside the failed job's error: a
    Python one, or a Java one where the job runs through ``DataFrame.rdd``
    (Dask-means collects its per-partition stats that way)."""
    X, C0 = data
    X = X.copy()
    X[42, 0] = np.nan
    df = sdata.to_spark(spark, X, n_partitions=2)
    with pytest.raises((Py4JJavaError, PythonException), match="ValueError: X must be a finite"):
        spark_fit(spark, df, 8, d=2, max_iter=2, init_centroids=C0)


@SPARK_FITS
def test_failed_spark_fit_releases_its_state(spark, data, spark_fit):
    """A fit whose job raises leaves no persisted state behind and leaves
    the caller's DataFrame uncached, as it found it."""
    X, C0 = data
    X = X.copy()
    X[42, 0] = np.nan
    df = sdata.to_spark(spark, X, n_partitions=2)
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before, level = persistent().size(), df.storageLevel
    with pytest.raises((Py4JJavaError, PythonException), match="X must be a finite"):
        spark_fit(spark, df, 8, d=2, max_iter=2, init_centroids=C0)
    assert persistent().size() == before
    assert df.storageLevel == level
