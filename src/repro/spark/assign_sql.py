"""DuckDB SQL generators for oracle-checking distributed assignments.

``repro.oracle.assert_equivalent`` re-runs a query on DuckDB and diffs
rows; these helpers build the SQL for nearest-centroid assignment and
cluster refinement over a ``points(id, x0..)`` table and a
``centroids(cid, x0..)`` table, with the same first-minimum tie-breaking
as ``np.argmin`` (ORDER BY distance, cid).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.spark.data import dim_cols

#: Absolute tolerance of :func:`validation_sql`, on squared distance.
VALIDATION_TOL = 1e-9

def centroids_pdf(C: np.ndarray) -> pd.DataFrame:
    """Centroids as a pandas table [cid, x0..] for oracle registration."""
    d = C.shape[1]
    pdf = pd.DataFrame(C, columns=dim_cols(d))
    pdf.insert(0, "cid", np.arange(len(C), dtype=np.int64))
    return pdf


def _sum(terms: list[str]) -> str:
    """``terms`` added as a balanced tree: DuckDB's binder recurses once per
    nesting level and gives up on a d-deep chain at d >= 128. The left
    half takes the odd term, so d <= 3 stays a plain chain."""
    if len(terms) == 1:
        return terms[0]
    h = (len(terms) + 1) // 2
    right = _sum(terms[h:])
    return f"{_sum(terms[:h])} + {right if len(terms) - h == 1 else f'({right})'}"


def _dist2(d: int, p: str = "p", c: str = "c") -> str:
    return _sum([f"({p}.x{i} - {c}.x{i}) * ({p}.x{i} - {c}.x{i})" for i in range(d)])


def assignment_sql(d: int) -> str:
    """SELECT id, cluster — nearest centroid per point (argmin semantics)."""
    return f"""
        SELECT p.id AS id,
               (SELECT c.cid FROM centroids c
                ORDER BY {_dist2(d)}, c.cid
                LIMIT 1) AS cluster
        FROM points p
    """


def validation_sql(d: int) -> str:
    """SELECT id, ok — DuckDB independently checks Spark's labels.

    Takes the Spark-produced ``labels(id, cluster)`` as an *input* table
    and verifies each assigned centroid attains the minimum distance over
    ``centroids`` within ``VALIDATION_TOL``. Exact argmin-id comparison is
    float-form sensitive on near-equidistant boundary points (NumPy's
    expanded x^2+c^2-2xc vs the subtractive form), so correctness is
    asserted on the *distance optimality* of the label, which is the
    actual contract.
    """
    return f"""
        SELECT p.id AS id,
               CAST(
                 (SELECT {_dist2(d, "p", "c")} FROM centroids c
                  WHERE c.cid = l.cluster)
                 <= (SELECT MIN({_dist2(d, "p", "c")}) FROM centroids c) + {VALIDATION_TOL}
                 AS INT) AS ok
        FROM points p JOIN labels l USING (id)
    """


def refine_sql(d: int) -> str:
    """SELECT cluster, cnt, s_x0.. — Catalyst groupBy.agg equivalent."""
    sums = ", ".join(f"SUM(a.x{i}) AS s_x{i}" for i in range(d))
    return f"""
        WITH a AS (
            SELECT p.*, (SELECT c.cid FROM centroids c
                         ORDER BY {_dist2(d)}, c.cid
                         LIMIT 1) AS cluster
            FROM points p
        )
        SELECT a.cluster AS cluster, COUNT(*) AS cnt, {sums}
        FROM a GROUP BY a.cluster
    """
