"""Registry of all k-means implementations in the paper's comparison.

Keys follow the paper's Table IV column names. Every entry is a callable
``(X, init_centroids, max_iter) -> KMeansResult`` (extra knobs preset to
the paper's defaults: f=30 for Dask-means and its ablations, f=4 for
Dual-tree, b=k/4 for Drake, G=k/10 for Yinyang).
"""
from __future__ import annotations

from repro.baselines import dualtree, drake, elkan, hamerly, lloyd, nobound, yinyang
from repro.core import daskmeans

ALGORITHMS = {
    "Lloyd": lloyd.fit,
    "NoBound": nobound.fit,
    "Dual-tree": dualtree.fit,
    "Hamerly": hamerly.fit,
    "Drake": drake.fit,
    "Yinyang": yinyang.fit,
    "Elkan": elkan.fit,
    "NoInB": daskmeans.fit_no_inb,
    "NokNN": daskmeans.fit_nok_nn,
    "Dask-means": daskmeans.fit,
}

#: Table IV column order.
TABLE4_ORDER = list(ALGORITHMS)
