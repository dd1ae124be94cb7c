"""Exact Lloyd-acceleration baselines the paper compares against.

Every module exposes ``fit(X, init_centroids, max_iter=20)`` returning a
:class:`repro.core.result.KMeansResult`; all are exact (same clustering as
Lloyd from the same init), differing only in how much work (distance
computations, memory) they spend to get there. Each accelerated baseline
is its input checks, its bound arrays and one ``assign(C, drift)`` hook
run by the shared loop :func:`repro.core.result.iterate`; Lloyd keeps its
own plain loop, as the reference the others are checked against.
"""
