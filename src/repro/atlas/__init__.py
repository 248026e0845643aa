"""RIPE Atlas platform simulation.

Models the measurement platform the paper compares against: ~10k
physical vantage points whose deployment is heavily skewed toward
Europe (well documented in [8] and visible in the paper's Figure 2a),
querying the anycast service with CHAOS TXT ``hostname.bind`` to learn
their serving site.  What matters here is where the VPs are and whether
they answer, so a measurement is one downtime draw and one catchment
read over every VP (:meth:`AtlasPlatform.measure`); the DNS wire round
trip of each query is the oracle's (:mod:`repro.oracle.chaos`).
"""
