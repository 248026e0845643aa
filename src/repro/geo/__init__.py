"""Geolocation substrate.

Provides the world model used to place ASes and /24 blocks (continents,
countries with Internet-user weights and bounding boxes), a MaxMind-like
block-level geolocation database, great-circle distance, and the
two-degree geographic grid used by the paper's coverage maps
(Figures 2-4).
"""
