"""Load estimation and calibrated catchment predictions (paper §3.2, §5.4-5.5)."""
