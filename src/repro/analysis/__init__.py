"""Analysis: one module per paper table/figure.

Each module turns raw measurement objects into the structured rows the
paper reports, plus a text rendering.  The benchmark harness prints
these tables; EXPERIMENTS.md records them against the paper's values.
"""
