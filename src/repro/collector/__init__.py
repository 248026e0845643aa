"""Response collection: cleaning thresholds, streaming cleaning, results.

The paper runs three collection systems (§3.1) and cleans their merged
replies (§4).  The capture systems and the per-reply batch cleaner are
the wire oracle's (:mod:`repro.oracle`); this package keeps what the
operator paths run: the cleaning configuration and result, the columnar
reply stream with its streaming cleaner, and the scan result types.
"""
