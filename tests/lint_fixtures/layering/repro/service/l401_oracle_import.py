"""Fixture: L401 — an operator package (layer 5) importing the wire oracle (layer 7)."""

from repro.oracle.scan import wire_scan  # MARK


def answer(verfploeter, routing):
    """The wire walk, where only the columnar engine may run."""
    return wire_scan(verfploeter, routing)
