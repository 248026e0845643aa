"""The Verfploeter prober's inputs: the hitlist and the prober parameters.

The scalar probe walk (Feistel order, per-round schedule) is the wire
oracle's (:mod:`repro.oracle.schedule`); the engine reads the same
order seed (:func:`~repro.probing.prober.round_order_seed`).
"""
