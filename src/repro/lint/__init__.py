"""reprolint: determinism & invariant static analysis for this repository.

The reproduction's claims rest on bit-identical reruns, machine-checked
here rather than promised in docstrings.  Four rule families:

* **determinism hygiene** (``D1xx``) — no global ``random`` state, no
  wall-clock reads or OS entropy in library code, no shared mutable
  defaults, one process-pool home;
* **seed-stream uniqueness** (``S2xx``) — every ``derive_seed`` /
  ``derive_rng`` label in the library names a distinct stream;
* **exception discipline** (``E3xx``) — library code raises only the
  :mod:`repro.errors` hierarchy;
* **import layering** (``L4xx``) — packages respect the declared layer
  DAG (see :mod:`repro.lint.layers`).

What a static rule can only guess at — ``PYTHONHASHSEED`` order, state
a pool worker mutates, floats summed per shard — is checked by running
instead: ``tools/determinism.py`` compares every subcommand's bytes
across hash seeds and against its in-process form.

Run it with ``python -m repro.lint`` or the ``reprolint`` console
script.  Suppress a finding in place with ``# reprolint:
disable=<rule>`` on the offending line.  Results are cached
incrementally under ``.reprolint_cache/``; a cached replay is
byte-identical to a fresh run.  New rules are added as one module
under :mod:`repro.lint.rules` (see CONTRIBUTING.md).
"""

from repro.lazy import lazy_exports

__all__ = [
    "LintResult",
    "Violation",
    "all_rules",
    "lint_paths",
    "register_rule",
]

_EXPORTS = {
    "LintResult": "repro.lint.engine",
    "Violation": "repro.lint.violations",
    "all_rules": "repro.lint.violations",
    "lint_paths": "repro.lint.engine",
    "register_rule": "repro.lint.violations",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
