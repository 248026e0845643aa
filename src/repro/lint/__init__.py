"""reprolint: determinism & invariant static analysis for this repository.

The reproduction's claims rest on bit-identical reruns, machine-checked
here rather than promised in docstrings.  Three rule families:

* **determinism hygiene** (``D1xx``) — no global ``random`` state, no
  wall-clock reads or OS entropy in library code, no shared mutable
  defaults, one process-pool home;
* **exception discipline** (``E3xx``) — library code raises only the
  :mod:`repro.errors` hierarchy;
* **import layering** (``L4xx``) — packages respect the declared layer
  DAG (see :mod:`repro.lint.layers`).

What a static rule can only guess at — ``PYTHONHASHSEED`` order, state
a pool worker mutates, floats summed per shard, unpicklable pool
targets, two call sites deriving one seed stream — is checked by
running instead: ``tools/determinism.py`` compares every subcommand's
bytes across hash seeds and against its in-process form, the pooled
tests start real worker processes and compare their results bit for
bit, and the test session's ``derive_seed`` recorder fails on one
``(seed, label)`` derived at two library call sites.

Run it with ``python -m repro.lint`` or the ``reprolint`` console
script.  Suppress a finding in place with ``# reprolint:
disable=<rule>`` on the offending line.  Each file is parsed and
walked once, and every rule reads that one node list; nothing is cached
between runs.  New rules are added as one module under
:mod:`repro.lint.rules` (see CONTRIBUTING.md).
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    "LintResult": "repro.lint.engine",
    "Violation": "repro.lint.violations",
    "all_rules": "repro.lint.violations",
    "lint_paths": "repro.lint.engine",
    "register_rule": "repro.lint.violations",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
