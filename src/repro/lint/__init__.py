"""reprolint: determinism & invariant static analysis for this repository.

The reproduction's claims rest on bit-identical reruns, machine-checked
here rather than promised in docstrings.  Five rule families:

* **determinism hygiene** (``D1xx``) — no global ``random`` state, no
  wall-clock reads, no ``hash()``-derived values, no set-iteration-order
  leaks in library code;
* **seed-stream uniqueness** (``S2xx``) — every ``derive_seed`` /
  ``derive_rng`` label in the library names a distinct stream;
* **exception discipline** (``E3xx``) — library code raises only the
  :mod:`repro.errors` hierarchy;
* **import layering** (``L4xx``) — packages respect the declared layer
  DAG (see :mod:`repro.lint.layers`);
* **pool-worker reach** (``W5xx``) — code a process-pool target reaches
  in its own file neither mutates module globals nor grows float
  accumulators in loops (see :mod:`repro.lint.rules.pools`).

Run it with ``python -m repro.lint`` or the ``reprolint`` console
script.  Suppress a finding in place with ``# reprolint:
disable=<rule>`` on the offending line.  Results are cached
incrementally under ``.reprolint_cache/``; a cached replay is
byte-identical to a fresh run.  New rules are added as one module
under :mod:`repro.lint.rules` (see CONTRIBUTING.md).
"""

from repro.lint.engine import LintResult, lint_paths
from repro.lint.violations import Violation, all_rules, register_rule

__all__ = [
    "LintResult",
    "Violation",
    "all_rules",
    "lint_paths",
    "register_rule",
]
