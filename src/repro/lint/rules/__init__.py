"""Built-in reprolint rules.

Importing this package registers every built-in rule.  A new rule is
one module here: define a class satisfying the
:class:`~repro.lint.violations.Rule` protocol, decorate it with
:func:`~repro.lint.violations.register_rule`, and import the module
below.
"""

from repro.lint.rules import determinism  # noqa: F401
from repro.lint.rules import docstrings  # noqa: F401
from repro.lint.rules import exceptions  # noqa: F401
from repro.lint.rules import interproc  # noqa: F401
from repro.lint.rules import layering  # noqa: F401
from repro.lint.rules import pools  # noqa: F401
from repro.lint.rules import seeds  # noqa: F401
