"""Determinism-hygiene rules (family ``D1xx``).

Everything stochastic in this library must flow from explicit integer
seeds through :mod:`repro.rng`.  These rules ban the ambient-state
escape hatches: the global ``random`` module, numpy's global state,
wall clocks and OS entropy.  ``PYTHONHASHSEED`` leaks (``hash()``, set
order) are not guessed at here: ``tools/determinism.py`` runs every
subcommand under two hash seeds and compares the bytes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.lint.violations import (
    ALL_KINDS,
    LIBRARY,
    Violation,
    register_rule,
)

_RANDOM_GLOBAL_FNS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "triangular", "betavariate", "expovariate",
        "gammavariate", "gauss", "lognormvariate", "normalvariate",
        "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
        "randbytes", "seed", "setstate", "binomialvariate",
    }
)

_WALL_CLOCK_TIME_FNS = frozenset({"time", "time_ns", "monotonic", "monotonic_ns"})
_WALL_CLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


class _ImportMap:
    """Which local names are bound to the modules/functions we police."""

    def __init__(self, nodes: List[ast.AST]) -> None:
        self.random_modules: Set[str] = set()
        self.numpy_modules: Set[str] = set()
        self.numpy_random_names: Set[str] = set()
        self.time_modules: Set[str] = set()
        self.datetime_modules: Set[str] = set()
        self.datetime_classes: Set[str] = set()
        self.os_modules: Set[str] = set()
        self.uuid_modules: Set[str] = set()
        self.secrets_names: Set[str] = set()
        self.random_fn_aliases: Dict[str, str] = {}
        self.random_class_aliases: Set[str] = set()
        self.system_random_aliases: Set[str] = set()
        self.time_fn_aliases: Dict[str, str] = {}
        self.urandom_aliases: Set[str] = set()
        self.uuid_fn_aliases: Set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random" or alias.name.startswith("random."):
                        self.random_modules.add(bound)
                    elif alias.name == "numpy" or alias.name.startswith("numpy."):
                        if alias.name == "numpy.random":
                            self.numpy_random_names.add(alias.asname or "numpy")
                        self.numpy_modules.add(bound)
                    elif alias.name == "time":
                        self.time_modules.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_modules.add(bound)
                    elif alias.name == "os":
                        self.os_modules.add(bound)
                    elif alias.name == "uuid":
                        self.uuid_modules.add(bound)
                    elif alias.name == "secrets":
                        self.secrets_names.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module == "random":
                        if alias.name in _RANDOM_GLOBAL_FNS:
                            self.random_fn_aliases[bound] = alias.name
                        elif alias.name == "Random":
                            self.random_class_aliases.add(bound)
                        elif alias.name == "SystemRandom":
                            self.system_random_aliases.add(bound)
                    elif node.module == "numpy":
                        if alias.name == "random":
                            self.numpy_random_names.add(bound)
                    elif node.module.startswith("numpy.random"):
                        self.numpy_random_names.add(bound)
                    elif node.module == "time":
                        if alias.name in _WALL_CLOCK_TIME_FNS:
                            self.time_fn_aliases[bound] = alias.name
                    elif node.module == "datetime":
                        if alias.name in ("datetime", "date"):
                            self.datetime_classes.add(bound)
                    elif node.module == "os":
                        if alias.name == "urandom":
                            self.urandom_aliases.add(bound)
                    elif node.module == "uuid":
                        if alias.name in ("uuid1", "uuid4"):
                            self.uuid_fn_aliases.add(bound)
                    elif node.module == "secrets":
                        self.secrets_names.add(bound)


def _imports(source) -> _ImportMap:
    """The file's import map, built once and shared by the D1xx rules."""
    return source.derived("imports", lambda source: _ImportMap(source.nodes))


def _violation(rule, source, node, message: str) -> Violation:
    return Violation(
        rule=rule.rule_id,
        name=rule.name,
        path=source.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


@register_rule
class GlobalRandomRule:
    """D101: calls into the shared module-level ``random`` state."""

    rule_id = "D101"
    name = "global-random"
    description = (
        "calls to the random module's global functions (random.random, "
        "random.shuffle, ...) use interpreter-wide hidden state; derive a "
        "stream with repro.rng.derive_rng instead"
    )
    kinds = ALL_KINDS

    def check(self, source) -> Iterable[Violation]:
        imports = _imports(source)
        for node in source.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in imports.random_modules
                and func.attr in _RANDOM_GLOBAL_FNS
            ):
                yield _violation(
                    self, source, node,
                    f"random.{func.attr}() draws from the global PRNG; use a "
                    "stream from repro.rng.derive_rng",
                )
            elif (
                isinstance(func, ast.Name)
                and func.id in imports.random_fn_aliases
            ):
                original = imports.random_fn_aliases[func.id]
                yield _violation(
                    self, source, node,
                    f"{func.id}() (random.{original}) draws from the global "
                    "PRNG; use a stream from repro.rng.derive_rng",
                )


@register_rule
class UnseededRandomRule:
    """D102: ``random.Random()`` with no seed, or ``SystemRandom``."""

    rule_id = "D102"
    name = "unseeded-random"
    description = (
        "random.Random() without an explicit seed (and SystemRandom at "
        "all) is seeded from OS entropy; pass a derived seed"
    )
    kinds = ALL_KINDS

    def check(self, source) -> Iterable[Violation]:
        imports = _imports(source)
        for node in source.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_random_class = (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in imports.random_modules
                and func.attr == "Random"
            ) or (
                isinstance(func, ast.Name)
                and func.id in imports.random_class_aliases
            )
            is_system_random = (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in imports.random_modules
                and func.attr == "SystemRandom"
            ) or (
                isinstance(func, ast.Name)
                and func.id in imports.system_random_aliases
            )
            if is_system_random:
                yield _violation(
                    self, source, node,
                    "SystemRandom draws OS entropy and can never be seeded",
                )
            elif is_random_class and not node.args and not node.keywords:
                yield _violation(
                    self, source, node,
                    "random.Random() without a seed is seeded from OS "
                    "entropy; pass a seed derived via repro.rng.derive_seed",
                )


@register_rule
class NumpyGlobalRandomRule:
    """D103: any use of numpy's global random state."""

    rule_id = "D103"
    name = "numpy-global-random"
    description = (
        "numpy.random.* uses numpy's global (or OS-seeded) state; use "
        "repro.rng.uniform_unit_np or a generator seeded from derive_seed"
    )
    kinds = ALL_KINDS

    def check(self, source) -> Iterable[Violation]:
        imports = _imports(source)
        for node in source.nodes:
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in imports.numpy_modules
            ):
                yield _violation(
                    self, source, node,
                    "numpy.random carries global/OS-seeded state; use "
                    "repro.rng.uniform_unit_np or np.random.default_rng(seed) "
                    "via an explicit derive_seed",
                )
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in imports.numpy_random_names
            ):
                yield _violation(
                    self, source, node,
                    "numpy.random carries global/OS-seeded state; seed an "
                    "explicit generator from derive_seed instead",
                )


@register_rule
class WallClockRule:
    """D104: wall-clock reads in library code."""

    rule_id = "D104"
    name = "wall-clock"
    description = (
        "time.time()/datetime.now() make results depend on when the code "
        "runs; thread simulated time through parameters instead"
    )
    kinds = (LIBRARY,)

    def check(self, source) -> Iterable[Violation]:
        imports = _imports(source)
        for node in source.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in imports.time_modules
                and func.attr in _WALL_CLOCK_TIME_FNS
            ):
                yield _violation(
                    self, source, node,
                    f"time.{func.attr}() reads the wall clock; pass "
                    "simulated timestamps explicitly",
                )
            elif isinstance(func, ast.Name) and func.id in imports.time_fn_aliases:
                yield _violation(
                    self, source, node,
                    f"{func.id}() (time.{imports.time_fn_aliases[func.id]}) "
                    "reads the wall clock; pass simulated timestamps "
                    "explicitly",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _WALL_CLOCK_DATETIME_FNS
                and isinstance(func.value, ast.Name)
                and func.value.id in imports.datetime_classes
            ):
                yield _violation(
                    self, source, node,
                    f"datetime.{func.attr}() reads the wall clock; pass "
                    "simulated timestamps explicitly",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _WALL_CLOCK_DATETIME_FNS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in ("datetime", "date")
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in imports.datetime_modules
            ):
                yield _violation(
                    self, source, node,
                    f"datetime.{func.value.attr}.{func.attr}() reads the "
                    "wall clock; pass simulated timestamps explicitly",
                )


@register_rule
class OsEntropyRule:
    """D105: OS entropy sources in library code."""

    rule_id = "D105"
    name = "os-entropy"
    description = (
        "os.urandom/uuid4/secrets pull OS entropy, which can never be "
        "replayed; derive identifiers from seeds"
    )
    kinds = (LIBRARY,)

    def check(self, source) -> Iterable[Violation]:
        imports = _imports(source)
        for node in source.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            message = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
            ):
                owner = func.value.id
                if owner in imports.os_modules and func.attr == "urandom":
                    message = "os.urandom() is OS entropy"
                elif owner in imports.uuid_modules and func.attr in ("uuid1", "uuid4"):
                    message = f"uuid.{func.attr}() is OS entropy"
                elif owner in imports.secrets_names:
                    message = f"secrets.{func.attr}() is OS entropy"
            elif isinstance(func, ast.Name):
                if func.id in imports.urandom_aliases:
                    message = f"{func.id}() (os.urandom) is OS entropy"
                elif func.id in imports.uuid_fn_aliases:
                    message = f"{func.id}() is OS entropy"
            if message is not None:
                yield _violation(
                    self, source, node,
                    message + "; derive values from explicit seeds instead",
                )


_MUTABLE_LITERAL_DEFAULTS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp,
)
_MUTABLE_BUILTIN_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque"}
)


def _callee_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register_rule
class InstanceDefaultRule:
    """D109: class instances or mutable literals as parameter defaults."""

    rule_id = "D109"
    name = "instance-default"
    description = (
        "a parameter default such as config=SomeConfig() or cache=[] is "
        "evaluated once at import time and shared by every call, freezing "
        "its configuration; default to None and construct inside"
    )
    kinds = (LIBRARY,)

    def check(self, source) -> Iterable[Violation]:
        for node in source.nodes:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                problem = self._describe(default)
                if problem is not None:
                    yield _violation(
                        self, source, default,
                        f"{problem}; default to None and build the value "
                        "inside the function",
                    )

    def _describe(self, default: ast.AST) -> Optional[str]:
        if isinstance(default, _MUTABLE_LITERAL_DEFAULTS):
            return (
                "mutable literal default is created once at definition "
                "time and shared across calls"
            )
        if isinstance(default, ast.Call):
            name = _callee_name(default.func)
            if name is None:
                return None
            if name in _MUTABLE_BUILTIN_FACTORIES:
                return (
                    f"{name}() default is created once at definition time "
                    "and shared across calls"
                )
            if name[:1].isupper():
                return (
                    f"{name}() instance default is constructed at import "
                    "time, freezing its configuration for every caller"
                )
        return None
