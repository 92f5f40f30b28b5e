"""What the CLI front end and the modules behind it share: the exceptions a
command maps to its exit code, the records' base, and the constants the
parsers offer as choices and defaults. Every command loads it, so that the
front end builds its parser and reports an error without loading the module
that does the work.
"""

from __future__ import annotations

# the resampler's pick rules, the exact search's default node budget and the
# palette policies, kept here so that the CLI parser reads them without
# loading the modules that use them
EVENT_SCANS = ("deterministic", "random")
DEFAULT_NODE_BUDGET = 5_000_000
T_POLICIES = ("fixed", "lcl-min", "theorem-ceil")


class FormatError(ValueError):
    """Malformed instance or coloring text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class InfeasibleConfigError(ValueError):
    """Generator parameters violate a necessary feasibility condition."""


class GenerationFailure(RuntimeError):
    """The generator's restart budget ran out before a valid instance appeared."""


class _Checked:
    """The base of a record that subclasses a NamedTuple of its fields and
    vets each new instance in ``_check``, also one built by ``_replace``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):  # the NamedTuple one skips __new__
        return cls(*iterable)
