"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: usage errors exit 1, data and format
errors exit 2, numeric failures exit 3. Two ``OSError``s end a run too: a
file the CLI cannot read or write exits 2, and a standard output closed by
its reader (``onigraph train ... | head -1``) exits 1 without a traceback.
A ``MemoryError``, such as a config's layer width too large to allocate,
exits 1 as a usage error ("out of memory").
"""


class OniGraphError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(OniGraphError):
    """Operands have incompatible shapes; the message names both shapes."""


class ConfigError(OniGraphError):
    """A configuration value is invalid or inconsistent."""


class DataError(OniGraphError):
    """A dataset is empty, degenerate, or otherwise unusable."""


class FormatError(OniGraphError):
    """An on-disk container or checkpoint does not match its manifest."""


class NumericError(OniGraphError):
    """A computation produced non-finite values or an undefined statistic."""


class ConvergenceError(NumericError):
    """An iterative solver hit its iteration limit before converging."""


class UsageError(OniGraphError):
    """Bad command-line arguments."""
