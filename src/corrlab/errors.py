"""Exception hierarchy shared by all modules.

Every error carries an ``exit_code`` so the command-line layer can map
failures to distinct process exit statuses without inspecting messages.
"""

__all__ = ["CorrlabError", "UsageError", "InputError", "DegenerateSampleError",
           "NumericError", "InfeasibleError"]


class CorrlabError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class UsageError(CorrlabError):
    """Bad flags, unknown configuration keys, conflicting values."""

    exit_code = 2


class InputError(CorrlabError):
    """Invalid input data: wrong shapes, non-finite values, bad files."""

    exit_code = 3


class DegenerateSampleError(InputError):
    """A correlation could not be calculated (zero variance somewhere).

    Raised instead of returning NaN by the checked entry points; the
    replication loops test their own draws for constant columns.
    """


class NumericError(CorrlabError):
    """A numerical routine failed to converge."""

    exit_code = 4


class InfeasibleError(CorrlabError):
    """A requested condition cannot be satisfied (retry caps, unattainable targets)."""

    exit_code = 5
