"""Exception hierarchy shared across the package.

ConfigError covers everything a user can fix (bad config values, missing
files, mismatched checkpoints); the CLI maps it to exit code 1. Every other
PoseDiffError signals a broken internal invariant and maps to exit code 2.
"""


class PoseDiffError(Exception):
    pass


class ConfigError(PoseDiffError):
    """User-fixable problem: bad configuration, missing/corrupt file, id mismatch."""


class ShapeError(PoseDiffError):
    """Tensor shapes disagree with the operation's contract."""


class ScheduleError(PoseDiffError):
    """Timestamp out of range, degenerate alpha_bar, or inconsistent schedule."""


class NumericsError(PoseDiffError):
    """Non-finite values, degenerate depths, or failed alignments."""
