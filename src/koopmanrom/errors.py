"""Typed exceptions shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# --- solver ---

class CflViolation(ToolkitError):
    """Requested time step exceeds the stable CFL envelope."""

    def __init__(self, dt, dt_max, t):
        self.dt = dt
        self.dt_max = dt_max
        self.t = t
        super().__init__(
            f"time step {dt:.6g} s exceeds CFL bound {dt_max:.6g} s at t={t:.6g} s"
        )


class NonPositiveDepth(ToolkitError):
    """Fluid depth reached zero or below: the integration has blown up."""

    def __init__(self, t, h_min):
        self.t = t
        self.h_min = h_min
        super().__init__(f"depth h <= 0 (min {h_min:.6g} m) at t={t:.6g} s")


# --- snapshot store ---

class ShapeMismatch(ToolkitError):
    """Input fields do not share one common shape."""


class TooFewColumns(ToolkitError):
    """A snapshot matrix needs at least two columns."""


class BadMagic(ToolkitError):
    """File does not start with the KSNP magic bytes."""


class UnsupportedVersion(ToolkitError):
    """KSNP file has a version this reader does not understand."""


class CorruptHeader(ToolkitError):
    """KSNP file is truncated or its header is inconsistent."""


class NonFiniteData(ToolkitError):
    """Snapshot data holds NaN or infinite values, or finite values whose
    2-norm overflows or, when not all zero, falls below 2**-459
    (``dmd.decompose``)."""


class IndexOutOfRange(ToolkitError):
    """Snapshot or mode index outside the valid range."""


# --- decomposition ---

class RankDeficient(ToolkitError):
    """Data matrix has deficient column rank; the fit is not unique.

    Carries the numerical rank, at most the row count, so a V0 with
    fewer rows than columns raises it too.  ``dmd.decompose`` catches it
    once for V0 and retries on the first ``rank + 1`` snapshots; a
    rank-deficient mode matrix, or a second V0 failure naming the
    truncated window, reaches the caller, and a rank-0 (all-zero) V0
    becomes ``ZeroNormData``.  The message gives no advice to truncate.
    """

    def __init__(self, rank, n_columns, what="V0"):
        self.rank = rank
        self.n_columns = n_columns
        super().__init__(f"{what} has numerical rank {rank} < {n_columns} columns")


class EigenFailure(ToolkitError):
    """Eigenvalue solver failed to converge."""


class ZeroNormData(ToolkitError):
    """Data has zero norm; a relative error or a fit is undefined."""


# --- configuration ---

class ParseError(ToolkitError):
    """Malformed line in a config file."""

    def __init__(self, path, line_no, message):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class UnknownKey(ToolkitError):
    """Config key is not part of the schema."""


class InvalidValue(ToolkitError):
    """Config value fails validation."""
