"""Exception types for contract violations and numerical failures."""


class TruncationMismatchError(ValueError):
    """A SeriesTruncation was built for different (tprime, x) than the
    parameters it is being used with."""


class WindowTooSmallError(ValueError):
    """A density window does not cover the sites required by the operation."""


class NumericalError(RuntimeError):
    """A numerical failure: a broken bracket, a recurrence that is not
    finite, a ring too small for its block.  The CLI exits 2 on it."""


class BracketError(NumericalError):
    """A root bracket does not contain a sign change."""


class QuadratureLimitError(NumericalError):
    """A block of a ring whose image bound exceeds ``fourier.IMAGE_TOL``."""
