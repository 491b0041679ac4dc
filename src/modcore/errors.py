"""Exception types shared across the engine."""


class ModcoreError(Exception):
    """Base class for all engine errors."""


class ParseError(ModcoreError):
    def __init__(self, msg, line=None, col=None):
        loc = ""
        if line is not None:
            loc += f" at line {line}"
        if col is not None:
            loc += f"{',' if loc else ' at'} col {col}"
        super().__init__(msg + loc)
        self.line = line
        self.col = col


class RingMismatchError(ModcoreError):
    pass


class OrderError(ModcoreError):
    pass


class NotHomogeneousError(ModcoreError):
    pass


class DegreeMixError(NotHomogeneousError):
    """Generators do not sit in one common degree (reduction machinery needs that)."""


class CapExceededError(ModcoreError):
    """A configured degree/size cap was hit; the result is inconclusive, not wrong.

    `detail`, when given, is the report value of the inconclusive task: the
    caps that stopped it, as a dict."""

    def __init__(self, msg, detail=None):
        super().__init__(msg)
        self.detail = detail


class RetryExhaustedError(ModcoreError):
    """Randomized construction failed its a-posteriori verification too often."""


class TorsionError(ModcoreError):
    """Module has R-torsion; quotient it out before taking Rees data."""
