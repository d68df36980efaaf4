"""Exception hierarchy shared across the library and the CLI."""


class BalanceGrowthError(Exception):
    """Base class for all library errors."""


class MalformedInputError(BalanceGrowthError):
    """Input data violates a structural contract (bad CSV row, duplicate user, ...); `row` is the input row at fault."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class HorizonError(BalanceGrowthError):
    """Snapshot pair does not define a positive horizon."""


class InsufficientDataError(BalanceGrowthError):
    """Too few observations to run the requested operation."""


class DegenerateTailError(BalanceGrowthError):
    """Tail has no spread (all values equal), so the fit is undefined."""


class FitConvergenceError(BalanceGrowthError):
    """A numerical solve in a fit did not bracket its root or did not converge."""


class NoRetainedBinsError(InsufficientDataError):
    """Every bin fell below the minimum count."""


class ConfigError(BalanceGrowthError):
    """Simulation config is invalid; `key` is the config key at fault, when there is one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key
