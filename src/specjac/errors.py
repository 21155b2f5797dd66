"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Two distributions (or logit vectors) have different vocabulary sizes."""


class ZeroMassError(ValueError):
    """A residual distribution was requested where p == q (no mass left)."""


class BudgetError(ValueError):
    """An exact-enumeration request exceeds the configured size budget."""


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""
