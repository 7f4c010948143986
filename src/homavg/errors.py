"""Shared exception types."""


class InvalidMeasureError(ValueError):
    """A weight measure violates its construction contract (normalization,
    support, atomlessness where required)."""


class AccuracyError(RuntimeError):
    """A numerical routine could not certify its accuracy target.

    ``achieved`` carries the best error bound that was reached.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class PresetError(ValueError):
    """A named preset or config field could not be resolved.

    ``field`` names the offending config entry so the CLI can report it.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
