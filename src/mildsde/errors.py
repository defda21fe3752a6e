"""Exception and warning types shared across the package."""

__all__ = ["ConfigurationError", "BlowUpError", "HypothesisError", "StiffnessWarning"]


class ConfigurationError(ValueError):
    """Invalid configuration: bad scheme preconditions, malformed config keys."""


class BlowUpError(RuntimeError):
    """A solver produced a non-finite state; partial trajectories are never returned."""

    def __init__(self, message: str, step: int, time: float):
        super().__init__(message)
        self.step = step
        self.time = time


class HypothesisError(ValueError):
    """A structural hypothesis an experiment relies on is not met by the configured data."""


class StiffnessWarning(UserWarning):
    """The explicit drift step left its safety region |dt * f'(u)| < 1."""
