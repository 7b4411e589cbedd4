"""Exception types shared across the package, the one integer check and the one kind check."""


class DomainError(ValueError):
    """An element, subkey, or string is outside its declared domain."""


class ParameterError(ValueError):
    """A parameter violates the hypotheses of a bound or a configuration cap."""


class RoundCapExceeded(ParameterError):
    """No round count within the configured cap reaches the requested target."""


def check_int(
    value, name: str, least: int | None, most: int | None = None, error=ParameterError
) -> None:
    """Raise ``error`` unless ``value`` is an int in [least, most], or >= least if most is None.

    ``least=None`` admits every int.
    """
    if not isinstance(value, int):
        raise error(f"{name} must be an integer, got {value!r}")
    if least is not None and (value < least or most is not None and value > most):
        span = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise error(f"{name} must be {span}, got {value!r}")


def check_kind(value, kind: type, name: str) -> None:
    """Raise ``DomainError`` unless ``value`` is an instance of ``kind``."""
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__}, got a {type(value).__name__}")
