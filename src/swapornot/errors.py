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


def _a(noun: str) -> str:
    return f"{'an' if noun[:1].lower() in ('a', 'e', 'i', 'o', 'u') else 'a'} {noun}"


def kind_error(value, kind: type, name: str) -> DomainError:
    """The error for ``value`` where an instance of ``kind`` belongs, say "got an int"."""
    return DomainError(f"{name} must be {_a(kind.__name__)}, got {_a(type(value).__name__)}")


def check_kind(value, kind: type, name: str) -> None:
    """Raise ``DomainError`` unless ``value`` is an instance of ``kind``."""
    if not isinstance(value, kind):
        raise kind_error(value, kind, name)
