"""starq: star-product coefficient engine and CP^1 quantization harness."""

__version__ = "0.1.0"


class ResourceGuard(ValueError):
    """Request exceeds the supported problem size.

    Defined in the package root, which imports nothing, so that jets, graphs
    and cp1 share one class while each command loads only the modules it
    uses."""


class ValidationError(ValueError):
    """Rejected command input (a flag, a config key, an input file).
    Root-defined like ResourceGuard: the graph and cp1 loaders raise it
    without importing starq.cli."""


class NonFiniteResult(ArithmeticError):
    """A computed value overflowed to inf or NaN: a report cannot carry it,
    and a norm or a sum over it means nothing.  Root-defined like
    ResourceGuard."""


class Frozen:
    """Base of starq's immutable records.

    The records are plain __slots__ classes: the standard library's record
    decorator imports inspect, ast, dis and tokenize, which every short CLI
    run would pay for.  A subclass lists its fields in __slots__ and sets
    each once, in __init__, through _set; a later assignment or deletion
    raises AttributeError."""

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen "
                             f"{type(self).__name__}")
