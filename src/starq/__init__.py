"""starq: star-product coefficient engine and CP^1 quantization harness."""

__version__ = "0.1.0"


class ResourceGuard(ValueError):
    """Request exceeds the supported problem size.

    Defined in the package root, which imports nothing, so that jets, graphs
    and cli share one class while each command loads only the modules it
    uses."""


class ValidationError(ValueError):
    """Rejected command input (a flag, a config key, an input file).
    Root-defined like ResourceGuard: the graph and cp1 loaders raise it
    without importing starq.cli."""


class NonFiniteResult(ArithmeticError):
    """A computed value overflowed to inf or NaN: a report cannot carry it,
    and a norm or a sum over it means nothing.  Root-defined like
    ResourceGuard."""


# The weight quadrature settings and their defaults.  cli.RUN_FIELDS splices
# this table into the run configuration, graphs.IntegrationConfig fills
# itself from it and scripts/weight_scan.py takes its defaults from it.
QUADRATURE_FIELDS = (
    ("method", "grid"),              # "grid" or "mc"
    ("grid_nodes", 800),             # per axis, 2D integrals
    ("samples", 200_000),            # Monte Carlo sample count
    ("eta", 0.1),                    # excision radius (Richardson start)
    ("tol", 5e-3),                   # largest accepted error estimate
    ("seed", 20260823),
)


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

    def _set_defaults(self, defaults, values):
        """Each field of the dict defaults from values, or else its default;
        a name outside defaults raises TypeError like a keyword argument."""
        for name in values:
            if name not in defaults:
                raise TypeError(f"{type(self).__name__}() got an unexpected "
                                f"keyword argument {name!r}")
        self._set(**(defaults | values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen "
                             f"{type(self).__name__}")
