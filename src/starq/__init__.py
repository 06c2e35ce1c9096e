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
# itself from it and scripts/weight_scan.py takes its defaults from it;
# check_quadrature bounds its values for both records.
QUADRATURE_FIELDS = (
    ("method", "grid"),              # "grid" or "mc"
    ("grid_nodes", 800),             # per axis, 2D integrals
    ("samples", 200_000),            # Monte Carlo sample count
    ("eta", 0.1),                    # excision radius (Richardson start)
    ("tol", 5e-3),                   # largest accepted error estimate
    ("seed", 20260823),
)

# Most grid_nodes per axis and samples of the weight quadrature: the 2D
# grid and the Monte Carlo draws allocate before anything else can fail, and
# each bound holds a run's quadrature to about 0.4 GB.
MAX_GRID_NODES = 4096
MAX_SAMPLES = 2_000_000


def check_quadrature(cfg):
    """Raise ValidationError unless the quadrature fields of cfg (a run
    configuration or an IntegrationConfig) are in range."""
    if cfg.method not in ("grid", "mc"):
        raise ValidationError(f"unknown method {cfg.method!r}")
    # one sample has no spread, so its estimate passes any tol
    if not 2 <= cfg.samples <= MAX_SAMPLES:
        raise ValidationError(f"samples must be in 2..{MAX_SAMPLES}")
    if not 2 <= cfg.grid_nodes <= MAX_GRID_NODES:
        raise ValidationError(f"grid_nodes must be in 2..{MAX_GRID_NODES}")
    # the chained comparison is false for a NaN and for an infinity
    if not 0 < cfg.eta < float("inf"):
        raise ValidationError("eta must be finite and > 0")
    if not 0 < cfg.tol < float("inf"):
        raise ValidationError("tol must be finite and > 0")


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
