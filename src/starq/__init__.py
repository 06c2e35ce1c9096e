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
# this table into the run configuration and graphs.IntegrationConfig fills
# itself from it; check_quadrature bounds its values for both records.
QUADRATURE_FIELDS = (
    ("grid_nodes", 800),             # per axis, 2D integrals
    ("eta", 0.1),                    # excision radius (Richardson start)
    ("tol", 5e-3),                   # largest accepted error estimate
)

# Most grid_nodes per axis of the weight quadrature: the 2D grid allocates
# before anything else can fail, and the bound holds it to about 0.4 GB.
MAX_GRID_NODES = 4096

# Most complex dimensions of a potential file, whose metric's determinant
# and cofactors expand n! permutations; a bivector file may have the real
# dimension 2 * MAX_N, since d_gamma walks d^(2n) index labelings.
MAX_N = 6

FLOAT_MAX = 1.7976931348623157e308        # sys.float_info.max


def check_quadrature(cfg):
    """Raise ValidationError unless the quadrature fields of cfg (a run
    configuration or an IntegrationConfig) are in range."""
    if not 2 <= cfg.grid_nodes <= MAX_GRID_NODES:
        raise ValidationError(f"grid_nodes must be in 2..{MAX_GRID_NODES}")
    # false for a NaN, an infinity and an int beyond the float range; the
    # excision compares squared distances with eta ** 2
    if not 0 < cfg.eta <= FLOAT_MAX or cfg.eta * cfg.eta > FLOAT_MAX:
        raise ValidationError("eta must be > 0 with a finite square")
    if not 0 < cfg.tol <= FLOAT_MAX:
        raise ValidationError("tol must be finite and > 0")
