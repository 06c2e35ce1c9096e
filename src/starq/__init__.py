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

# Most complex dimensions of a potential file, whose metric's determinant
# and cofactors expand n! permutations; a bivector file may have the real
# dimension 2 * MAX_N, since d_gamma walks d^(2n) index labelings.
MAX_N = 6

FLOAT_MAX = 1.7976931348623157e308        # sys.float_info.max


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
    # false for a NaN, an infinity and an int beyond the float range; the
    # excision compares squared distances with eta ** 2
    if not 0 < cfg.eta <= FLOAT_MAX or cfg.eta * cfg.eta > FLOAT_MAX:
        raise ValidationError("eta must be > 0 with a finite square")
    if not 0 < cfg.tol <= FLOAT_MAX:
        raise ValidationError("tol must be finite and > 0")
    # a grid run would stamp a negative seed on every row, and numpy's
    # SeedSequence refuses one with a message that names no field
    if cfg.seed < 0:
        raise ValidationError("seed must be >= 0")
