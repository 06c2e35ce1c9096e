"""starq's records: immutability, hashing of the weight-cache keys, and the
one field table behind RunConfig."""

from fractions import Fraction

import pytest

from starq import QUADRATURE_FIELDS, ValidationError
from starq.cli import RunConfig, run
from starq.cp1 import AsymSeries
from starq.graphs import (
    _WEIGHT_CACHE, GGraph, IntegrationConfig, KGraph, L, R, WeightResult,
    integration_config, kontsevich_weight,
)
from starq.jets import Jet, MetricJets
from starq.symbols import ObservableFn, make_context

ONE = Jet.constant(Fraction(1), 1, 2)
FROZEN = [
    pytest.param(lambda: RunConfig(command="weights"), "order",
                 id="RunConfig"),
    pytest.param(lambda: KGraph(1, ((L, R),)), "n", id="KGraph"),
    pytest.param(lambda: IntegrationConfig(), "tol", id="IntegrationConfig"),
    pytest.param(lambda: WeightResult(0.5, 0.0, 1, 7), "value",
                 id="WeightResult"),
    pytest.param(lambda: GGraph((), (("S", "T", 1),), 1), "aut", id="GGraph"),
    pytest.param(lambda: ObservableFn(terms=((1.0, 0, 0, 0),)), "terms",
                 id="ObservableFn"),
    pytest.param(lambda: make_context(4), "m", id="Cp1Context"),
    pytest.param(lambda: AsymSeries(points=((8, 1.0),), fit=(0.0, 0.0, 0.0)),
                 "fit", id="AsymSeries"),
    pytest.param(lambda: MetricJets(g=((ONE,),), g_inv=((ONE,),)), "g_inv",
                 id="MetricJets"),
]


@pytest.mark.parametrize("make, field", FROZEN)
def test_frozen_records_reject_assignment(make, field):
    rec = make()
    before = getattr(rec, field)
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1           # __slots__: no attribute outside the fields
    assert getattr(rec, field) is before


def test_equal_kgraphs_hash_equal_and_share_a_cached_weight():
    """KGraph and IntegrationConfig key _WEIGHT_CACHE by value: two graphs
    and two configs built apart find the one cached weight."""
    g1, g2 = KGraph(1, ((L, R),)), KGraph(1, ((L, R),))
    assert g1 is not g2 and g1 == g2 and hash(g1) == hash(g2)
    assert g1 != KGraph(1, ((R, L),))
    c1 = IntegrationConfig(grid_nodes=41, tol=1.0)
    c2 = IntegrationConfig(grid_nodes=41, tol=1.0)
    assert c1 is not c2 and c1 == c2 and hash(c1) == hash(c2)
    assert c1 != IntegrationConfig(grid_nodes=42, tol=1.0)
    w = kontsevich_weight(g1, c1)
    size = len(_WEIGHT_CACHE)
    assert kontsevich_weight(g2, c2) is w
    assert kontsevich_weight(KGraph(1, ((R, L),)), c2) is w  # canonical form
    assert len(_WEIGHT_CACHE) == size


def test_runconfig_rejects_unknown_fields():
    with pytest.raises(TypeError, match="bogus"):
        RunConfig(bogus=1)


def test_integration_config_shares_the_quadrature_table():
    """IntegrationConfig and RunConfig take their quadrature defaults from
    one table, and IntegrationConfig rejects a name outside it."""
    with pytest.raises(TypeError, match="bogus"):
        IntegrationConfig(bogus=1)
    icfg, cfg = IntegrationConfig(), RunConfig()
    names = [name for name, _ in QUADRATURE_FIELDS]
    assert list(IntegrationConfig.__slots__) == names
    assert [getattr(icfg, k) for k in names] == [getattr(cfg, k) for k in names]
    assert integration_config(cfg) == icfg


@pytest.mark.parametrize("values, message", [
    ({"samples": 1}, "samples must be in 2..2000000"),
    ({"grid_nodes": 0}, "grid_nodes must be in 2..4096"),
])
def test_integration_config_holds_the_quadrature_bounds(values, message):
    """IntegrationConfig refuses what the CLI refuses: one Monte Carlo
    sample has no spread, and zero grid nodes make no grid."""
    with pytest.raises(ValidationError, match=message):
        IntegrationConfig(**values)


def test_runconfig_defaults_and_echo():
    """A default run echoes exactly these 24 fields (all but out)."""
    cfg = RunConfig(command="graphs-enumerate", n=0)
    assert (cfg.order, cfg.m_list, cfg.tol, cfg.out) == \
        (2, (8, 16, 32, 64, 128), 5e-3, "")
    echo = run(cfg).as_dict()["inputs"]["config"]
    assert echo == {
        "command": "graphs-enumerate", "potential": "flat", "alpha_path": "",
        "expr": "1", "f_expr": "(1 - zz) / (1+zz)",
        "g_expr": "(z + zbar) / (1+zz)", "f_poly": "", "g_poly": "",
        "order": 2, "max_degree": 0, "n": 0, "family": "admissible",
        "wmax": 2, "m": 8, "m_list": [8, 16, 32, 64, 128], "at": "0",
        "suite": "bms", "method": "grid", "grid_nodes": 800,
        "samples": 200_000, "eta": 0.1, "tol": 5e-3, "seed": 20260823,
        "format": "json"}
    assert len(echo) == 24
