"""End-to-end acceptance checks of the exact engine.

Associativity through fourth order for both product families on three
reference potentials, and the formal transform's round trips.
Each other headline claim has one home in its module's tests; README.md's
Tests section lists where.  Tolerances and time budgets are asserted
explicitly.
"""

import random
import time
from fractions import Fraction

from starq.jets import Jet, Scalar
from starq.formal import (
    assoc_defect, invert_transform, tables_agree, transform_from_star,
)
from starq.karabegov import (
    bt_star_from, flat_potential, fs_potential, karabegov_star,
)

from paper_checks import dual_star, mi_range


def random_jet(rng, n, D, deg=2):
    """Dense-ish random jet of total degree <= deg with small exact entries."""
    keys = [(h, a) for h in mi_range(n, deg) for a in mi_range(n, deg)
            if sum(h) + sum(a) <= deg]
    terms = {}
    for key in keys:
        if rng.random() < 0.6:
            terms[key] = Scalar(Fraction(rng.randint(-3, 3)),
                                Fraction(rng.randint(-3, 3)))
    return Jet(n, D, terms)


# ---------------------------------------------------------------------------
# 2. associativity through nu^4, both product families, three potentials

def test_02_associativity_through_order_four():
    start = time.monotonic()
    N = 4
    rng = random.Random(20260823)
    cases = [
        # polynomial potentials: every coefficient is exact, defect must be
        # identically zero in the truncated ring
        ("flat", flat_potential(14), None, None),
        ("aniso", flat_potential(14, n=2, weights=[1, 2]), None, None),
        # log potential: coefficients are reliable below a degree cut that
        # erodes by the total derivative order of the triple product
        ("fs", fs_potential(26), 12, 4),
    ]
    for name, P, win_k, win_bt in cases:
        kt = karabegov_star(P, N)
        bt = bt_star_from(P, N)
        pool = [random_jet(rng, P.n, P.D) for _ in range(20)]
        for i in range(20):
            f, g, h = pool[i], pool[(i + 7) % 20], pool[(i + 13) % 20]
            for table, window in ((kt, win_k), (bt, win_bt)):
                for d in assoc_defect(table, f, g, h):
                    if window is None:
                        assert d.is_zero(), name
                    else:
                        assert d.truncate(window).is_zero(), name
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 4. formal transform round trips

def test_04_round_trips_through_order_four():
    N = 4
    for P, up_to in ((flat_potential(14), None), (fs_potential(34), 4)):
        t = karabegov_star(P, N)
        # swapping the arguments twice is the identity on the nose
        for k in range(N + 1):
            assert t.C[k].swap().swap() == t.C[k]
        # the second dual is taken against the inverse transform
        Iop = transform_from_star(t)
        t2 = dual_star(t, Iop)
        t3 = dual_star(t2, invert_transform(Iop))
        assert tables_agree(t3, t, up_to=up_to)
