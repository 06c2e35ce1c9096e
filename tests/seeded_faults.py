"""Seeded faults: a standing negative control for the tier-1 tests.

Each fault below is a one-line change to src/starq, with the tier-1 tests
that must catch it.  The script copies src/, tests/, perfbench/, README.md
and pyproject.toml into a temporary directory and runs pytest there: first
every named test on the clean copy, which must pass them all, then each
fault's tests with that one line changed.  It prints each fault with the
test that caught it, and exits 1 if the clean copy fails a test, if a
fault's line is not in its file exactly once, or if a fault escapes every
test named for it.

    python tests/seeded_faults.py      # about 50 s on 2 vCPU

The first five faults are the ones ROADMAP item 24 seeded.  Each fault
after them, up to the graph backend's, was caught by a test that read a
private helper of starq: a retired test, now replaced by the contract tests
that catch its fault, or a test ported to the contract.  The last six seed
decisions the graph backend makes in one place, the windows of the
Karabegov recursion's products, the exit contract with numpy absent and the
tokenizer's parses.  Each "why" field says which.
pytest does not collect this file: its name does not match test_*.py.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

Fault = namedtuple("Fault", "name path old new tests why")

_PIN = "tests/test_cli.py::test_star_reports_match_benchmark_pins"
WEIGHTS_N2_PIN = _PIN + "[weights-n2-argv3]"
KONTSEVICH_PIN = _PIN + "[readme-kontsevich-argv4]"
GRID_200_PIN = ("tests/test_cli.py::"
                "test_pair_integral_with_a_short_last_row_block_keeps_its_pin")
BMS_DENSE = ("tests/test_cp1.py::"
             "test_row_blocked_product_and_band_subtraction_match_dense")
SUP_NORM = "tests/test_cp1.py::test_uniform_draws_match_numpy_default_rng"
QUADRATURE_CACHES = ("tests/test_graphs.py::"
                     "test_weights_fill_each_quadrature_cache_once")

FAULTS = [
    Fault("recursion-g-inverse-transposed", "src/starq/karabegov.py",
          "acc = acc + g_inv[l][j].mul_to(c, cut)",
          "acc = acc + g_inv[j][l].mul_to(c, cut)",
          ["tests/test_karabegov.py::test_nonflat_n2_recursion"],
          "ROADMAP item 24"),
    Fault("berezin-defect-m-plus-2", "src/starq/cp1.py",
          "defect = abs(m * (val", "defect = abs((m + 2) * (val",
          ["tests/test_cp1.py::test_berezin_asymptotics"],
          "ROADMAP item 24"),
    Fault("bms-commutator-m-plus-2", "src/starq/cp1.py",
          "np.multiply(m * 1j, comm, out=comm)",
          "np.multiply((m + 2) * 1j, comm, out=comm)",
          ["tests/test_cp1.py::test_bms_suite_slopes"],
          "ROADMAP item 24"),
    Fault("kontsevich-order-parity-dropped", "src/starq/graphs.py",
          "acc = acc + D * (w.value * G.order_parity())",
          "acc = acc + D * w.value",
          [KONTSEVICH_PIN,
           "tests/test_graphs.py::test_kontsevich_star_matches_moyal"],
          "ROADMAP item 24"),
    Fault("coherent-vector-unconjugated", "src/starq/cp1.py",
          "    return np.conjugate(S)", "    return S",
          ["tests/test_cp1.py::test_coherent_reproducing_property",
           "tests/test_cp1.py::test_epsilon_function"],
          "ROADMAP item 24"),
    # the weight quadrature, once pinned by its private helpers
    Fault("pair-integral-second-edge-to-L", "src/starq/quadrature.py",
          "dist_r) = _edge(1, R, pos)", "dist_r) = _edge(1, L, pos)",
          [WEIGHTS_N2_PIN, GRID_200_PIN],
          "retired test_weight_grid_fields_built_once"),
    Fault("pair-integral-not-cached", "src/starq/quadrature.py",
          "@functools.cache\ndef _pair_integral_2d",
          "def _pair_integral_2d",
          [QUADRATURE_CACHES],
          "retired test_weight_grid_fields_built_once"),
    Fault("pair-integral-first-row-block-skipped", "src/starq/quadrature.py",
          "for lo in range(0, M, _PAIR_ROWS):",
          "for lo in range(_PAIR_ROWS, M, _PAIR_ROWS):",
          [GRID_200_PIN, WEIGHTS_N2_PIN],
          "retired test_row_blocked_pair_integral_matches_full_grid"),
    Fault("first-grid-slice-skipped", "src/starq/quadrature.py",
          "range(shape[0])", "range(1, shape[0])",
          [WEIGHTS_N2_PIN],
          "retired test_edge_fields_per_block_match_the_full_grid"),
    Fault("masks-joined-by-or", "src/starq/quadrature.py",
          "mask &= dist2 > e2", "mask |= dist2 > e2",
          [WEIGHTS_N2_PIN],
          "retired test_blockwise_masks_match_full_grid_distances"),
    Fault("block-determinant-negated", "src/starq/quadrature.py",
          "np.multiply(np.linalg.det(stack)",
          "np.multiply(-np.linalg.det(stack)",
          [WEIGHTS_N2_PIN],
          "retired test_blockwise_determinant_matches_one_call"),
    Fault("excision-radii-out-of-order", "src/starq/quadrature.py",
          "zip(masks, (eta, eta / 2, eta / 4))",
          "zip(masks, (eta, eta / 4, eta / 2))",
          [GRID_200_PIN, WEIGHTS_N2_PIN],
          "retired test_excision_masks_are_nested"),
    Fault("masked-products-narrowest-first", "src/starq/quadrature.py",
          "for mask in reversed(masks))", "for mask in masks)",
          [GRID_200_PIN],
          "retired test_in_place_masked_sums_match_fresh_products"),
    Fault("grid-axis-off-the-midpoints", "src/starq/quadrature.py",
          "axis = (np.arange(M) + 0.5) / M",
          "axis = (np.arange(M) + 0.25) / M",
          [WEIGHTS_N2_PIN],
          "retired test_grid_4d_matches_meshgrid_reference"),
    Fault("boundary-gradient-sign", "src/starq/quadrature.py",
          "return -2 * r.imag, -2 * r.real", "return -2 * r.imag, 2 * r.real",
          [GRID_200_PIN, WEIGHTS_N2_PIN],
          "retired test_angle_gradients_match_two_division_formulas"),
    # the sphere harness, once pinned by its private helpers
    Fault("product-last-row-left-out", "src/starq/cp1.py",
          "zip(starts, starts[1:] + [n])",
          "zip(starts, starts[1:] + [n - 1])",
          [BMS_DENSE],
          "ported"),
    Fault("product-one-row-tail-not-folded", "src/starq/cp1.py",
          "_PRODUCT_MIN_ROWS = 16 ", "_PRODUCT_MIN_ROWS = 1 ",
          [BMS_DENSE + "[512]"],
          "ported"),
    Fault("product-entries-with-a-zero-part-dropped", "src/starq/cp1.py",
          "np.flatnonzero(bits.any(axis=1))",
          "np.flatnonzero(bits.all(axis=1))",
          [BMS_DENSE],
          "retired test_product_entries_round_trip_bit_for_bit"),
    Fault("pcg-rotation-off-by-one", "src/starq/symbols.py",
          "x << (64 - rot)", "x << (63 - rot)",
          [SUP_NORM],
          "ported"),
    Fault("pcg-seeded-state-changed", "src/starq/symbols.py",
          "_PCG_STATE = 208745520555909116978795849195383758904",
          "_PCG_STATE = 208745520555909116978795849195383758905",
          [SUP_NORM],
          "retired test_pcg_constants_are_numpys_seeded_state"),
    # faults of the tests ported to the contract, which still catch them
    Fault("pair-integral-in-one-block", "src/starq/quadrature.py",
          "_PAIR_ROWS = 16 ", "_PAIR_ROWS = 800 ",
          ["tests/test_graphs.py::"
           "test_pair_integral_peaks_under_integrand_masks_and_a_megabyte"],
          "ported"),
    Fault("full-grid-integrand-kept", "src/starq/quadrature.py",
          "    cells = _GRID_NODES_4D ** 4",
          "    cells = _GRID_NODES_4D ** 4; "
          "globals().setdefault('_kept', []).append(integrand)",
          ["tests/test_graphs.py::test_weights_keep_no_full_grid_array"],
          "ported"),
    Fault("pair-integral-before-the-fork", "src/starq/graphs.py",
          "from . import quadrature              # loads numpy, "
          "before any fork",
          "from . import quadrature; "
          "quadrature._pair_integral_2d(cfg.grid_nodes, cfg.eta)",
          ["tests/test_graphs.py::"
           "test_weights_load_numpy_and_integrate_nothing_before_forking"],
          "ported"),
    # decisions the graph backend makes in one place
    Fault("tolerance-read-from-eta", "src/starq/graphs.py",
          "if res.error_estimate > cfg.tol:",
          "if res.error_estimate > cfg.eta:",
          ["tests/test_graphs.py::test_weight_guard_and_failure",
           "tests/test_cli.py::test_exit_codes_and_stderr"],
          "the tolerance, checked once in _integrate"),
    Fault("vertex-1-matched-as-L", "src/starq/graphs.py",
          "if tgt == v:", "if abs(tgt) == abs(v):",
          ["tests/test_graphs.py::test_d_gamma_single_edge",
           "tests/test_graphs.py::test_kontsevich_star_matches_moyal",
           KONTSEVICH_PIN],
          "the derivative rule, one helper in d_gamma"),
    Fault("recursion-product-window-short", "src/starq/karabegov.py",
          "acc = acc + g_inv[l][j].mul_to(c, cut)",
          "acc = acc + g_inv[l][j].mul_to(c, cut - 1)",
          [_PIN + "[karabegov-fs-6]", _PIN + "[bt-fs-4]",
           _PIN + "[karabegov-fs-14]", _PIN + "[bt-fs-12]"],
          "ROADMAP item 13: a product stopped below its window"),
    Fault("commutator-sum-window-short", "src/starq/karabegov.py",
          "_commutator_sum(A, w, m, l, cut) for l",
          "_commutator_sum(A, w, m, l, cut - 1) for l",
          ["tests/test_karabegov.py::"
           "test_bt_direct_route_matches_conjugation[nonflat-n2-3]"],
          "ROADMAP item 13: no pinned report reaches this bound, only the "
          "certificate of one dense n = 2 potential"),
    # the exit contract with numpy absent, and the parses of the tokenizer
    Fault("numpy-before-kontsevich-inputs", "src/starq/cli.py",
          "        alpha = load_bivector(cfg.alpha_path)",
          "        from . import quadrature; "
          "alpha = load_bivector(cfg.alpha_path)",
          ["tests/test_cli.py::test_non_finite_bivector_entry_exit_2[NaN]",
           "tests/test_cli.py::"
           "test_json_integer_beyond_the_float_range_exits_2[poly-coeff]"],
          "a no-numpy row of tests/cli_contract.py, run with numpy blocked"),
    Fault("tokenizer-reads-z-before-zbar", "src/starq/symbols.py",
          "(?P<name>zbar|zz|z)", "(?P<name>z|zbar|zz)",
          ["tests/test_cli.py::test_tokenizer_edge_inputs"],
          "ported: the edge inputs pin parses and messages alone"),
]

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")


def run_pytest(copy, tests):
    """(exit code, node ids of the failed tests, output tail) of pytest on
    tests in the copy, stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf",
         "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=900)
    failed = re.findall(r"^FAILED (\S+)", proc.stdout, re.M)
    tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-15:])
    return proc.returncode, failed, tail


def main():
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                        ".pytest_cache")
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=ignore)
            else:
                shutil.copy2(src, copy / name)
        named = list(dict.fromkeys(t for f in FAULTS for t in f.tests))
        code, failed, tail = run_pytest(copy, named)
        if code != 0:
            print(f"clean copy fails its named tests (exit {code}):\n{tail}")
            return 1
        print(f"clean copy passes all {len(named)} named tests")
        for fault in FAULTS:
            path = copy / fault.path
            text = path.read_text()
            if text.count(fault.old) != 1:
                print(f"{fault.name}: {fault.old!r} is not in {fault.path} "
                      f"exactly once")
                ok = False
                continue
            path.write_text(text.replace(fault.old, fault.new))
            try:
                code, failed, tail = run_pytest(copy, fault.tests)
            finally:
                path.write_text(text)
            if code == 1 and failed:
                print(f"{fault.name}: caught by {failed[0]} ({fault.why})")
            else:
                print(f"{fault.name}: ESCAPED (pytest exit {code}; "
                      f"{fault.why})\n{tail}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
