"""The package's public names, and test oracles that load without the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import metricgap
from metricgap import closed_forms

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = """
    BnbResult GapInequalityReport GapResult MAX_ENUM_N MetricSpace NEGATIVE_TYPE_NON_STRICT
    NOT_NEGATIVE_TYPE NegTypeMatrix NegTypeReport OracleResult STRICT_NEGATIVE_TYPE SymMatrix
    WeightedGraph beta_binary beta_hypercube beta_opnorm branch_and_bound build_B classify errors
    gamma_cycle gamma_discrete gamma_tree gen_cycle gen_discrete gen_path gen_random_tree gen_tree
    is_tree make_witness oscillation path_metric power_matrix project_to_F solve_gap
    validate_metric verify_gap_inequality
""".split()


def test_package_exports_exactly_the_public_surface():
    assert metricgap.__all__ == PUBLIC
    assert all(hasattr(metricgap, name) for name in PUBLIC)


def test_closed_forms_return_gamma_and_beta_only():
    defined = {name for name, obj in vars(closed_forms).items()
               if not name.startswith("_") and getattr(obj, "__module__", "") == closed_forms.__name__}
    assert defined == {"OracleResult", "gamma_cycle", "gamma_discrete", "gamma_tree"}


LOAD_ORACLES = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("oracles", sys.argv[1])
oracles = importlib.util.module_from_spec(spec)
spec.loader.exec_module(oracles)
from metricgap import gen_path
path = gen_path(4, [1.0, 2.0, 3.0])
oracles.beta_brute(oracles.B_tree(path)), oracles.inverse_tree(path)
oracles.tree_two_coloring(path), oracles.inverse_cycle(5), oracles.cycle_binary_maximizer(5)
"""


def test_oracles_load_by_path_with_only_src(tmp_path):
    # As the benchmark's correctness gate loads them: by file path, with
    # tests/ off sys.path, so an oracle that imports a test module fails.
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_ORACLES, str(ROOT / "tests" / "oracles.py")],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
