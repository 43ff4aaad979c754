"""The bytes of results.csv, pinned for ten small cells.

Each cell runs through run_experiment and emit_results, and the sha256 of
its results.csv is compared with the digest recorded here.  The digests were
taken with one BLAS thread (tests/conftest.py) and numpy 2.4.6; the package
does not import scipy, so no digest depends on it.
A change that moves any of them changes the program's output: record the
new digest in CHANGES.md together with its reason.

The digests also depend on the kernel numpy's OpenBLAS picks for the CPU:
they hold on its Haswell and SkylakeX kernels.  On the pre-Haswell
Prescott (which reports itself as Katmai) and Sandybridge kernels seven
fail and three hold (the two dense-GP hard-instance cells and
synth-lsvi_ae-gp-sqexp-K200).  The learner's next-state sums take no BLAS
call, so on the lake and the synthetic task the oracle's products are what
round differently there.  A failure names the kernel in use.

Fields a cell does not list keep their ExperimentConfig defaults.
"""

import ctypes
import hashlib
from pathlib import Path

import numpy as np
import pytest

from safe_lsvi.bench import ExperimentConfig, emit_results, run_experiment

LAKE = dict(beta_override=1.0, cost_width_scale=0.02)
HARD_GP = dict(beta_override=1.0, cost_model="gp", kernel="sqexp", cost_width_scale=0.1)

CELLS = {
    "lake-lsvi_ae-K60": (
        dict(env="frozen_lake", agent="lsvi_ae", episodes=60, **LAKE),
        "24a3aae244df8743ae74fa8a9f523bf16f3b4c4c05b57a32c43dcc3a0f8b8d1c"),
    "lake-lsvi-K60": (
        dict(env="frozen_lake", agent="lsvi", episodes=60, **LAKE),
        "8e8e32a11da05f1a6791af50d6557eaa876af27ed593634fd4573a8396397e6b"),
    "lake-lsvi_primal-K60": (
        dict(env="frozen_lake", agent="lsvi_primal", episodes=60, **LAKE),
        "6526098cc9d8f3a22606d2ef27b348b246948d3014508c8b25e09e770dac4469"),
    "lake-gp-sqexp-K25": (
        dict(env="frozen_lake", agent="lsvi_ae", episodes=25, cost_model="gp",
             kernel="sqexp", **LAKE),
        "538ba55e89dd7fc2cb1530dbf0ca2605c38ff9431e5ef843ad66433a61a0ef1d"),
    "hard-lsvi_ae-K216": (
        dict(env="hard_instance", agent="lsvi_ae", episodes=216, horizon=3,
             dim=13, beta_override=1.0, cost_width_scale=0.1),
        "40d3d9b7f5b742d602a02f9a9041f2a066563ef0c7ce14ee03086b8ed332ce44"),
    "synth-lsvi_ae-K2000": (
        dict(env="synthetic_linear", agent="lsvi_ae", episodes=2000, horizon=5,
             dim=8, beta_override=5.0, cost_width_scale=0.1),
        "8ce3c1248e71003b8e7e606a5875c6abc6a1a28a3b34d609c7466f3fa4f0d566"),
    "synth-lsvi_primal-gp-linear-K200": (
        dict(env="synthetic_linear", agent="lsvi_primal", episodes=200,
             horizon=3, dim=4, seed=6, beta_override=1.0, cost_model="gp"),
        "044f92f00695aa599997cc33df1b353d791535bc89f8974dde27cc7247f10225"),
    "synth-lsvi_ae-gp-sqexp-K200": (
        dict(env="synthetic_linear", agent="lsvi_ae", episodes=200, horizon=3,
             dim=4, seed=4, beta_override=1.0, cost_model="gp", kernel="sqexp",
             lengthscale=0.8, cost_width_scale=0.3),
        "987ed1aaeb70b22fe92dc3b21540e2302e6d96de6b6a370a3d518df880fd15a5"),
    # The GP over a dense (not one-hot) map: its cross-factor recursion
    # over the map's distinct rows.
    "hard-gp-sqexp-d13-K216": (
        dict(env="hard_instance", agent="lsvi_ae", episodes=216, horizon=3,
             dim=13, **HARD_GP),
        "6bec1492854b97eb1babdbd1fcda22bd626a1f3a3af16805a464395a90c59757"),
    "hard-gp-sqexp-d5-K40": (
        dict(env="hard_instance", agent="lsvi_ae", episodes=40, horizon=3,
             dim=5, **HARD_GP),
        "bac8c27b8c03cd5b7ebf02e0aba7f4d30490dd9b39c33fb55386c240449f5509"),
}


def blas_core() -> str:
    """The kernel name numpy's bundled OpenBLAS reports, or "unknown"."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return (corename() or b"unknown").decode()
    return "unknown"


@pytest.mark.parametrize("cell", list(CELLS))
def test_results_csv_digest(cell, tmp_path):
    fields, expected = CELLS[cell]
    config = ExperimentConfig(**fields)
    path = emit_results(run_experiment(config), config, tmp_path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == expected, \
        f"results.csv of cell {cell} changed: {digest} (OpenBLAS core {blas_core()})"
