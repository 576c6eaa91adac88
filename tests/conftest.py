"""Shared fixtures: canonical parameter sets, flat curves, and the
drift-comparison study that several acceptance checks read from one run."""

import pytest

from fwdvol import (
    DRIFT_STUDY_SET,
    TERM_STRUCTURE_SET,
    McConfig,
    QuadratureConfig,
    flat_curves,
)
from fwdvol.mc import _study_forwards, _study_rows


@pytest.fixture(scope="session")
def fig1():
    return TERM_STRUCTURE_SET


@pytest.fixture(scope="session")
def sec5():
    return DRIFT_STUDY_SET


@pytest.fixture(scope="session")
def curves():
    return flat_curves()


@pytest.fixture(scope="session")
def quad():
    return QuadratureConfig()


# The shared paired-drift study read by the forward and vol error checks.
DRIFT_STUDY_CFG = McConfig(
    n_paths=100_000,
    n_steps=100,
    horizon=1.0,
    seed=0,
    drift_mode="exact_per_T",
    exact_settlements=(2.0,),
)


@pytest.fixture(scope="session")
def drift_study_forwards(curves, sec5):
    """The study's parameter sets and their (exact, approximate) forwards
    at the horizon, so a check that needs the paths reuses this one run."""
    return _study_forwards((0.0, 1.0, 2.0, 3.0), DRIFT_STUDY_CFG, curves, sec5)


@pytest.fixture(scope="session")
def drift_study(drift_study_forwards, curves):
    """The study's rows, as `drift_error_study` builds them."""
    params, forwards = drift_study_forwards
    return _study_rows(params, forwards, DRIFT_STUDY_CFG, curves)
