import numpy as np
import pytest
from hypothesis import settings

from qummsa.dataio import titanic_database

# One profile for every property test.  Examples that run a dense reference
# vary widely in time, so hypothesis's per-example deadline is off; each test
# keeps its own max_examples.
settings.register_profile("qummsa", deadline=None)
settings.load_profile("qummsa")


@pytest.fixture(scope="session")
def titanic():
    return titanic_database()


def assert_phase_equal(u: np.ndarray, v: np.ndarray, tol: float = 1e-10):
    """Assert two matrices are equal up to a global phase."""
    k = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    assert abs(v[k]) > 1e-12, "reference matrix is zero"
    phase = u[k] / v[k]
    assert abs(abs(phase) - 1.0) < tol
    np.testing.assert_allclose(u, phase * v, atol=tol)
