import numpy as np
import pytest

from gradchain.chain import solve_chain
from gradchain.cli import _json_pieces
from gradchain.config import PolynomialField, TrapConfig, validate_config
from gradchain.constants import Species
from gradchain.coupling import build_report

# Reference constants, duplicated as literals on purpose: test expectations
# must not be computed through the code under test.
HBAR = 1.0545718176461565e-34
MU_B = 9.2740100657e-24
E_CHARGE = 1.602176634e-19
EPS0 = 8.8541878188e-12
AMU = 1.66053906892e-27
C_LIGHT = 299792458.0
TWO_PI = 2.0 * np.pi

YB_MASS = 171.0 * AMU


def mu0_quadratic_config(n, moments=(0.3, 1.0)):
    """n ions of Yb171's mass and splitting, level moments (mu0, mu1) = `moments`, in B = 10 z + 2e5 z^2 at 100 kHz."""
    species = Species("mu0_test", 171.0 * AMU, 12.6e9, moment_state0=moments[0], moment_state1=moments[1])
    return TrapConfig(species, n, 1e5, PolynomialField((0.0, 10.0, 2e5)), TWO_PI * 12.6e9 / C_LIGHT)


def json_text(node) -> str:
    """The text the CLI's JSON writer gives `node`, without the trailing newline."""
    return "".join(_json_pieces(node))


def standard_raw(n=2, nu1="100kHz", b="10T/m", b0="0T"):
    return {
        "species": "Yb171",
        "N": n,
        "nu1": nu1,
        "field": {"uniform": {"B0": b0, "b": b}},
    }


@pytest.fixture(scope="session")
def config2():
    return validate_config(standard_raw(n=2))


@pytest.fixture(scope="session")
def chain2(config2):
    return solve_chain(config2)


@pytest.fixture(scope="session")
def report2(config2, chain2):
    return build_report(config2, chain2)


@pytest.fixture(scope="session")
def config10():
    return validate_config(standard_raw(n=10))


@pytest.fixture(scope="session")
def chain10(config10):
    return solve_chain(config10)


@pytest.fixture(scope="session")
def report10(config10, chain10):
    return build_report(config10, chain10)
