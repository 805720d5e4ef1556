"""Fixtures of the explorer tests."""

import pytest

from repro.sim.system import network_implementation
from tests.explore.helpers import NETWORKS


@pytest.fixture(params=list(NETWORKS))
def network(request):
    """Run the test once per network class, each swapped in for the
    whole test; the value is the class every system is then built on."""
    with network_implementation(NETWORKS[request.param]):
        yield NETWORKS[request.param]
