import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tilinglab.graphs import Pattern, complete_graph, parse_graph


@pytest.fixture(scope="session")
def k3():
    return Pattern.clique(3)


@pytest.fixture(scope="session")
def k2():
    return Pattern.clique(2)


@pytest.fixture(scope="session")
def c4_pattern():
    return Pattern(parse_graph("4 4\n0 1\n1 2\n2 3\n0 3"))


@pytest.fixture(scope="session")
def k9():
    return complete_graph(9)
