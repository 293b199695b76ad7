"""The recursive searches leave no reference cycles behind: a call frees
everything it allocated by reference counting alone, so a large induced
subgraph or candidate list never waits for a full garbage collection."""

import gc

import pytest

from tilinglab import absorption
from tilinglab.embed import embeddings
from tilinglab.factor import find_factor_exact
from tilinglab.generators import gen_gnp
from tilinglab.graphs import Pattern, parse_graph
from tilinglab.invariants import alpha_ell, max_clique, traversing_check
from tilinglab.matching import max_bipartite_matching

G30 = gen_gnp(30, 0.6, 1)
C4 = Pattern(parse_graph("4 4\n0 1\n1 2\n2 3\n0 3"))

CALLS = {
    "find_factor_exact": lambda: find_factor_exact(G30, Pattern.clique(3)),
    "alpha_ell": lambda: alpha_ell(G30, 2),
    "max_clique": lambda: max_clique(G30),
    "max_bipartite_matching": lambda: max_bipartite_matching(
        30, 30, [list(G30.neighbors(v)) for v in range(30)]),
    "embeddings": lambda: list(embeddings(G30, C4, (1 << 30) - 1, anchor=0)),
    "disjoint_copies": lambda: absorption._disjoint_copies(
        gen_gnp(8, 0.6, 3), Pattern.clique(3), [0, 1], range(2, 8), 2, 0),
    "traversing_check": lambda: traversing_check(gen_gnp(8, 0.6, 1), Pattern.clique(3), 2),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_search_leaves_no_cycles(name):
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        CALLS[name]()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
