"""A dataset's rows, found by position in the catalog arrays.

``Marketplace.dataset(id)`` refuses an id the catalog lacks, then bisects the
sorted ``ids`` for its position ``j`` and returns a read-only view of
``cells[starts[j]:starts[j + 1]]``. These tests check the lookup at the ends
of small catalogs and on every id of synth1000, and that reading rows, here
or through ``verify_solution``, leaves nothing allocated on the catalog.
"""

import gc
import tracemalloc

import pytest

from bmcc.graph import build_graph_indexed
from bmcc.marketplace import Marketplace, UnknownDatasetError, cents_to_decimal
from bmcc.solvers import solve, verify_solution

from conftest import make_market

LABELS = ("dsa", "dpsa", "dpsa-ba", "cmc-mc", "cmc-mg")


def _two():
    return make_market({"b": [(0, 0), (1, 1)], "d": [(2, 3)]}, theta=2)


# ids that sort before, between or after the catalog's, and "", are refused in
# tests/test_marketplace.py; an id that is no string must be refused as
# unknown too, before the bisection compares it with a string
@pytest.mark.parametrize("did", [5, None])
def test_an_id_that_is_no_string_is_refused(did):
    with pytest.raises(UnknownDatasetError):
        _two().dataset(did)


def _assert_rows_by_position(market):
    for j, did in enumerate(market.ids):
        view = market.dataset(did)
        assert view.id == did
        assert view.cells.tolist() == market.cells[market.starts[j]:market.starts[j + 1]].tolist()
        assert not view.cells.flags.writeable


def test_rows_by_position_on_one_and_two_datasets():
    _assert_rows_by_position(make_market({"only": [(1, 2), (3, 0)]}, theta=2))
    _assert_rows_by_position(_two())


def test_rows_by_position_on_synth1000(synth_giant_component):
    market = synth_giant_component.graph.market
    assert len(market) == 1000
    _assert_rows_by_position(market)


# Bytes that reading every dataset and verifying each of the five solvers'
# answers may leave allocated on a catalog whose cell split is built: the
# reads keep nothing, and an id -> rows map over synth1000 held 149 KiB.
KEPT_BYTES_AFTER_READS = 16 * 1024


def test_reading_rows_keeps_nothing(synth_giant_component):
    shared = synth_giant_component.graph.market
    market = Marketplace(shared.grid, map(shared.dataset, shared.ids), shared.pricing)
    graph = build_graph_indexed(market, 10)
    budget = cents_to_decimal(market.total_price_cents // 10)
    answers = [solve(label, market, budget, 10, graph=graph) for label in LABELS]
    market._split  # built by the solves, before the trace starts
    gc.collect()
    tracemalloc.start()
    try:
        for did in market.ids:
            market.dataset(did)
        for answer in answers:
            assert verify_solution(graph, answer, budget).ok
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < KEPT_BYTES_AFTER_READS, kept
