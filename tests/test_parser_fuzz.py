"""Grammar fuzzing of the four text parsers at the input boundaries.

Each input is built from the header keys and line shapes of one file format,
filled with value tokens that include non-finite, huge, empty and malformed
values. Every input must either parse or raise one of the typed data errors
that the CLI turns into exit code 2; any other exception is a crash. What
does parse must hold values that the library can use: a catalog's dataset
count is that of the header, with no line past it; an adjacency file's
delta is finite and non-negative, its prices non-negative, its node count
that of the header with every id once, and its neighbor lists strictly
ascending without self-loops; a report's coverages are non-negative
integers. The point-file reader and the catalog loader must also agree with
the ones they replaced, kept in ``reference_grid`` and ``reference_catalog``:
the same datasets, or the same error on the same line.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import reference_catalog
import reference_grid
from bmcc.cli import ReportFormatError, _load_report
from bmcc.graph import GraphConfigError, read_adjacency
from bmcc.grid import GridError, read_points_file
from bmcc.marketplace import CatalogFormatError, MarketplaceError, load_catalog

TYPED_ERRORS = (GridError, MarketplaceError, GraphConfigError, ReportFormatError)

TOKENS = ("nan", "inf", "-inf", "1e400", "-", "", "0", "1", "-1", "0.5", "1.005", "31",
          "40", "x", "d0", "usage_based", "explicit_table", "theta", "datasets")
token = st.sampled_from(TOKENS)

FUZZ = settings(max_examples=200, deadline=None)


def corrupted(lines, sep=" "):
    """A valid text given as ``sep``-separated lines, with up to two tokens
    replaced by grammar tokens (the empty one deletes) and now and then cut
    after some line. Few edits keep most inputs deep enough to reach the value
    checks behind the header."""
    def apply(args):
        edits, cut = args
        rows = [line.split(sep) for line in lines]
        for i, j, tok in edits:
            row = rows[-1 - i % len(rows)]  # small draws edit the body lines
            row[j % (len(row) + 1):j % (len(row) + 1) + 1] = [tok]
        return "\n".join(sep.join(row) for row in rows[:cut]) + "\n"
    edits = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 5), token), max_size=2)
    cut = st.one_of(st.just(len(lines)), st.integers(0, len(lines)))
    return st.tuples(edits, cut).map(apply)


def cell_lists(n):
    return st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=3, unique=True)
                    .map(sorted), min_size=n, max_size=n)


@st.composite
def catalog_text(draw):
    """A valid catalog, now and then with its last dataset line past the
    header's count, then corrupted."""
    kind = draw(st.sampled_from(("usage_based", "explicit_table")))
    cells = draw(cell_lists(draw(st.integers(1, 3))))
    count = len(cells) - draw(st.booleans())
    lines = ["CBCAT 1", f"theta {draw(st.sampled_from((2, 3)))}", "origin 0.0 -1.5",
             "cell 1.0 0.5", f"pricing {kind}", f"datasets {count}"]
    for i, cs in enumerate(cells):
        price = "-" if kind == "usage_based" else draw(st.sampled_from(("1", "2.50")))
        lines.append(" ".join([f"d{i}", price, str(len(cs)), *map(str, cs)]))
    return draw(corrupted(lines))


@st.composite
def adjacency_text(draw):
    """A valid adjacency file, now and then with a neighbor list reversed or a
    node line repeated (counted in the header or past it), then corrupted."""
    n = draw(st.integers(1, 3))
    edges = draw(st.sets(st.sampled_from([(u, v) for u in range(n) for v in range(u + 1, n)])
                         if n > 1 else st.nothing()))
    reverse = draw(st.integers(-1, n - 1))
    repeat, counted = draw(st.integers(-1, n - 1)), draw(st.booleans())
    count = n + (repeat >= 0 and counted)
    lines = ["CBGRAPH 1", "delta 1.0", f"nodes {count}"]
    for u in range(n):
        nbrs = sorted(f"d{v}" for e in edges for v in e if u in e and v != u)
        if u == reverse:
            nbrs.reverse()
        lines.append(" ".join([f"d{u}", "1.50", str(len(nbrs)), *nbrs]))
    if repeat >= 0:
        lines.append(lines[3 + repeat])
    return draw(corrupted(lines))


@st.composite
def points_text(draw):
    """Point rows over a few repeated ids, among blank, whitespace-only and
    short rows; now and then one row, at any position, names an empty or
    whitespace-holding id. Then corrupted."""
    row = st.one_of(
        st.tuples(st.sampled_from(("d0", "d1", " d1 ")), st.floats(-2, 2), st.floats(-2, 2))
        .map(lambda r: f"{r[0]},{r[1]!r},{r[2]!r}"),
        st.sampled_from(("", " ", "d0", "d1,0.5")))
    rows = draw(st.lists(row, min_size=1, max_size=6))
    bad_id = draw(st.sampled_from((None, "", " ", "a b", "d\t0")))
    if bad_id is not None:
        rows.insert(draw(st.integers(0, len(rows))), f"{bad_id},0.5,0.5")
    return draw(corrupted(["dataset_id,x,y", *rows], sep=","))


# JSON cannot spell 1e400, so a placeholder string is swapped for the literal
BIG = "__1e400__"
json_value = st.sampled_from(("", "nan", "1e400", "Infinity", "-", 0, -1, 2.5,
                              float("inf"), float("nan"), None, True, BIG, [], {}))
report_entry = st.one_of(
    st.fixed_dictionaries(
        {"algorithm": st.sampled_from(("dsa", "exact")),
         "selected": st.lists(st.sampled_from(("d0", "d1")), max_size=2),
         "total_price": st.one_of(st.sampled_from(("4.00", "15")), json_value),
         "coverage": st.one_of(st.sampled_from((5, 15)), json_value)},
        optional={"status": st.sampled_from(("ok", 1))}),
    st.dictionaries(st.sampled_from(("algorithm", "selected", "total_price", "coverage")),
                    st.one_of(json_value, st.lists(json_value, max_size=2))))
report_text = st.one_of(
    st.builds(lambda entries: {"solutions": entries}, st.lists(report_entry, max_size=3)),
    st.lists(report_entry, max_size=3),
    json_value,
).map(lambda payload: json.dumps(payload).replace(f'"{BIG}"', "1e400"))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


def parses_or_raises_typed_error(parser, path, text):
    """The parsed value, or None when the parser raised a typed error."""
    path.write_text(text, encoding="utf-8")
    try:
        return parser(path)
    except TYPED_ERRORS:
        return None


@FUZZ
@given(text=catalog_text())
def test_catalog_parser(scratch_file, text):
    market = parses_or_raises_typed_error(load_catalog, scratch_file, text)
    if market is not None:
        # one dataset per counted line; no line past the count
        lines = text.splitlines()
        dataset_lines = [line for line in lines[6:] if line.strip()]
        assert len(market) == len(dataset_lines) == int(lines[5].split()[1])


def catalog_outcome(loader, path):
    """The catalog's ids, grid, pricing kind, prices and each dataset's cell
    dtype and ids, or the typed error raised with its message."""
    try:
        market = loader(path)
    except TYPED_ERRORS as exc:
        return type(exc), str(exc)
    return (market.ids, market.grid, market.pricing.kind,
            [market.price_cents(did) for did in market.ids],
            [(d.cells.dtype, d.cells.tolist()) for d in map(market.dataset, market.ids)])


@FUZZ
@given(text=catalog_text())
def test_catalog_loader_matches_reference(scratch_file, text):
    scratch_file.write_text(text, encoding="utf-8")
    want = catalog_outcome(reference_catalog.load_catalog, scratch_file)
    assert catalog_outcome(load_catalog, scratch_file) == want


LOADER_CATALOG = ["CBCAT 1", "theta 3", "origin 0.0 0.0", "cell 1.0 1.0", "pricing usage_based",
                  "datasets 5", "a - 2 5 9", "b - 3 1 2 3", "c - 1 63", "d - 2 0 7", "e - 1 4"]


@pytest.mark.parametrize("faults, message", [
    ({8: "b - 3 1 3 2", 9: "c - 1 x"},
     "dataset 'b': cell ids must be strictly ascending at line 8"),
    ({8: "b - 3 1 x 3", 9: "c - 2 9 8"}, "dataset 'b': non-integer count or cell at line 8"),
    ({7: "a - 2 5 64", 8: "a - 3 1 2 3"}, "dataset 'a': cell id 64 outside 4**theta at line 7"),
    ({8: "a - 3 1 2 3", 9: "c - 1 64"}, "repeated dataset id 'a' at line 8"),
    ({9: "c - 1 99999999999999999999", 10: "d - 2 -1 7"},
     "dataset 'c': cell id outside int64 at line 9"),
    ({9: "c - 1 -1", 10: "d - 1 0 7"}, "dataset 'c': negative cell id at line 9"),
    ({10: "d - 1 x 7"}, "dataset 'd': non-integer count or cell at line 10"),
    ({10: "d - 3 9 7"}, "dataset 'd': cell count mismatch at line 10"),
    ({10: "d 1 2 9 7"}, "dataset 'd': price must be '-' under usage pricing at line 10"),
    ({11: "e - 2 64 4"}, "dataset 'e': cell ids must be strictly ascending at line 11"),
], ids=["descending-before-non-integer", "non-integer-before-descending",
        "outside-before-repeated", "repeated-before-outside", "int64-before-negative",
        "negative-before-count", "non-integer-with-count", "count-with-descending",
        "price-with-descending", "outside-and-descending-last"])
def test_first_faulty_catalog_line_wins(tmp_path, faults, message):
    path = tmp_path / "catalog"
    lines = [faults.get(number, text) for number, text in enumerate(LOADER_CATALOG, start=1)]
    path.write_text("\n".join(lines) + "\n")
    assert catalog_outcome(load_catalog, path) == (CatalogFormatError, message)
    assert catalog_outcome(reference_catalog.load_catalog, path) == (CatalogFormatError, message)


@FUZZ
@given(text=adjacency_text())
def test_adjacency_parser(scratch_file, text):
    graph = parses_or_raises_typed_error(read_adjacency, scratch_file, text)
    if graph is not None:
        assert math.isfinite(graph.delta) and graph.delta >= 0
        assert all(p >= 0 for p in graph.prices.values())
        # one node per counted line, each id once; no line past the count
        lines = text.splitlines()
        node_lines = [line for line in lines[3:] if line.strip()]
        assert len(graph.adjacency) == len(node_lines) == int(lines[2].split()[1])
        for u, nbrs in graph.adjacency.items():
            assert u not in nbrs and list(nbrs) == sorted(set(nbrs))


def points_outcome(parser, path):
    """Each dataset's id and point bytes, in order, or the typed error raised
    with its line number and message."""
    try:
        return [(d.id, d.points.tobytes()) for d in parser(path)]
    except TYPED_ERRORS as exc:
        return type(exc), getattr(exc, "line_number", None), str(exc)


@FUZZ
@given(text=points_text())
def test_points_parser(scratch_file, text):
    scratch_file.write_text(text, encoding="utf-8")
    want = points_outcome(reference_grid.read_points_file, scratch_file)
    assert points_outcome(read_points_file, scratch_file) == want


@FUZZ
@given(text=report_text)
def test_report_parser(scratch_file, text):
    solutions = parses_or_raises_typed_error(_load_report, scratch_file, text)
    for sol in solutions or ():
        assert type(sol.coverage) is int and sol.coverage >= 0
