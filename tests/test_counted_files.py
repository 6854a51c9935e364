"""The envelope shared by the catalog and the adjacency file: a magic and
version line, header lines, a record count and exactly that many record
lines. Both readers reject each envelope fault with their own typed error
naming the line at fault."""

import re

import pytest

from bmcc.graph import GraphConfigError, read_adjacency
from bmcc.marketplace import CatalogFormatError, load_catalog

CATALOG = ["CBCAT 1", "theta 3", "origin 0.0 0.0", "cell 1.0 1.0",
           "pricing usage_based", "datasets 2", "a - 1 0", "b - 1 1"]
ADJACENCY = ["CBGRAPH 1", "delta 1.0", "nodes 2", "a 1.00 1 b", "b 1.00 1 a"]

READERS = {"catalog": (load_catalog, CatalogFormatError),
           "adjacency": (read_adjacency, GraphConfigError)}


def with_line(lines, number, text):
    return lines[:number - 1] + [text] + lines[number:]


# (file kind, its lines, the line named, a fragment of the message)
CASES = {
    "catalog-bad-magic": ("catalog", with_line(CATALOG, 1, "NOTACAT 1"), 1, "bad magic"),
    "adjacency-bad-magic": ("adjacency", with_line(ADJACENCY, 1, "NOTAGRAPH 1"), 1,
                            "bad magic"),
    "catalog-empty": ("catalog", [], 1, "bad magic"),
    "adjacency-empty": ("adjacency", [], 1, "bad magic"),
    "catalog-version": ("catalog", with_line(CATALOG, 1, "CBCAT 2"), 1, "version '2'"),
    "adjacency-version": ("adjacency", with_line(ADJACENCY, 1, "CBGRAPH 2"), 1,
                          "version '2'"),
    "catalog-negative-count": ("catalog", with_line(CATALOG, 6, "datasets -1"), 6,
                               "negative"),
    "adjacency-negative-count": ("adjacency", with_line(ADJACENCY, 3, "nodes -1"), 3,
                                 "negative"),
    "catalog-missing-record": ("catalog", CATALOG[:-1], 8, "found 1"),
    "adjacency-missing-record": ("adjacency", ADJACENCY[:-1], 5, "found 1"),
    "catalog-line-past-count": ("catalog", CATALOG + ["", "c - 1 2"], 10, "is past"),
    "adjacency-line-past-count": ("adjacency", ADJACENCY + ["", "c 1.00 0"], 7,
                                  "is past"),
}


@pytest.mark.parametrize("kind, lines, line, message", CASES.values(), ids=CASES)
def test_envelope_fault_names_its_line(tmp_path, kind, lines, line, message):
    read, error = READERS[kind]
    path = tmp_path / kind
    path.write_text("".join(text + "\n" for text in lines))
    with pytest.raises(error, match=re.escape(message)) as info:
        read(path)
    assert re.search(rf"\bline {line}\b", str(info.value))


def test_trailing_blank_lines_accepted(tmp_path):
    path = tmp_path / "file"
    path.write_text("\n".join(CATALOG) + "\n\n \n")
    assert load_catalog(path).ids == ("a", "b")
    path.write_text("\n".join(ADJACENCY) + "\n\n \n")
    assert read_adjacency(path).nodes == ("a", "b")


@pytest.mark.parametrize("record, message", [
    ("b - 2 1 0", "strictly ascending"),
    ("b - 1 -1", "negative cell id"),
    ("b - 1 64", "outside 4**theta"),
], ids=["descending", "negative", "outside-grid"])
def test_catalog_cell_fault_names_its_line(tmp_path, record, message):
    path = tmp_path / "catalog"
    path.write_text("\n".join(with_line(CATALOG, 8, record)) + "\n")
    with pytest.raises(CatalogFormatError, match=rf"^dataset 'b': .*{re.escape(message)} at line 8$"):
        load_catalog(path)
