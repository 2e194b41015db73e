from __future__ import annotations

import pytest

from graphstego.codebook import (
    CodebookError,
    bundled_codebook_text,
    code_from_codebook,
    format_codebook,
    parse_codebook,
)
from graphstego.graphs import GraphError, complete_graph


def test_bundled_reference_parses(k5_code):
    text = bundled_codebook_text("k5")
    graph, tree_ids = parse_codebook(text)
    assert graph.vertex_count == 5
    assert graph.edge_count == 10
    assert tree_ids == (1, 5, 10, 7)
    assert code_from_codebook(text).tree.tree_edges == k5_code.tree.tree_edges


def test_bundled_unknown_name():
    with pytest.raises(CodebookError):
        bundled_codebook_text("nope")


def test_format_parse_roundtrip():
    g = complete_graph(4)
    text = format_codebook(g, tree_ids=(3, 1, 2))
    graph, tree_ids = parse_codebook(text)
    assert graph.edges == g.edges
    assert tree_ids == (3, 1, 2)
    # and without a tree line
    graph2, tree2 = parse_codebook(format_codebook(g))
    assert graph2.edges == g.edges
    assert tree2 is None


def test_parse_rejects_bad_header():
    with pytest.raises(CodebookError):
        parse_codebook("graphcode v2\nvertices 3\nedge 1 1 2\n")
    with pytest.raises(CodebookError):
        parse_codebook("")
    with pytest.raises(CodebookError):
        parse_codebook("graphcode v1\nedge 1 1 2\n")


def test_parse_rejects_bad_edge_lines():
    head = "graphcode v1\nvertices 3\n"
    with pytest.raises(CodebookError):
        parse_codebook(head + "edge 2 1 2\n")  # ids must start at 1
    with pytest.raises(CodebookError):
        parse_codebook(head + "edge 1 1 2\nedge 3 2 3\n")  # gap
    with pytest.raises(CodebookError):
        parse_codebook(head + "edge 1 1 2\nedge 2 2\n")  # missing field
    with pytest.raises(CodebookError):
        parse_codebook(head + "edge 1 1 2\nvertex 9\n")  # junk line
    with pytest.raises(CodebookError):
        parse_codebook(head)  # no edges at all


def test_parse_rejects_bad_tree_lines():
    text = "graphcode v1\nvertices 3\nedge 1 1 2\nedge 2 2 3\nedge 3 1 3\n"
    with pytest.raises(CodebookError):
        parse_codebook(text + "tree\n")
    with pytest.raises(CodebookError):
        parse_codebook(text + "tree 1 2\ntree 1 2\n")
    with pytest.raises(CodebookError):
        parse_codebook(text + "tree 1 2\nedge 4 1 3\n")  # edge after tree
    # syntactically fine but not a spanning tree -> graph-level error
    with pytest.raises(GraphError):
        code_from_codebook(text + "tree 1\n")


def test_graph_level_errors_propagate():
    with pytest.raises(GraphError):
        parse_codebook("graphcode v1\nvertices 4\nedge 1 1 2\nedge 2 3 4\n")
