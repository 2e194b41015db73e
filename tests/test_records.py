"""The package's seven records: built by keyword, frozen, compared by value or by identity."""

from __future__ import annotations

import numpy as np
import pytest

from graphstego import decoder, gf2, graphs
from graphstego.codec import EmbedReport, embed_stream
from graphstego.decoder import CosetTable, build_coset_table_bruteforce
from graphstego.graphs import (
    CodeReport,
    Graph,
    GraphicalCode,
    SpanningTree,
    build_code,
    code_report,
    complete_graph,
)
from graphstego.images import CoverImage

FIELDS = {
    Graph: ("vertex_count", "edges"),
    SpanningTree: ("tree_edges", "chords"),
    GraphicalCode: ("graph", "tree", "generator_rows", "check_rows", "n_len", "k", "d"),
    CodeReport: ("n_len", "k", "d", "girth", "p", "rho", "embedding_rate",
                 "embedding_efficiency"),
    CosetTable: ("code", "rows", "rho"),
    EmbedReport: ("blocks_used", "total_flips", "max_flips_per_block", "embedding_rate",
                  "theoretical_efficiency", "empirical_efficiency"),
    CoverImage: ("width", "height", "channels", "depth", "pixels", "format_tag"),
}
BY_VALUE = (Graph, SpanningTree, CodeReport, EmbedReport)


@pytest.fixture(scope="module")
def records():
    """One record of each class, from a K5 code and a small embed."""
    code = build_code(complete_graph(5))
    table = build_coset_table_bruteforce(code)
    bits = np.random.default_rng(3).integers(0, 2, 400, dtype=np.uint8)
    report = embed_stream(bits, bits[:60], table)[1]
    cover = CoverImage(width=4, height=2, channels=1, depth=8, pixels=np.arange(8, dtype=np.uint8),
                       format_tag="pgm")
    return {Graph: code.graph, SpanningTree: code.tree, GraphicalCode: code,
            CodeReport: code_report(code, table.rho), CosetTable: table, EmbedReport: report,
            CoverImage: cover}


def _rebuilt(record):
    """A new record of the same class from ``record``'s fields, given by keyword."""
    return type(record)(**{name: getattr(record, name) for name in FIELDS[type(record)]})


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_records_are_built_by_keyword(cls, records):
    record = records[cls]
    copy = _rebuilt(record)
    assert type(copy) is cls
    assert all(getattr(copy, name) is getattr(record, name) for name in FIELDS[cls])
    values = [getattr(record, name) for name in FIELDS[cls]]
    fields = dict(zip(FIELDS[cls], values))
    with pytest.raises(TypeError):
        cls(*values)
    with pytest.raises(TypeError):
        cls(**dict(fields, extra=1))
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in fields.items() if name != FIELDS[cls][-1]})


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_records_are_frozen(cls, records):
    record = records[cls]
    for name in (*FIELDS[cls], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert all(hasattr(record, name) for name in FIELDS[cls])
    assert not hasattr(record, "extra")


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_records_compare_by_value_or_by_identity(cls, records):
    record, copy = records[cls], _rebuilt(records[cls])
    assert record == record
    if cls in BY_VALUE:
        assert copy == record and hash(copy) == hash(record)
        changed = cls(**{name: getattr(record, name) for name in FIELDS[cls]}
                        | {FIELDS[cls][0]: None})
        assert changed != record
    else:
        assert copy != record
        assert len({record, copy}) == 2  # hashable, by identity
    assert record != tuple(getattr(record, name) for name in FIELDS[cls])


def test_record_repr_names_the_class_and_its_fields(records):
    triangle = build_code(complete_graph(3))
    assert repr(triangle.graph) == "Graph(vertex_count=3, edges=((1, 1, 2), (2, 1, 3), (3, 2, 3)))"
    assert repr(triangle.tree) == "SpanningTree(tree_edges=(1, 2), chords=(3,))"
    for cls, record in records.items():
        text = repr(record)
        assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
        assert [name for name in FIELDS[cls] if f"{name}=" not in text] == []


def test_cached_properties_are_built_once(monkeypatch):
    code = build_code(complete_graph(5))
    built = build_coset_table_bruteforce(code)  # its builder fills ``leaders`` itself
    table = CosetTable(code=code, rows=built.rows, rho=built.rho)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(graphs, "syndrome_tables", counted("tables", gf2.syndrome_tables))
    matrix = counted("matrix", graphs._bit_matrix)
    monkeypatch.setattr(graphs, "_bit_matrix", matrix)  # parity_check's
    monkeypatch.setattr(decoder, "_bit_matrix", matrix)  # leaders'
    assert code.check_tables is code.check_tables  # builds parity_check and its tables once
    assert calls == ["matrix", "tables"]
    calls.clear()
    assert table.leaders is table.leaders
    assert calls == ["matrix"]
    assert np.array_equal(table.leaders, built.leaders)
