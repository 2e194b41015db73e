"""Plain-text codebook format shared by sender and receiver.

::

    graphcode v1
    vertices <N>
    edge <id> <u> <v>
    tree <id> <id> ...

One ``edge`` line per edge, ids 1..m in file order (the file order is
the code's column order).  The optional ``tree`` line pins the
spanning tree; its id order is kept as the cut-set row order, which
makes the syndrome bit layout part of the shared secret.  Without it,
the tree is the BFS tree from vertex 1 with rows in ascending edge-id
order.  Blank lines are ignored; anything else is an error.
"""

from __future__ import annotations

from importlib import resources

from .graphs import Graph, GraphicalCode, build_code, build_graph

MAGIC = "graphcode v1"

_BUNDLED = {
    "k5": "k5_reference.graphcode",
}


class CodebookError(ValueError):
    """Raised for text that is not a well-formed codebook."""


def _decimal(field: str) -> int:
    """ASCII decimal digits alone as a number: ``int`` also reads ``+1``, ``1_0`` and ``\u0663``."""
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"not a decimal number: {field!r}")
    return int(field)


def parse_codebook(text: str) -> tuple[Graph, tuple[int, ...] | None]:
    """Parse codebook text into a validated graph and optional tree ids.

    Raises:
        CodebookError: on any syntax problem.
        GraphError: if the edge list itself is invalid (disconnected,
            parallel edges, ...).
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != MAGIC:
        raise CodebookError(f"missing '{MAGIC}' header")
    if len(lines) < 2 or not lines[1].startswith("vertices "):
        raise CodebookError("expected 'vertices <N>' on the second line")
    try:
        (vertex_count,) = map(_decimal, lines[1].split()[1:])
    except ValueError:
        raise CodebookError(f"bad vertices line: {lines[1]!r}") from None

    edges: list[tuple[int, int]] = []
    tree_ids: tuple[int, ...] | None = None
    for ln in lines[2:]:
        fields = ln.split()
        if fields[0] == "edge":
            if tree_ids is not None:
                raise CodebookError("edge line after tree line")
            try:
                eid, u, v = map(_decimal, fields[1:])
            except ValueError:
                raise CodebookError(f"bad edge line: {ln!r}") from None
            if eid != len(edges) + 1:
                raise CodebookError(
                    f"edge ids must run 1..m in order; got {eid} at position {len(edges) + 1}"
                )
            edges.append((u, v))
        elif fields[0] == "tree":
            if tree_ids is not None:
                raise CodebookError("duplicate tree line")
            try:
                tree_ids = tuple(map(_decimal, fields[1:]))
            except ValueError:
                raise CodebookError(f"bad tree line: {ln!r}") from None
            if not tree_ids:
                raise CodebookError("tree line lists no edge ids")
        else:
            raise CodebookError(f"unrecognized line: {ln!r}")
    if not edges:
        raise CodebookError("codebook lists no edges")
    return build_graph(vertex_count, edges), tree_ids


def format_codebook(graph: Graph, tree_ids=None) -> str:
    """Render a graph (and optional pinned tree) in codebook format."""
    out = [MAGIC, f"vertices {graph.vertex_count}"]
    out.extend(f"edge {eid} {u} {v}" for eid, u, v in graph.edges)
    if tree_ids is not None:
        out.append("tree " + " ".join(str(int(e)) for e in tree_ids))
    return "\n".join(out) + "\n"


def code_from_codebook(text: str) -> GraphicalCode:
    """Parse codebook text and build its cycle code."""
    graph, tree_ids = parse_codebook(text)
    return build_code(graph, tree_ids)


def bundled_codebook_text(name: str = "k5") -> str:
    """Text of a codebook shipped with the package.

    ``"k5"`` is the worked reference: K5 with the path tree 1-2-3-4-5
    pinned so that its tables match the documented examples bit for bit.
    """
    try:
        filename = _BUNDLED[name]
    except KeyError:
        raise CodebookError(
            f"unknown bundled codebook {name!r}; available: {sorted(_BUNDLED)}"
        ) from None
    return resources.files("graphstego.data").joinpath(filename).read_text("utf-8")
