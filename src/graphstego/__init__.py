"""Syndrome-coding steganography with cycle codes of graphs.

Build a binary linear code from any connected graph (length = edges,
dimension = independent cycles, distance = girth), tabulate its coset
leaders, and use the table to hide p = vertices - 1 message bits per
n-bit block of an image's LSB plane with at most rho (covering radius)
flips per block.

No module of the package imports numpy when it loads: the functions
that handle pixels or build tables import it when they first run, and
a table cache loads without it.  The names
below load with the module that defines them, on first use (PEP 562),
so ``import graphstego`` alone imports no other module.
"""

from importlib import import_module

_EXPORTS = {
    "codebook": (
        "CodebookError",
        "bundled_codebook_text",
        "code_from_codebook",
        "format_codebook",
        "parse_codebook",
    ),
    "codec": (
        "CapacityError",
        "EmbedReport",
        "bits_to_bytes",
        "bytes_to_bits",
        "embed_block",
        "embed_file",
        "embed_stream",
        "extract_block",
        "extract_file",
        "extract_stream",
        "FrameError",
        "frame_payload",
    ),
    "decoder": (
        "CosetTable",
        "TableCacheError",
        "TableSizeError",
        "build_coset_table_bruteforce",
        "build_coset_table_tjoin",
        "covering_radius_bruteforce",
        "covering_radius_tjoin",
        "load_table",
        "minimum_t_join",
        "save_table",
        "syndrome_to_terminals",
    ),
    "graphs": (
        "CodeReport",
        "Graph",
        "GraphError",
        "GraphicalCode",
        "SpanningTree",
        "build_code",
        "build_graph",
        "code_report",
        "complete_graph",
        "girth",
        "spanning_tree",
        "spanning_tree_from_ids",
    ),
    "images": (
        "CoverImage",
        "ImageFormatError",
        "load_image",
        "lsb_extract",
        "lsb_inject",
        "peak_signal_noise",
        "save_image",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
