"""Syndrome-coding steganography with cycle codes of graphs.

Build a binary linear code from any connected graph (length = edges,
dimension = independent cycles, distance = girth), tabulate its coset
leaders, and use the table to hide p = vertices - 1 message bits per
n-bit block of an image's LSB plane with at most rho (covering radius)
flips per block.
"""

from .codebook import (
    CodebookError,
    bundled_codebook_text,
    code_from_codebook,
    format_codebook,
    parse_codebook,
)
from .codec import (
    CapacityError,
    EmbedReport,
    FrameError,
    bits_to_bytes,
    bytes_to_bits,
    embed_block,
    embed_image,
    embed_stream,
    extract_block,
    extract_image,
    extract_stream,
    frame_payload,
)
from .decoder import (
    CosetTable,
    TableCacheError,
    TableSizeError,
    build_coset_table_bruteforce,
    build_coset_table_tjoin,
    covering_radius_bruteforce,
    covering_radius_tjoin,
    load_table,
    minimum_t_join,
    save_table,
    syndrome_to_terminals,
)
from .graphs import (
    CodeReport,
    Graph,
    GraphError,
    GraphicalCode,
    SpanningTree,
    build_code,
    build_graph,
    code_report,
    complete_graph,
    girth,
    spanning_tree,
    spanning_tree_from_ids,
)
from .images import (
    CoverImage,
    ImageFormatError,
    load_image,
    lsb_extract,
    lsb_inject,
    peak_signal_noise,
    save_image,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CodeReport",
    "CodebookError",
    "CosetTable",
    "CoverImage",
    "EmbedReport",
    "FrameError",
    "Graph",
    "GraphError",
    "GraphicalCode",
    "ImageFormatError",
    "SpanningTree",
    "TableCacheError",
    "TableSizeError",
    "bits_to_bytes",
    "build_code",
    "build_coset_table_bruteforce",
    "build_coset_table_tjoin",
    "build_graph",
    "bundled_codebook_text",
    "bytes_to_bits",
    "code_from_codebook",
    "code_report",
    "complete_graph",
    "covering_radius_bruteforce",
    "covering_radius_tjoin",
    "embed_block",
    "embed_image",
    "embed_stream",
    "extract_block",
    "extract_image",
    "extract_stream",
    "format_codebook",
    "frame_payload",
    "girth",
    "load_image",
    "load_table",
    "lsb_extract",
    "lsb_inject",
    "minimum_t_join",
    "parse_codebook",
    "peak_signal_noise",
    "save_image",
    "save_table",
    "spanning_tree",
    "spanning_tree_from_ids",
    "syndrome_to_terminals",
    "__version__",
]
