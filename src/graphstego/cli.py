"""Command-line front end.

Subcommands: codebook (write a graph description), analyze (code
parameters and metrics), embed / extract (LSB steganography on
PGM/BMP covers), table (recompute the published protocol-comparison
figures).  Exit codes: 0 success, 2 usage, 3 format/parse error,
4 capacity exceeded, 5 invariant violation, 6 code too large for a
coset table (more than MAX_SYNDROME_BITS syndrome bits).
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import sys
from importlib import resources
from pathlib import Path

from .codebook import CodebookError, code_from_codebook, format_codebook
from .codec import (
    CapacityError,
    FrameError,
    bits_to_bytes,
    bytes_to_bits,
    embed_image,
    extract_image,
)
from .decoder import (
    TableCacheError,
    TableSizeError,
    build_coset_table_bruteforce,
    covering_radius_bruteforce,
    covering_radius_tjoin,
)
from .graphs import GraphError, build_graph, code_report, complete_graph
from .images import ImageFormatError, load_image, peak_signal_noise, save_image

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_CAPACITY = 4
EXIT_INVARIANT = 5
EXIT_TABLE_SIZE = 6


class _UsageError(ValueError):
    pass


# First match wins; every other ValueError is a usage error.
_EXIT_CODES = (
    (_UsageError, EXIT_USAGE),
    (CapacityError, EXIT_CAPACITY),
    (TableSizeError, EXIT_TABLE_SIZE),
    ((CodebookError, GraphError, ImageFormatError, FrameError, TableCacheError), EXIT_FORMAT),
    (OSError, EXIT_FORMAT),
    (ValueError, EXIT_USAGE),
)


def _parse_graph_spec(spec: str):
    """``K<n>`` or ``file:<path>`` (edge-list text) -> (graph, label)."""
    m = re.fullmatch(r"[Kk](\d+)", spec)
    if m:
        q = int(m.group(1))
        if q < 3:
            raise _UsageError(f"K{q} has no cycles; need n >= 3")
        return complete_graph(q), f"K{q}"
    if spec.startswith("file:"):
        path = Path(spec[5:])
        try:
            text = path.read_text("utf-8")
        except OSError as exc:
            raise CodebookError(f"cannot read edge list {path}: {exc}") from None
        pairs = []
        top = 0
        for lineno, ln in enumerate(text.splitlines(), start=1):
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            fields = ln.split()
            if len(fields) != 2:
                raise CodebookError(f"{path}:{lineno}: expected 'u v', got {ln!r}")
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError:
                raise CodebookError(f"{path}:{lineno}: expected 'u v', got {ln!r}") from None
            pairs.append((u, v))
            top = max(top, u, v)
        if not pairs:
            raise CodebookError(f"{path}: edge list is empty")
        return build_graph(top, pairs), path.name
    raise _UsageError(f"graph spec must be K<n> or file:<path>, got {spec!r}")


def _cmd_codebook(args) -> int:
    graph, label = _parse_graph_spec(args.spec)
    tree_ids = None
    if args.tree:
        try:
            tree_ids = [int(f) for f in args.tree.split(",")]
        except ValueError:
            raise _UsageError(f"--tree wants comma-separated edge ids, got {args.tree!r}") from None
    text = format_codebook(graph, tree_ids)
    code = code_from_codebook(text)  # reject trees / bad tree ids before writing
    Path(args.out).write_text(text, "utf-8")
    print(
        f"wrote {args.out}: {label}, n={code.n_len} k={code.k} d={code.d}"
    )
    return EXIT_OK


def _metric_lines(code, rho: int, porcelain: bool) -> list[str]:
    rep = code_report(code, rho)
    if porcelain:
        return [
            f"n={rep.n_len}",
            f"k={rep.k}",
            f"d={rep.d}",
            f"girth={rep.girth}",
            f"p={rep.p}",
            f"rho={rep.rho}",
            f"embedding_rate={rep.embedding_rate:.4f}",
            f"embedding_efficiency={rep.embedding_efficiency:.4f}",
        ]
    return [
        f"n={rep.n_len} k={rep.k} d={rep.d} girth={rep.girth} p={rep.p} "
        f"rho={rep.rho} ER={rep.embedding_rate:.2f} EF={rep.embedding_efficiency:.2f}"
    ]


def _cmd_analyze(args) -> int:
    code = code_from_codebook(Path(args.codebook).read_text("utf-8"))
    rho = covering_radius_bruteforce(code)
    rho_join = covering_radius_tjoin(code.graph)
    if rho != rho_join:
        print(
            f"error: covering-radius oracles disagree ({rho} vs {rho_join})",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    for line in _metric_lines(code, rho, args.porcelain):
        print(line)
    return EXIT_OK


def _cmd_embed(args) -> int:
    code = code_from_codebook(Path(args.codebook).read_text("utf-8"))
    table = build_coset_table_bruteforce(code)
    cover = load_image(args.cover)
    payload = Path(args.payload).read_bytes()
    stego, report = embed_image(cover, bytes_to_bits(payload), table)
    save_image(stego, args.out)
    psnr = peak_signal_noise(cover, stego)
    psnr_txt = "inf" if psnr is None else f"{psnr:.2f}"
    if args.porcelain:
        print(f"blocks_used={report.blocks_used}")
        print(f"total_flips={report.total_flips}")
        print(f"max_flips_per_block={report.max_flips_per_block}")
        print(f"embedding_rate={report.embedding_rate:.4f}")
        print(f"theoretical_efficiency={report.theoretical_efficiency:.4f}")
        print(f"empirical_efficiency={report.empirical_efficiency:.4f}")
        print(f"psnr_db={psnr_txt}")
    else:
        print(
            f"blocks={report.blocks_used} flips={report.total_flips} "
            f"max_flips={report.max_flips_per_block} ER={report.embedding_rate:.2f} "
            f"EF={report.theoretical_efficiency:.2f} "
            f"empirical_EF={report.empirical_efficiency:.2f} PSNR={psnr_txt}dB"
        )
    return EXIT_OK


def _cmd_extract(args) -> int:
    code = code_from_codebook(Path(args.codebook).read_text("utf-8"))
    bits = extract_image(load_image(args.stego), code)
    if bits.size % 8:
        raise FrameError(f"recovered {bits.size} bits, not a whole number of bytes")
    Path(args.out).write_bytes(bits_to_bytes(bits))
    print(f"extracted {bits.size // 8} bytes to {args.out}")
    return EXIT_OK


def _parse_range(text: str, as_int: bool):
    parts = text.split("-")
    if len(parts) not in (1, 2):
        raise CodebookError(f"bad range {text!r}")
    try:
        return [int(x) if as_int else float(x) for x in parts]
    except ValueError:
        raise CodebookError(f"bad range {text!r}") from None


def _cmd_table(args) -> int:
    if args.rows:
        text = Path(args.rows).read_text("utf-8")
    else:
        text = (
            resources.files("graphstego.data")
            .joinpath("reference_protocols.tsv")
            .read_text("utf-8")
        )
    out_rows = [
        [
            "n", "d", "family", "K", "rho",
            "er_published", "er_computed", "ef_published", "ef_computed", "status",
        ]
    ]
    mismatches = 0
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#") or ln.startswith("n\t"):
            continue
        fields = ln.split("\t")
        if len(fields) != 7:
            raise CodebookError(f"rows line {lineno}: expected 7 tab-separated fields")
        n_txt, d_txt, family, k_txt, rho_txt, er_txt, ef_txt = fields
        try:
            n_len, hidden = int(n_txt), int(k_txt)
        except ValueError:
            raise CodebookError(f"rows line {lineno}: bad n or K") from None
        rhos = _parse_range(rho_txt, as_int=True)
        efs = _parse_range(ef_txt, as_int=False)
        if len(rhos) != len(efs):
            raise CodebookError(f"rows line {lineno}: rho and ef ranges differ in length")
        er_pub = float(er_txt)
        er_calc = hidden / n_len
        ef_calc = [hidden / r for r in rhos]
        ok = abs(er_calc - er_pub) <= 0.01 + 1e-9 and all(
            abs(c - p) <= 0.01 + 1e-9 for c, p in zip(ef_calc, efs)
        )
        if not ok:
            mismatches += 1
        out_rows.append(
            [
                n_txt, d_txt, family, k_txt, rho_txt,
                er_txt, f"{er_calc:.2f}",
                ef_txt, "-".join(f"{x:.2f}" for x in ef_calc),
                "ok" if ok else "MISMATCH",
            ]
        )
    buf = io.StringIO()
    csv.writer(buf).writerows(out_rows)
    if args.csv:
        Path(args.csv).write_text(buf.getvalue(), "utf-8")
    else:
        sys.stdout.write(buf.getvalue())
    if mismatches:
        print(f"{mismatches} row(s) disagree with their published figures", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphstego",
        description="Syndrome-coding steganography with cycle codes of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook", help="write a codebook for a graph")
    p.add_argument("--spec", required=True, help="K<n> or file:<path> (edge-list text)")
    p.add_argument("--out", required=True, help="codebook file to write")
    p.add_argument("--tree", help="comma-separated edge ids pinning the spanning tree")
    p.set_defaults(func=_cmd_codebook)

    p = sub.add_parser("analyze", help="code parameters and protocol metrics")
    p.add_argument("--codebook", required=True)
    p.add_argument("--porcelain", action="store_true", help="line-oriented key=value output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("embed", help="hide a payload file in an image's LSB plane")
    p.add_argument("--codebook", required=True)
    p.add_argument("--cover", required=True, help="PGM or BMP cover image")
    p.add_argument("--payload", required=True, help="payload file (raw bytes)")
    p.add_argument("--out", required=True, help="stego image to write")
    p.add_argument("--porcelain", action="store_true", help="line-oriented key=value output")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("extract", help="recover a payload from a stego image")
    p.add_argument("--codebook", required=True)
    p.add_argument("--stego", required=True)
    p.add_argument("--out", required=True, help="payload file to write")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("table", help="recompute the protocol-comparison figures")
    p.add_argument("--rows", help="TSV rows file (default: bundled reference data)")
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
