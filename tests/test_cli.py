from __future__ import annotations

import gc
import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from graphstego import cli, codebook, codec, decoder
from graphstego.cli import main
from graphstego.codebook import (
    bundled_codebook_text,
    code_from_codebook,
    format_codebook,
    parse_codebook,
)
from graphstego.codec import (
    FrameError,
    bits_to_bytes,
    bytes_to_bits,
    embed_file,
    embed_stream,
    extract_file,
    extract_stream,
)
from graphstego.decoder import build_coset_table_bruteforce
from graphstego.graphs import build_graph, complete_graph
from graphstego.images import load_image, lsb_extract, lsb_inject, peak_signal_noise, save_image

from helpers import gp83_edges, random_bmp_bytes, random_graph, random_pgm_bytes


@pytest.fixture()
def k5_codebook_file(tmp_path):
    path = tmp_path / "k5.gc"
    path.write_text(bundled_codebook_text("k5"))
    return path


def write_pgm(path, side=64, seed=7):
    path.write_bytes(random_pgm_bytes(side, side, seed))
    return path


def test_codebook_complete_graph(tmp_path, capsys):
    out = tmp_path / "k4.gc"
    assert main(["codebook", "--spec", "K4", "--out", str(out)]) == 0
    graph, tree_ids = parse_codebook(out.read_text())
    assert graph.vertex_count == 4 and graph.edge_count == 6
    assert tree_ids is None
    assert "n=6 k=3 d=3" in capsys.readouterr().out


def test_codebook_with_pinned_tree(tmp_path):
    out = tmp_path / "k5.gc"
    assert main(["codebook", "--spec", "K5", "--out", str(out), "--tree", "1,2,3,4"]) == 0
    _, tree_ids = parse_codebook(out.read_text())
    assert tree_ids == (1, 2, 3, 4)
    # ids that are not a spanning tree are rejected before writing
    bad = tmp_path / "bad.gc"
    assert main(["codebook", "--spec", "K5", "--out", str(bad), "--tree", "5,6,7,8"]) == 3
    assert not bad.exists()


def test_codebook_from_edge_list(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("# a square with one diagonal\n1 2\n2 3\n3 4\n4 1\n1 3\n")
    out = tmp_path / "square.gc"
    assert main(["codebook", "--spec", f"file:{edges}", "--out", str(out)]) == 0
    graph, _ = parse_codebook(out.read_text())
    assert graph.vertex_count == 4 and graph.edge_count == 5
    assert "n=5 k=2 d=3" in capsys.readouterr().out


def test_codebook_usage_errors(tmp_path, capsys):
    assert main(["codebook", "--spec", "K2", "--out", str(tmp_path / "x")]) == 2
    assert main(["codebook", "--spec", "Q5", "--out", str(tmp_path / "x")]) == 2
    assert main(["codebook", "--spec", "file:/no/such/file", "--out", str(tmp_path / "x")]) == 3
    edges = tmp_path / "edges.txt"
    for bad in ("1 +2", "1 2_0", "\u0661 2"):  # an edge list's numbers are ASCII decimal too
        edges.write_text(f"{bad}\n2 3\n3 1\n", "utf-8")
        assert main(["codebook", "--spec", f"file:{edges}", "--out", str(tmp_path / "x")]) == 3
    edges.write_text("# only a comment\n")
    assert main(["codebook", "--spec", f"file:{edges}", "--out", str(tmp_path / "x")]) == 3
    assert "edge list is empty" in capsys.readouterr().err
    assert main(["codebook", "--spec", "K5", "--out", str(tmp_path / "x"), "--tree", "1,a"]) == 2
    assert not (tmp_path / "x").exists()
    capsys.readouterr()


def test_analyze_reference(k5_codebook_file, capsys):
    assert main(["analyze", "--codebook", str(k5_codebook_file)]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "n=10 k=6 d=3 girth=3 p=4 rho=2 ER=0.40 EF=2.00"


def test_analyze_porcelain(k5_codebook_file, capsys):
    assert main(["analyze", "--codebook", str(k5_codebook_file), "--porcelain"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record = dict(ln.split("=", 1) for ln in lines)
    assert record["n"] == "10" and record["rho"] == "2"
    assert record["embedding_rate"] == "0.4000"
    assert record["embedding_efficiency"] == "2.0000"


def test_analyze_triangle(tmp_path, capsys):
    path = tmp_path / "k3.gc"
    path.write_text("graphcode v1\nvertices 3\nedge 1 1 2\nedge 2 2 3\nedge 3 1 3\n")
    assert main(["analyze", "--codebook", str(path)]) == 0
    assert capsys.readouterr().out.strip() == (
        "n=3 k=1 d=3 girth=3 p=2 rho=1 ER=0.67 EF=2.00"
    )


def test_analyze_exits_5_when_the_covering_radius_oracles_disagree(k5_codebook_file, capsys,
                                                                  monkeypatch):
    monkeypatch.setattr(cli, "covering_radius_tjoin", lambda graph: 3)  # K5's rho is 2
    assert main(["analyze", "--codebook", str(k5_codebook_file)]) == 5
    captured = capsys.readouterr()
    assert "oracles disagree (2 vs 3)" in captured.err and not captured.out


def write_ring(path, length):
    path.write_text("".join(f"{i} {i % length + 1}\n" for i in range(1, length + 1)))
    return path


def test_cli_roundtrip_above_the_old_size_limits(tmp_path, capsys):
    k8 = tmp_path / "k8.gc"  # n = 28
    assert main(["codebook", "--spec", "K8", "--out", str(k8)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--codebook", str(k8), "--porcelain"]) == 0
    record = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert (record["n"], record["p"], record["rho"]) == ("28", "7", "4")
    cover = write_pgm(tmp_path / "cover.pgm")
    payload = tmp_path / "secret.bin"
    payload.write_bytes(b"past twenty-four edges" * 4)
    stego = tmp_path / "stego.pgm"
    recovered = tmp_path / "out.bin"
    assert main([
        "embed", "--codebook", str(k8), "--cover", str(cover),
        "--payload", str(payload), "--out", str(stego),
    ]) == 0
    assert main(["extract", "--codebook", str(k8), "--stego", str(stego), "--out", str(recovered)]) == 0
    assert recovered.read_bytes() == payload.read_bytes()
    ring17 = tmp_path / "ring17.gc"  # 17 vertices, p = 16
    edges = write_ring(tmp_path / "ring17.txt", 17)
    assert main(["codebook", "--spec", f"file:{edges}", "--out", str(ring17)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--codebook", str(ring17), "--porcelain"]) == 0
    record = dict(ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines())
    assert (record["n"], record["p"], record["rho"]) == ("17", "16", "8")


def test_table_size_exit(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("codebook built a graph above the table limit")

    # the spec's size is checked before its graph is built
    monkeypatch.setattr(cli, "complete_graph", refuse)
    monkeypatch.setattr(cli, "build_graph", refuse)
    big = tmp_path / "ring22.gc"  # p = 21, one over the table limit
    edges = write_ring(tmp_path / "ring22.txt", 22)
    assert main(["codebook", "--spec", f"file:{edges}", "--out", str(big)]) == 6
    assert "table limit" in capsys.readouterr().err
    assert not big.exists()
    k150 = tmp_path / "k150.gc"
    assert main(["codebook", "--spec", "K150", "--out", str(k150)]) == 6
    assert "table limit" in capsys.readouterr().err
    assert not k150.exists()
    ring = [(i, i % 22 + 1) for i in range(1, 23)]
    big.write_text(format_codebook(build_graph(22, ring)))
    assert main(["analyze", "--codebook", str(big)]) == 6
    assert "table limit" in capsys.readouterr().err
    cover = write_pgm(tmp_path / "cover.pgm")
    payload = tmp_path / "secret.bin"
    payload.write_bytes(b"x")
    out = tmp_path / "x.pgm"
    assert main([
        "embed", "--codebook", str(big), "--cover", str(cover),
        "--payload", str(payload), "--out", str(out),
    ]) == 6
    assert "table limit" in capsys.readouterr().err
    assert not out.exists()


def test_oversize_codebooks_exit_6_before_any_build(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a code above the table limit was built")

    # K150 (p = 149): building its code once took seconds and hundreds of MiB
    monkeypatch.setattr(codebook, "build_code", refuse)
    k150 = tmp_path / "k150.gc"
    k150.write_text(format_codebook(complete_graph(150)))
    assert main(["analyze", "--codebook", str(k150)]) == 6
    assert "table limit" in capsys.readouterr().err
    cover = write_pgm(tmp_path / "cover.pgm")
    payload = tmp_path / "secret.bin"
    payload.write_bytes(b"x")
    out = tmp_path / "x.pgm"
    assert main([
        "embed", "--codebook", str(k150), "--cover", str(cover),
        "--payload", str(payload), "--out", str(out),
    ]) == 6
    assert "table limit" in capsys.readouterr().err
    assert not out.exists()
    # no frame can carry more syndrome bits than a table holds
    assert main(["extract", "--codebook", str(k150), "--stego", str(cover), "--out", str(out)]) == 6
    assert "table limit" in capsys.readouterr().err
    assert not out.exists()


def test_the_code_layer_loads_no_numpy(tmp_path, k5_codebook_file, k5_table):
    # import graphstego and the analyze, codebook and table commands run on
    # plain-Python bitsets; numpy loads when a pixel or table function first runs.
    # An extract whose frame is at most PLAIN_FRAME_PIXELS is read in plain
    # Python too; one above it runs the numpy chunk loop, and loads numpy.
    # The records are plain classes, so neither dataclasses nor the inspect it
    # imports loads either.  Only table writes CSV, and no command checks for
    # numbers.Integral, so csv and numbers load only when table runs.  Every
    # module reads numpy through one handle, gf2.np, which imports it on the
    # first attribute read and keeps each value it reads
    script = """
import sys
heavy = {"numpy", "dataclasses", "inspect"}
light = heavy | {"numbers", "csv"}
import graphstego
assert not light & set(sys.modules), "import graphstego"
from graphstego import cli, codec, decoder, gf2, graphs, images
assert not light & set(sys.modules), "import graphstego.cli"
codebook, out, stego, payload = sys.argv[1:]
extract = ["extract", "--codebook", codebook, "--stego", stego, "--out", payload]
for argv in (["analyze", "--codebook", codebook], ["codebook", "--spec", "K6", "--out", out],
             ["analyze", "--codebook", out, "--porcelain"], extract, ["table"]):
    assert cli.main(argv) == 0, argv
    loaded = (heavy if argv == ["table"] else light) & set(sys.modules)
    assert not loaded, (argv, loaded)
assert "csv" in sys.modules, "the check above sees csv when it loads"
assert codec.np is decoder.np is graphs.np is images.np is gf2.np
assert vars(gf2.np) == {}
take = gf2.np.take
assert {"numpy", "inspect"} <= set(sys.modules), "the check above sees them when they load"
import numpy
assert take is numpy.take and vars(gf2.np) == {"take": numpy.take}
assert not hasattr(gf2.np, "no_such_numpy_name")
codec.PLAIN_FRAME_PIXELS = 0  # every frame above it
assert cli.main(extract) == 0
"""
    stego, payload = tmp_path / "stego.pgm", tmp_path / "out.bin"
    secret = b"small frame" * 10
    embed_file(write_pgm(tmp_path / "cover.pgm"), secret, k5_table, stego)
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, str(k5_codebook_file), str(tmp_path / "k6.gc"), str(stego),
         str(payload)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert "rho=2" in run.stdout and "rho=3" in run.stdout
    assert run.stdout.count(f"extracted {len(secret)} bytes") == 2
    assert payload.read_bytes() == secret


def test_analyze_bad_codebook(tmp_path, capsys):
    path = tmp_path / "junk.gc"
    edges = "edge 1 1 2\nedge 2 2 3\nedge 3 1 3\n"
    # a number is ASCII decimal digits alone, and the vertices line holds one
    for text in ("not a codebook\n", f"graphcode v1\nvertices 3 junk\n{edges}",
                 f"graphcode v1\nvertices 1_0\n{edges}", f"graphcode v1\nvertices \u0663\n{edges}",
                 "graphcode v1\nvertices 3\nedge 1 +1 2\nedge 2 2 3\nedge 3 1 3\n"):
        path.write_text(text, "utf-8")
        assert main(["analyze", "--codebook", str(path)]) == 3, text
        assert "error:" in capsys.readouterr().err


def test_embed_extract_roundtrip(tmp_path, k5_codebook_file, capsys):
    cover = write_pgm(tmp_path / "cover.pgm")
    payload = tmp_path / "secret.bin"
    secret = b"the quick brown fox jumps over the lazy dog" * 3
    payload.write_bytes(secret)
    stego = tmp_path / "stego.pgm"
    assert main([
        "embed", "--codebook", str(k5_codebook_file), "--cover", str(cover),
        "--payload", str(payload), "--out", str(stego), "--porcelain",
    ]) == 0
    record = dict(
        ln.split("=", 1) for ln in capsys.readouterr().out.strip().splitlines()
    )
    assert int(record["blocks_used"]) == (32 + 8 * len(secret)) // 4
    assert int(record["max_flips_per_block"]) <= 2
    assert float(record["psnr_db"]) > 48.0
    recovered = tmp_path / "out.bin"
    assert main([
        "extract", "--codebook", str(k5_codebook_file), "--stego", str(stego),
        "--out", str(recovered),
    ]) == 0
    capsys.readouterr()
    assert recovered.read_bytes() == payload.read_bytes()


def test_embed_capacity_exit(tmp_path, k5_codebook_file, capsys):
    cover = write_pgm(tmp_path / "tiny.pgm", side=4)  # 16 pixels
    payload = tmp_path / "big.bin"
    payload.write_bytes(bytes(1000))
    out = tmp_path / "x.pgm"
    assert main([
        "embed", "--codebook", str(k5_codebook_file), "--cover", str(cover),
        "--payload", str(payload), "--out", str(out),
    ]) == 4
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_embed_checks_capacity_before_building_the_table(tmp_path, k5_codebook_file, monkeypatch,
                                                        capsys):
    def refuse(code):
        raise AssertionError("coset table built for a payload that cannot fit")

    monkeypatch.setattr(cli, "build_coset_table_bruteforce", refuse)
    cover = write_pgm(tmp_path / "tiny.pgm", side=4)  # 16 pixels
    payload = tmp_path / "big.bin"
    payload.write_bytes(bytes(1000))
    out = tmp_path / "x.pgm"
    assert main([
        "embed", "--codebook", str(k5_codebook_file), "--cover", str(cover),
        "--payload", str(payload), "--out", str(out),
    ]) == 4
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def fed_pipe(run, size: int, fill: bytes):
    """``run(path)`` on a pipe that a thread fills with ``size`` bytes of ``fill``.

    Returns what ``run`` returned and the bytes the writer had left when
    the read end closed.
    """
    read, write = os.pipe()
    left = [size]

    def feed():
        chunk = memoryview(fill * (1 << 20))
        try:
            while left[0]:
                left[0] -= os.write(write, chunk[: min(left[0], len(chunk))])
        except BrokenPipeError:
            pass
        finally:
            os.close(write)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        result = run(f"/dev/fd/{read}")
    finally:
        os.close(read)
        writer.join(timeout=60)
    assert not writer.is_alive()
    return result, left[0]


def test_a_piped_payload_is_read_only_up_to_the_cover_s_room(tmp_path, k5_codebook_file, capsys):
    # 64 MiB against a 64x64 cover's 200 bytes: the read stops one byte past them
    cover, out = write_pgm(tmp_path / "cover.pgm"), tmp_path / "x.pgm"
    rc, left = fed_pipe(lambda payload: main([
        "embed", "--codebook", str(k5_codebook_file), "--cover", str(cover),
        "--payload", payload, "--out", str(out),
    ]), 64 << 20, b"\0")
    assert rc == 4
    assert "payload exceeds the 200 bytes this cover can carry" in capsys.readouterr().err
    assert not out.exists()
    assert left > 60 << 20


def test_a_piped_codebook_is_read_only_up_to_the_text_limit(capsys):
    rc, left = fed_pipe(lambda codebook: main(["analyze", "--codebook", codebook]), 64 << 20, b" ")
    assert rc == 3
    assert f"over the {cli.MAX_TEXT_BYTES}-byte limit" in capsys.readouterr().err
    assert left > 60 << 20


def test_extract_wrong_codebook_reports_frame_error(tmp_path, k5_codebook_file, capsys):
    cover = write_pgm(tmp_path / "cover.pgm")
    payload = tmp_path / "secret.bin"
    payload.write_bytes(b"\x5a" * 100)
    stego = tmp_path / "stego.pgm"
    assert main([
        "embed", "--codebook", str(k5_codebook_file), "--cover", str(cover),
        "--payload", str(payload), "--out", str(stego),
    ]) == 0
    other = tmp_path / "k3.gc"
    other.write_text("graphcode v1\nvertices 3\nedge 1 1 2\nedge 2 2 3\nedge 3 1 3\n")
    rc = main([
        "extract", "--codebook", str(other), "--stego", str(stego),
        "--out", str(tmp_path / "y.bin"),
    ])
    assert rc == 3
    captured = capsys.readouterr()
    assert "declares" in captured.err


def test_extract_rejects_a_frame_of_partial_bytes(tmp_path, k5_codebook_file, k5_table, capsys):
    stego_path, out = tmp_path / "stego.pgm", tmp_path / "y.bin"
    cover = load_image(write_pgm(tmp_path / "cover.pgm"))
    bits = np.random.default_rng(13).integers(0, 2, 13, dtype=np.uint8)
    stego = lsb_inject(cover, embed_stream(lsb_extract(cover), bits, k5_table)[0])
    save_image(stego, stego_path)
    assert np.array_equal(extract_stream(lsb_extract(stego), k5_table.code), bits)
    with pytest.raises(FrameError, match="not a whole number of bytes"):
        extract_file(stego_path, k5_table.code)
    rc, captured = _cli_extract(k5_codebook_file, stego_path, out, capsys)
    assert (rc, captured.out) == (3, "") and "not a whole number of bytes" in captured.err
    assert not out.exists()


def test_extract_truncated_stego(tmp_path, k5_codebook_file, capsys):
    tiny = write_pgm(tmp_path / "tiny.pgm", side=4)
    rc = main([
        "extract", "--codebook", str(k5_codebook_file), "--stego", str(tiny),
        "--out", str(tmp_path / "y.bin"),
    ])
    assert rc == 3
    capsys.readouterr()


def test_table_builtin_rows_all_consistent(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert lines[0].startswith("n,d,family")
    assert len(lines) == 49  # header + 48 rows
    assert all(ln.endswith(",ok") for ln in lines[1:])


def test_table_csv_file_and_doctored_rows(tmp_path, capsys):
    csv_out = tmp_path / "table.csv"
    assert main(["table", "--csv", str(csv_out)]) == 0
    assert csv_out.read_text().count("MISMATCH") == 0
    rows = tmp_path / "rows.tsv"
    rows.write_text("n\td\tfamily\tK\trho\ter\tef\n15\t3\tB\t4\t1\t0.50\t4\n")
    assert main(["table", "--rows", str(rows)]) == 5
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.out
    assert "disagree" in captured.err


def test_table_malformed_rows(tmp_path, capsys):
    rows = tmp_path / "rows.tsv"
    # too few fields; a bad ER; n or rho of zero, which the rates divide by;
    # numbers that int() and float() read but are not ASCII decimal
    for row in ("15\t3\tB\t4", "15\t3\tB\t4\t1\tabc\t4", "0\t3\tB\t4\t1\t0.27\t4",
                "15\t3\tB\t4\t0-1\t0.27\t4-4", "1_5\t3\tB\t4\t1\t0.27\t4",
                "15\t3\tB\t1_1\t1\t0.73\t11", "15\t3\tB\t11\t1\t0.7_3\t11",
                "\u0661\u0665\t3\tB\t4\t1\t0.27\t4",
                # a range of three; two rhos against one EF
                "15\t3\tB\t4\t1-2-3\t0.27\t4-2-1", "15\t3\tB\t4\t1-2\t0.27\t4"):
        rows.write_text(row + "\n")
        assert main(["table", "--rows", str(rows)]) == 3
    capsys.readouterr()
    for text in ("", "# only a comment\n"):  # no rows at all
        rows.write_text(text)
        assert main(["table", "--rows", str(rows)]) == 3
        captured = capsys.readouterr()
        assert "lists no rows" in captured.err and not captured.out


def test_table_rejects_non_finite_figures(tmp_path, capsys):
    # float() parses nan and inf, which no comparison can match
    rows = tmp_path / "rows.tsv"
    for row in ("15\t3\tB\t4\t1\tnan\tinf", "15\t3\tB\t4\t1\t-inf\t4",
                "15\t3\tB\t4\t1-2\t0.27\t4-inf",
                "15\t3\tB\t4\t1\t0.27\t" + "9" * 400):  # ASCII decimal, but float() reads inf
        rows.write_text(row + "\n")
        assert main(["table", "--rows", str(rows)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "MISMATCH" not in captured.out + captured.err


def test_usage_exit_for_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def write_codebook(tmp_path, name):
    path = tmp_path / f"{name}.gc"
    if name == "k5":
        path.write_text(bundled_codebook_text("k5"))
    else:
        edges = tmp_path / "gp83.txt"
        edges.write_text("".join(f"{u} {v}\n" for u, v in gp83_edges()))
        assert main(["codebook", "--spec", f"file:{edges}", "--out", str(path)]) == 0
    return path


# SHA-256 of the stego file and of the extracted payload, recorded with
# the CLI that went through lsb_extract -> embed_stream -> lsb_inject.
# The BMP is 37 pixels wide, so its rows carry one padding byte, which
# the cover fills with random values and the stego file writes as zero.
CLI_GOLDEN = {
    ("bmp", "k5"): "8bfc2e46892ccab254f1c43e1a373afd55b0477e0f2ea2f20b737e55164f4ca7",
    ("bmp", "gp83"): "2836ec5d00846764cb4349630dad023dc1085c30033716810c0e92c102ad71c4",
    ("pgm", "k5"): "10ceb2767f13f87dbf8f7ded75c93153c8f500dcb6bb06c59500b75f75f2899c",
    ("pgm", "gp83"): "307b9e71cec655bfd5ba0c26235fb3c4f1b22dacb6b9e4b32f9608e0420117e1",
}
PAYLOAD_SHA256 = "f53fe0240e1605e59d86ec7016aed9325414d0a18787ea446b34ce9a490e6441"
PADDED_BMP_RESAVE_SHA256 = "7c43955cb5cef120dd7e4b73cc34cbde37d28fe1275fe1691423091707334dc6"


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("fmt,code", sorted(CLI_GOLDEN))
def test_cli_golden_digests(fmt, code, chunk, tmp_path, capsys, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(codec, "CHUNK_BLOCKS", chunk)
    cover = tmp_path / f"cover.{fmt}"
    cover.write_bytes(random_bmp_bytes(37, 23, 71) if fmt == "bmp" else random_pgm_bytes(64, 48, 73))
    payload = tmp_path / "secret.bin"
    payload.write_bytes(np.random.default_rng(79).integers(0, 256, 100, dtype=np.uint8).tobytes())
    codebook = write_codebook(tmp_path, code)
    stego, recovered = tmp_path / f"stego.{fmt}", tmp_path / "out.bin"
    assert main([
        "embed", "--codebook", str(codebook), "--cover", str(cover),
        "--payload", str(payload), "--out", str(stego),
    ]) == 0
    assert main(["extract", "--codebook", str(codebook), "--stego", str(stego), "--out", str(recovered)]) == 0
    capsys.readouterr()
    assert recovered.read_bytes() == payload.read_bytes()
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (stego, recovered))
    assert digests == (CLI_GOLDEN[fmt, code], PAYLOAD_SHA256)


@pytest.mark.parametrize(
    "name,cover_bytes",
    [
        ("cover.pgm", random_pgm_bytes(64, 48, 83)),
        ("cover.bmp", random_bmp_bytes(40, 20, 89)),  # 120-byte rows, no padding
        ("padded.bmp", random_bmp_bytes(37, 23, 97)),  # 111-byte rows, padded to 112
    ],
)
def test_embed_psnr_comes_from_the_flip_count(name, cover_bytes, tmp_path, k5_table, capsys):
    cover_path, payload = tmp_path / name, tmp_path / "secret.bin"
    cover_path.write_bytes(cover_bytes)
    payload.write_bytes(np.random.default_rng(101).integers(0, 256, 100, dtype=np.uint8).tobytes())
    # each flip moves one pixel by exactly 1, so the squared error is the flip count
    cover = load_image(cover_path)
    bits, report = embed_stream(lsb_extract(cover), bytes_to_bits(payload.read_bytes()), k5_table)
    diff = lsb_inject(cover, bits).pixels.astype(np.int64) - cover.pixels
    assert report.total_flips > 0 and int(diff @ diff) == report.total_flips
    codebook = write_codebook(tmp_path, "k5")
    stego_path, again = tmp_path / f"stego-{name}", tmp_path / f"again-{name}"
    records = []
    for src, dst in ((cover_path, stego_path), (stego_path, again)):
        assert main([
            "embed", "--codebook", str(codebook), "--cover", str(src),
            "--payload", str(payload), "--out", str(dst), "--porcelain",
        ]) == 0
        records.append(dict(ln.split("=", 1) for ln in capsys.readouterr().out.split()))
    psnr = peak_signal_noise(load_image(cover_path), load_image(stego_path))
    assert records[0]["total_flips"] == str(report.total_flips)
    assert records[0]["psnr_db"] == f"{psnr:.2f}"
    # the payload re-embedded into its own stego flips nothing
    assert records[1]["total_flips"] == "0" and records[1]["psnr_db"] == "inf"
    assert peak_signal_noise(load_image(stego_path), load_image(again)) is None


def test_padded_bmp_resave_golden_digest(tmp_path):
    src, out = tmp_path / "padded.bmp", tmp_path / "resaved.bmp"
    src.write_bytes(random_bmp_bytes(37, 23, 71))
    save_image(load_image(src), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PADDED_BMP_RESAVE_SHA256


def test_analyze_builds_no_leader_table(tmp_path, capsys, monkeypatch):
    def refuse(code):
        raise AssertionError("analyze built a leader table")

    monkeypatch.setattr(cli, "build_coset_table_bruteforce", refuse)
    monkeypatch.setattr(decoder, "build_coset_table_bruteforce", refuse)
    k8 = tmp_path / "k8.gc"
    assert main(["codebook", "--spec", "K8", "--out", str(k8)]) == 0
    expect = {
        write_codebook(tmp_path, "k5"): "n=10 k=6 d=3 girth=3 p=4 rho=2 ER=0.40 EF=2.00",
        write_codebook(tmp_path, "gp83"): "n=24 k=9 d=6 girth=6 p=15 rho=8 ER=0.62 EF=1.88",
        k8: "n=28 k=21 d=3 girth=3 p=7 rho=4 ER=0.25 EF=1.75",
    }
    capsys.readouterr()
    for path, line in expect.items():
        assert main(["analyze", "--codebook", str(path)]) == 0
        assert capsys.readouterr().out.strip() == line



WRITERS = {"pgm": random_pgm_bytes, "bmp": random_bmp_bytes}  # (width, height, seed) -> bytes
COVER_SIZES = {
    "pgm": ("pgm", 40, 30),
    "bmp_unpadded": ("bmp", 20, 16),  # 60-byte rows
    "bmp_padded": ("bmp", 21, 15),  # 63-byte rows, stride 64
}


def _cli_extract(codebook, stego, out, capsys):
    rc = main(["extract", "--codebook", str(codebook), "--stego", str(stego), "--out", str(out)])
    return rc, capsys.readouterr()


@pytest.mark.parametrize("chunk", [1, 3, 7, 64])
@pytest.mark.parametrize("kind", sorted(COVER_SIZES))
def test_cli_extract_bytes_match_the_bit_path(kind, chunk, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(codec, "CHUNK_BLOCKS", chunk)
    rng = np.random.default_rng(chunk)
    fmt, width, height = COVER_SIZES[kind]
    cover_path, stego_path, out = tmp_path / "cover.img", tmp_path / "stego.img", tmp_path / "out.bin"
    cover_path.write_bytes(WRITERS[fmt](width, height, chunk))
    cover = load_image(cover_path)
    codebook = tmp_path / "code.gc"
    for text in (bundled_codebook_text("k5"), format_codebook(random_graph(rng, 7, 11))):
        codebook.write_text(text)
        code = code_from_codebook(text)
        table = build_coset_table_bruteforce(code)
        n, p = code.n_len, code.n_len - code.k
        full = (cover.capacity // n * p - 32) // 8
        for size in (0, 1, int(rng.integers(2, full)), full):
            data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            embed_file(cover_path, data, table, stego_path)
            want = bits_to_bytes(extract_stream(lsb_extract(load_image(stego_path)), code))
            for plain in (codec.PLAIN_FRAME_PIXELS, 0):  # each extract path, 0 the chunk loop
                with monkeypatch.context() as patch:
                    patch.setattr(codec, "PLAIN_FRAME_PIXELS", plain)
                    rc, captured = _cli_extract(codebook, stego_path, out, capsys)
                assert (rc, out.read_bytes()) == (0, want) and want == data
                assert captured.out == f"extracted {size} bytes to {out}\n"
        # no frame: the random header declares too much, and a one-row
        # image below header_blocks * n samples cannot even hold the header
        small = tmp_path / "small.img"
        small.write_bytes(WRITERS[fmt]((-(-32 // p) * n - 1) // cover.channels, 1, chunk))
        for path in (cover_path, small):
            with pytest.raises(FrameError) as exc:
                extract_stream(lsb_extract(load_image(path)), code)
            assert ("declares" in str(exc.value)) == (path == cover_path)
            rc, captured = _cli_extract(codebook, path, out, capsys)
            assert (rc, captured.err) == (3, f"error: {exc.value}\n")


PORCELAIN_KEYS = [
    "blocks_used", "total_flips", "max_flips_per_block", "embedding_rate",
    "theoretical_efficiency", "empirical_efficiency", "psnr_db",
]


def _run_cli(*args):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "graphstego.cli", *map(str, args)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )


def test_process_entry_flushes_and_closes_everything(tmp_path, k5_codebook_file, k5_table):
    # python -m graphstego.cli exits over a frozen heap; piped stdout
    # and the written files must still come out whole
    cover, payload = write_pgm(tmp_path / "cover.pgm"), tmp_path / "secret.bin"
    secret = np.random.default_rng(103).integers(0, 256, 150, dtype=np.uint8).tobytes()
    payload.write_bytes(secret)
    stego, out = tmp_path / "stego.pgm", tmp_path / "out.bin"
    run = _run_cli("embed", "--codebook", k5_codebook_file, "--cover", cover,
                   "--payload", payload, "--out", stego, "--porcelain")
    assert (run.returncode, run.stderr) == (0, "")
    record = [ln.split("=", 1) for ln in run.stdout.splitlines()]
    assert [key for key, _ in record] == PORCELAIN_KEYS
    report = embed_file(cover, secret, k5_table, tmp_path / "want.pgm")
    assert stego.read_bytes() == (tmp_path / "want.pgm").read_bytes()
    assert dict(record)["total_flips"] == str(report.total_flips)
    run = _run_cli("extract", "--codebook", k5_codebook_file, "--stego", stego, "--out", out)
    assert (run.returncode, run.stdout, run.stderr) == (0, f"extracted 150 bytes to {out}\n", "")
    assert out.read_bytes() == secret
    # the error exits are unchanged
    truncated = tmp_path / "truncated.pgm"
    truncated.write_bytes(stego.read_bytes()[:-1])
    run = _run_cli("extract", "--codebook", k5_codebook_file, "--stego", truncated, "--out", out)
    assert run.returncode == 3 and run.stderr.startswith("error:")
    payload.write_bytes(bytes(1000))
    run = _run_cli("embed", "--codebook", k5_codebook_file, "--cover", cover,
                   "--payload", payload, "--out", tmp_path / "x.pgm")
    assert (run.returncode, run.stdout) == (4, "") and run.stderr.startswith("error:")


def test_cli_embed_peak_memory_stays_below_3x_the_pixels(tmp_path, k5_codebook_file, monkeypatch,
                                                         capsys):
    # the command streams the cover: at two threads it peaked at 1.05x
    # the pixel bytes (0.63x at one), the 0.19x payload and its frame
    # copy plus each thread's chunk buffers; the whole-image path took
    # 2.44x.  The bound leaves 0.25x (1 MB) for allocator noise.
    monkeypatch.setattr(codec, "_usable_cpus", lambda: 2)
    rng = np.random.default_rng(47)
    pixels = rng.integers(0, 256, 1 << 22, dtype=np.uint8)
    payload_bits = rng.integers(0, 2, int(0.95 * 0.4 * pixels.size), dtype=np.uint8)
    cover, payload, stego = tmp_path / "cover.pgm", tmp_path / "secret.bin", tmp_path / "stego.pgm"
    cover.write_bytes(b"P5\n2048 2048\n255\n" + pixels.tobytes())
    payload.write_bytes(np.packbits(payload_bits).tobytes())
    tracemalloc.start()
    try:
        rc = main([
            "embed", "--codebook", str(k5_codebook_file), "--cover", str(cover),
            "--payload", str(payload), "--out", str(stego),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0 and peak < 1.3 * pixels.nbytes


def test_only_the_process_entry_freezes_the_heap(tmp_path, k5_codebook_file, monkeypatch, capsys):
    assert main(["analyze", "--codebook", str(k5_codebook_file)]) == 0
    assert gc.get_freeze_count() == 0
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
    assert cli.run() == 0
    # after the command, so the heap frozen for the exit holds what embed's numpy import left
    assert calls == ["main", "freeze"]
