from __future__ import annotations

import hashlib

import numpy as np
import pytest

from graphstego import cli, codec, decoder
from graphstego.cli import main
from graphstego.codebook import bundled_codebook_text, parse_codebook
from graphstego.images import load_image, save_image

from helpers import gp83_edges, random_bmp_bytes, random_pgm_bytes


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


def test_table_size_exit(tmp_path, capsys):
    big = tmp_path / "ring22.gc"  # p = 21, one over the table limit
    edges = write_ring(tmp_path / "ring22.txt", 22)
    assert main(["codebook", "--spec", f"file:{edges}", "--out", str(big)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--codebook", str(big)]) == 6
    assert "table limit" in capsys.readouterr().err
    cover = write_pgm(tmp_path / "cover.pgm")
    payload = tmp_path / "secret.bin"
    payload.write_bytes(b"x")
    assert main([
        "embed", "--codebook", str(big), "--cover", str(cover),
        "--payload", str(payload), "--out", str(tmp_path / "x.pgm"),
    ]) == 6
    assert "table limit" in capsys.readouterr().err


def test_analyze_bad_codebook(tmp_path, capsys):
    path = tmp_path / "junk.gc"
    path.write_text("not a codebook\n")
    assert main(["analyze", "--codebook", str(path)]) == 3
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
    assert main([
        "embed", "--codebook", str(k5_codebook_file), "--cover", str(cover),
        "--payload", str(payload), "--out", str(tmp_path / "x.pgm"),
    ]) == 4
    assert "error:" in capsys.readouterr().err


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
    rows.write_text("15\t3\tB\t4\n")
    assert main(["table", "--rows", str(rows)]) == 3
    capsys.readouterr()


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
