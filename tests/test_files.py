"""The file-level codec: embed_file and extract_file stream a chunk at a time."""

from __future__ import annotations

import ast
import errno
import io
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from graphstego import cli, codec, images
from graphstego.cli import main
from graphstego.codebook import code_from_codebook, format_codebook
from graphstego.codec import (
    CapacityError,
    bits_to_bytes,
    bytes_to_bits,
    embed_file,
    embed_stream,
    extract_file,
    extract_stream,
)
from graphstego.decoder import build_coset_table_bruteforce
from graphstego.graphs import build_code, build_graph, complete_graph
from graphstego.images import (
    CoverImage,
    RasterFile,
    load_image,
    lsb_extract,
    lsb_inject,
    save_image,
)

import helpers
from helpers import embed_file_oracle, gp83_edges, random_bmp_bytes, ring_graph


def commented_pgm_bytes(width: int, height: int, seed: int, comment: bytes = b"made by hand"
                        ) -> bytes:
    """A PGM whose header carries a comment and whose raster is followed by trailing bytes."""
    pixels = np.random.default_rng(seed).integers(0, 256, width * height, dtype=np.uint8)
    return b"P5\n# %s\n%d %d\n255\n" % (comment, width, height) + pixels.tobytes() + b"trailer"


COVERS = {
    "pgm_comment_trailer": lambda: commented_pgm_bytes(50, 41, 3),
    # a 5 KB header, much longer than the canonical one
    "pgm_long_header": lambda: commented_pgm_bytes(53, 40, 4, b"x" * 5000),
    "bmp_unpadded": lambda: random_bmp_bytes(40, 20, 5),  # 120-byte rows
    "bmp_padded": lambda: random_bmp_bytes(37, 23, 7),  # 111-byte rows, padded to 112
}


@pytest.fixture(scope="module")
def tables():
    """K5, K6 (n=15), K8 (n=28) and the 18-vertex ring (p=17)."""
    graphs = [complete_graph(5), complete_graph(6), complete_graph(8), ring_graph(18)]
    return [build_coset_table_bruteforce(build_code(g)) for g in graphs]


def _whole_image_path(cover_path, payload, table, out_path):
    """The bit-plane composition on the whole loaded cover, saved to ``out_path``."""
    cover = load_image(cover_path)
    stego_bits, report = embed_stream(lsb_extract(cover), bytes_to_bits(payload), table)
    save_image(lsb_inject(cover, stego_bits), out_path)
    return report


def _whole_image_extract(stego_path, code):
    return bits_to_bytes(extract_stream(lsb_extract(load_image(stego_path)), code))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("kind", sorted(COVERS))
def test_file_path_matches_the_whole_image_path(kind, chunk, cpus, tmp_path, monkeypatch, tables):
    if chunk is not None:  # 8 blocks a chunk: boundaries fall mid-row in the padded BMP
        monkeypatch.setattr(codec, "CHUNK_BLOCKS", chunk)
    monkeypatch.setattr(codec, "_usable_cpus", lambda: cpus)
    cover_path, want, got = tmp_path / "cover.img", tmp_path / "want.img", tmp_path / "got.img"
    cover_bytes = COVERS[kind]()
    cover_path.write_bytes(cover_bytes)
    capacity = load_image(cover_path).capacity
    rng = np.random.default_rng(len(kind) + 10 * cpus)
    for table in tables:
        code = table.code
        room = (capacity // code.n_len * (code.n_len - code.k) - 32) // 8
        for size in (0, int(rng.integers(1, room)), room):
            data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            report = _whole_image_path(cover_path, data, table, want)
            assert embed_file(cover_path, data, table, got) == report
            assert got.read_bytes() == want.read_bytes() == embed_file_oracle(cover_bytes, data,
                                                                              table)
            assert extract_file(got, code) == _whole_image_extract(got, code) == data
            with monkeypatch.context() as patch:  # the chunk loop, with this test's chunks
                patch.setattr(codec, "PLAIN_FRAME_PIXELS", 0)
                assert extract_file(got, code) == data
        with pytest.raises(CapacityError):
            embed_file(cover_path, bytes(room + 1), table, got)
    # the cover itself, read as a stego file, carries no frame
    with pytest.raises(codec.FrameError) as exc:
        extract_file(cover_path, tables[0].code)
    with pytest.raises(codec.FrameError, match=str(exc.value)):
        _whole_image_extract(cover_path, tables[0].code)


def test_the_file_oracle_shares_no_reader_or_writer():
    # embed_file_oracle slices the pixels from the cover's bytes and writes the file
    # itself, so it imports nothing from the codec or the image module it checks
    tree = ast.parse(Path(helpers.__file__).read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert {m for m in modules if m.startswith("graphstego")} == {"graphstego.gf2",
                                                                  "graphstego.graphs"}


def _cli_embed(codebook, cover, payload, out):
    return main(["embed", "--codebook", str(codebook), "--cover", str(cover),
                 "--payload", str(payload), "--out", str(out), "--porcelain"])


@pytest.fixture()
def k5_files(tmp_path):
    codebook, payload = tmp_path / "k5.gc", tmp_path / "secret.bin"
    codebook.write_text(format_codebook(complete_graph(5)))
    payload.write_bytes(np.random.default_rng(11).integers(0, 256, 90, dtype=np.uint8).tobytes())
    return codebook, payload


@pytest.mark.parametrize("kind", sorted(COVERS))
def test_out_naming_the_cover_writes_what_two_files_get(kind, tmp_path, monkeypatch, k5_files,
                                                        capsys):
    monkeypatch.setattr(codec, "CHUNK_BLOCKS", 7)
    codebook, payload = k5_files
    cover, same, other = tmp_path / "cover.img", tmp_path / "same.img", tmp_path / "other.img"
    cover.write_bytes(COVERS[kind]())
    same.write_bytes(cover.read_bytes())
    assert _cli_embed(codebook, cover, payload, other) == 0
    assert _cli_embed(codebook, same, payload, same) == 0
    first, second = capsys.readouterr().out.split("blocks_used")[1:]
    assert first == second
    assert same.read_bytes() == other.read_bytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_cover_is_read_whole_and_sliced(tmp_path, monkeypatch, k5_files, capsys):
    monkeypatch.setattr(codec, "CHUNK_BLOCKS", 7)
    codebook, payload = k5_files
    cover, want, got = tmp_path / "cover.bmp", tmp_path / "want.bmp", tmp_path / "got.bmp"
    cover.write_bytes(COVERS["bmp_padded"]())
    assert _cli_embed(codebook, cover, payload, want) == 0
    read, write = os.pipe()
    try:
        os.write(write, cover.read_bytes())  # 2.6 kB: within the pipe's buffer
        os.close(write)
        assert _cli_embed(codebook, f"/dev/fd/{read}", payload, got) == 0
    finally:
        os.close(read)
    first, second = capsys.readouterr().out.split("blocks_used")[1:]
    assert first == second
    assert got.read_bytes() == want.read_bytes()
    read, write = os.pipe()
    try:
        os.write(write, got.read_bytes())
        os.close(write)
        code = build_code(complete_graph(5))
        assert extract_file(f"/dev/fd/{read}", code) == payload.read_bytes()
    finally:
        os.close(read)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_cover_is_read_only_up_to_its_raster(tmp_path, tables):
    # a trailer larger than the pipe's buffer: the writer is still
    # blocked in it when the read end closes, unless it was read too
    cover, want, got = tmp_path / "cover.bmp", tmp_path / "want.bmp", tmp_path / "got.bmp"
    cover.write_bytes(COVERS["bmp_padded"]())
    data = b"carried through a pipe"
    report = embed_file(cover, data, tables[0], want)
    read, write = os.pipe()
    broken = []

    def feed():
        view = memoryview(cover.read_bytes() + bytes(8 << 20))
        try:
            while view:
                view = view[os.write(write, view) :]
        except BrokenPipeError:
            broken.append(len(view))
        finally:
            os.close(write)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        assert embed_file(f"/dev/fd/{read}", data, tables[0], got) == report
    finally:
        os.close(read)
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert got.read_bytes() == want.read_bytes()
    assert broken and broken[0] > 0


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_an_endless_device_stego_is_refused_at_once(tmp_path, k5_files):
    # the device's first bytes name no format; the child runs under a 1 GiB
    # address-space limit so that reading on could not take the host's memory
    codebook, _ = k5_files
    out = tmp_path / "out.bin"
    child = (
        "import resource, runpy, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "sys.argv[0] = 'graphstego'\n"
        "runpy.run_module('graphstego.cli', run_name='__main__')\n"
    )
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", child, "extract", "--codebook", str(codebook),
         "--stego", "/dev/zero", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=60,
    )
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr == "error: unsupported image format (magic b'\\x00\\x00')\n"
    assert not out.exists()


def _assert_header_refused_at_once(stego, codebook, out, capsys) -> None:
    """``extract`` exits 3 with a short PGM header error, having traced under 1 MiB."""
    tracemalloc.start()
    try:
        status = main(["extract", "--codebook", str(codebook), "--stego", str(stego),
                       "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert (status, err[:17]) == (3, "error: PGM header")
    assert len(err) < 200
    assert peak < 1 << 20
    assert not out.exists()


def test_a_sparse_pgm_header_is_refused_at_once(tmp_path, k5_files, capsys):
    # 64 MiB of NUL bytes after "P5 " are one header token, refused past 20 bytes
    stego = tmp_path / "sparse.pgm"
    with open(stego, "wb") as fh:
        fh.write(b"P5 ")
        fh.truncate(64 << 20)
    _assert_header_refused_at_once(stego, k5_files[0], tmp_path / "out.bin", capsys)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("head, filler", [(b"P5 ", b"0"), (b"P5 4", b" "), (b"P5 4 #", b"x")],
                         ids=["token", "whitespace", "comment"])
def test_an_endless_piped_pgm_header_is_refused_at_once(head, filler, tmp_path, k5_files, capsys):
    # 64 MiB of one token, whitespace run or comment through a pipe: the read
    # stops at the token cap or at 64 KiB of header, and the writer sees the pipe break
    read, write = os.pipe()
    chunk = filler * (1 << 20)
    broken = []

    def feed():
        try:
            os.write(write, head)
            for _ in range(64):
                view = memoryview(chunk)
                while view:
                    view = view[os.write(write, view) :]
        except BrokenPipeError:
            broken.append(True)
        finally:
            os.close(write)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        _assert_header_refused_at_once(f"/dev/fd/{read}", k5_files[0], tmp_path / "out.bin",
                                       capsys)
    finally:
        os.close(read)
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert broken


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_out_is_refused_before_any_work(tmp_path, k5_files, tables, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("work done for an output that cannot be written")

    monkeypatch.setattr(cli, "build_coset_table_bruteforce", refuse)
    monkeypatch.setattr(cli, "RasterFile", refuse)
    codebook, payload = k5_files
    cover = tmp_path / "cover.bmp"
    cover.write_bytes(COVERS["bmp_padded"]())

    def assert_refused(out):
        assert _cli_embed(codebook, cover, payload, out) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "seekable" in captured.err

    read, write = os.pipe()
    try:
        assert_refused(f"/dev/fd/{write}")
        with pytest.raises(OSError, match="seekable"):
            embed_file(cover, b"", tables[0], f"/dev/fd/{write}")
        os.close(write)
        assert os.read(read, 1) == b""  # nothing was written
    finally:
        os.close(read)
    # the stego file would replace a character device or a directory, not go into it
    assert_refused(os.devnull)
    assert_refused(tmp_path)
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cover.bmp", "k5.gc", "secret.bin"]


def _listing(directory) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failed_chunk_read_leaves_no_file_and_no_thread(cpus, tmp_path, monkeypatch, k5_files,
                                                          capsys):
    """A failed chunk read, or a chunk write to a full disk, leaves ``--out`` as it was.

    ``--out`` is absent, another file or the cover itself; no temp file
    or thread is left behind either.
    """
    monkeypatch.setattr(codec, "CHUNK_BLOCKS", 7)
    monkeypatch.setattr(codec, "_usable_cpus", lambda: cpus)
    codebook, payload = k5_files
    cover, other = tmp_path / "cover.bmp", tmp_path / "other.bmp"
    cover.write_bytes(COVERS["bmp_padded"]())
    other.write_bytes(b"an older stego file")
    failures = {  # the third call fails: a chunk's, after the header's or the first chunk's
        "read": (os, "preadv", errno.EIO, "injected read error"),
        "write": (os, "pwritev", errno.ENOSPC, "injected write error"),
    }
    for failure, (owner, name, code, message) in failures.items():
        real = getattr(owner, name)
        for out in (tmp_path / "stego.bmp", other, cover):
            calls = itertools.count(1)

            def failing(*args):
                if next(calls) == 3:
                    raise OSError(code, message)
                return real(*args)

            listing = _listing(tmp_path)
            before = threading.active_count()
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, failing)
                assert _cli_embed(codebook, cover, payload, out) == 3, (failure, out.name)
            assert threading.active_count() == before
            assert message in capsys.readouterr().err
            assert _listing(tmp_path) == listing, (failure, out.name)


def test_an_existing_out_keeps_its_mode(tmp_path, k5_files, capsys):
    codebook, payload = k5_files
    cover, out, fresh = tmp_path / "cover.bmp", tmp_path / "stego.bmp", tmp_path / "fresh.bmp"
    cover.write_bytes(COVERS["bmp_padded"]())
    out.write_bytes(b"an older stego file")
    out.chmod(0o600)
    assert _cli_embed(codebook, cover, payload, out) == 0
    assert _cli_embed(codebook, cover, payload, fresh) == 0
    assert out.stat().st_mode & 0o7777 == 0o600
    assert out.read_bytes() == fresh.read_bytes()
    umask = os.umask(0o22)
    os.umask(umask)
    assert fresh.stat().st_mode & 0o7777 == 0o666 & ~umask  # as open(out, "wb") made it


def test_a_symlinked_out_stays_a_link(tmp_path, k5_files, capsys):
    codebook, payload = k5_files
    cover, want = tmp_path / "cover.bmp", tmp_path / "want.bmp"
    cover.write_bytes(COVERS["bmp_padded"]())
    (tmp_path / "stego").mkdir()
    target, link = tmp_path / "stego" / "target.bmp", tmp_path / "link.bmp"
    target.write_bytes(b"an older stego file")
    link.symlink_to(target)
    assert _cli_embed(codebook, cover, payload, want) == 0
    assert _cli_embed(codebook, cover, payload, link) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == want.read_bytes()
    assert sorted(p.name for p in target.parent.iterdir()) == ["target.bmp"]


def test_a_longest_out_name_embeds(tmp_path, k5_files, capsys):
    # a basename near the 255-byte limit has no room for a suffix, so the temp
    # file must not be named after it
    codebook, payload = k5_files
    cover, short, long = tmp_path / "cover.bmp", tmp_path / "s.bmp", tmp_path / ("s" * 246 + ".bmp")
    cover.write_bytes(COVERS["bmp_padded"]())
    assert _cli_embed(codebook, cover, payload, short) == 0
    assert _cli_embed(codebook, cover, payload, long) == 0
    assert len(long.name) == 250 and long.read_bytes() == short.read_bytes()
    assert not list(tmp_path.glob("*.tmp"))


def test_chunks_run_on_at_most_two_threads(tmp_path, monkeypatch, tables):
    monkeypatch.setattr(codec, "CHUNK_BLOCKS", 7)
    monkeypatch.setattr(codec, "PLAIN_FRAME_PIXELS", 0)  # extract's chunk loop runs above it
    started, busy, seen = [], set(), []
    real_start = threading.Thread.start

    def spy_start(self):
        started.append(self)
        real_start(self)

    real_read = RasterFile.read

    def spy_read(self, lo, hi, scratch):
        busy.add(threading.get_ident())
        seen.append(threading.active_count())
        return real_read(self, lo, hi, scratch)

    real_run_chunks = codec._run_chunks

    def gated_run_chunks(io, n, end, visit):
        # each thread waits after its first chunk until the other has done one,
        # so both take part however busy the host is
        gate = threading.Barrier(2, timeout=60) if codec._usable_cpus() > 1 else None
        waited = set()

        def gated_visit(*chunk):
            result = visit(*chunk)
            if gate is not None and threading.get_ident() not in waited:
                waited.add(threading.get_ident())
                gate.wait()
            return result

        return real_run_chunks(io, n, end, gated_visit)

    monkeypatch.setattr(threading.Thread, "start", spy_start)
    monkeypatch.setattr(RasterFile, "read", spy_read)
    monkeypatch.setattr(codec, "_run_chunks", gated_run_chunks)
    cover, out = tmp_path / "cover.pgm", tmp_path / "stego.pgm"
    cover.write_bytes(COVERS["pgm_comment_trailer"]())
    before = threading.active_count()
    data = bytes(90)  # 188 of the cover's 205 blocks, in 24 chunks
    for cpus in (1, 2, 8):
        monkeypatch.setattr(codec, "_usable_cpus", lambda: cpus)
        for call in (lambda: embed_file(cover, data, tables[0], out),
                     lambda: extract_file(out, tables[0].code)):
            started.clear()
            busy.clear()
            call()
            assert len(started) == (cpus > 1)  # the caller and at most one helper
            assert len(busy) == min(cpus, 2)
            assert max(seen) <= before + 1
            assert threading.active_count() == before
        assert extract_file(out, tables[0].code) == data


def _embed_file_peak(tmp_path, side: int, payload: bytes, table, in_place: bool = False) -> int:
    """The largest tracemalloc peak of 3 embeds of a ``side`` x ``side`` PGM cover."""
    cover = tmp_path / f"cover{side}.pgm"
    out = cover if in_place else tmp_path / f"stego{side}.pgm"
    pixels = np.random.default_rng(side).integers(0, 256, side * side, dtype=np.uint8)
    data = b"P5\n%d %d\n255\n" % (side, side) + pixels.tobytes()
    del pixels
    peak = 0
    for _ in range(3):
        cover.write_bytes(data)
        tracemalloc.start()
        try:
            embed_file(cover, payload, table, out)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            cover.unlink()
            out.unlink(missing_ok=True)
    return peak


def _two_thread_bound(table, side: int, payload: bytes) -> int:
    """The most a two-thread embed of a ``side``-wide PGM may hold at once.

    Each thread holds its scratch rows (one chunk of pixels plus a row;
    a PGM's rows carry no padding, so one buffer serves) and, while it
    embeds a chunk, at most three chunk-sized arrays: the blocks' LSBs,
    the gathered leaders and the leader indices (8 bytes a block, no
    more than n).  The packed frame is held once.
    """
    n, step = table.code.n_len, -(-codec.CHUNK_BLOCKS // 8) * 8
    assert n >= 8
    scratch = (-(-step * n // side) + 1) * side
    return 2 * (scratch + 3 * step * n) + codec.HEADER_BYTES + len(payload)


def _assert_memory_bounded(tmp_path, monkeypatch, table, in_place: bool) -> None:
    # one thread: the peak is the same whichever thread takes which chunk, so
    # a 16 Mpx cover must cost what a 4 Mpx one does
    payload = np.random.default_rng(17).integers(0, 256, 10_000, dtype=np.uint8).tobytes()
    with monkeypatch.context() as patch:
        patch.setattr(codec, "MAX_THREADS", 1)
        small = _embed_file_peak(tmp_path, 2048, payload, table, in_place)  # 4 Mpx
        large = _embed_file_peak(tmp_path, 4096, payload, table, in_place)  # 16 Mpx
    assert large < 1.1 * small
    # two threads, each embedding chunks (a 150 kB payload spans 5 of the 26):
    # however their buffers overlap, the peak stays under the figure above,
    # a third of what the 16 Mpx cover takes whole
    monkeypatch.setattr(codec, "_usable_cpus", lambda: 2)
    payload = np.random.default_rng(18).integers(0, 256, 150_000, dtype=np.uint8).tobytes()
    bound = _two_thread_bound(table, 4096, payload)
    assert bound < 4096 * 4096 / 3
    assert _embed_file_peak(tmp_path, 4096, payload, table, in_place) < bound


def test_embed_file_memory_does_not_grow_with_the_cover(tmp_path, monkeypatch, tables):
    _assert_memory_bounded(tmp_path, monkeypatch, tables[0], in_place=False)


def test_in_place_embed_memory_does_not_grow_with_the_cover(tmp_path, monkeypatch, tables):
    # --out naming the cover: the cover is still read a chunk at a time
    _assert_memory_bounded(tmp_path, monkeypatch, tables[0], in_place=True)


def test_raster_file_reads_long_pgm_headers(tmp_path):
    # a 20 KB header: the first read of 64 KiB holds it
    path = tmp_path / "long.pgm"
    pixels = bytes(range(12))
    path.write_bytes(b"P5\n#" + b"x" * 20000 + b"\n4 3\n255\n" + pixels)
    with RasterFile(path) as raster:
        lay = raster.layout
        assert (lay.width, lay.height, lay.capacity) == (4, 3, 12)
        assert lay.offset == path.stat().st_size - 12
        buf = np.empty(12, dtype=np.uint8)
        raster.read(0, 12, buf)
        assert buf.tobytes() == pixels
        os.truncate(path, lay.offset + 11)  # a file that shrinks once opened
        with pytest.raises(images.ImageFormatError, match="ends early: 11 of 12 bytes"):
            raster.read(0, 12, buf)
    path.write_bytes(b"P5\n#" + b"x" * 20000)
    with pytest.raises(images.ImageFormatError, match="truncated PGM header"):
        RasterFile(path)


def test_a_long_pgm_header_is_parsed_from_one_read(tmp_path, monkeypatch):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n#" + b"x" * 20000 + b"\n4 3\n255\n" + bytes(12))
    reads = []
    real_preadv = os.preadv

    def counting_preadv(fd, buffers, pos):
        reads.append((sum(len(b) for b in buffers), pos))
        return real_preadv(fd, buffers, pos)

    monkeypatch.setattr(os, "preadv", counting_preadv)
    with RasterFile(path) as raster:
        assert raster.layout.capacity == 12
    assert reads == [(path.stat().st_size, 0)]  # all of it: the file is below the header cap


def test_a_streamed_image_is_read_no_further_than_its_first_read():
    # a 10x10 PGM and a 1 MiB trailer, as a pipe gives them: the header read takes
    # at most the header cap, the raster ends inside it, and the rest stays unread
    pgm = b"P5\n10 10\n255\n" + bytes(range(100))
    stream = io.BytesIO(pgm + b"t" * (1 << 20))
    lay, data = images._read_stream(stream)
    assert (lay.width, lay.height, bytes(data)) == (10, 10, pgm)
    assert stream.tell() <= images._PGM_HEADER_MAX


#: PLAIN_FRAME_PIXELS values that send every extract_file down one path
EXTRACT_PATHS = {"chunk_loop": 0, "plain": 1 << 40}

PATH_COVERS = {
    "bmp_padded": lambda: random_bmp_bytes(301, 211, 21),  # 903-byte rows, padded to 904
    "bmp_narrow": lambda: random_bmp_bytes(5, 4001, 23),  # more rows than bytes in a row
    "pgm_comment": lambda: commented_pgm_bytes(251, 199, 22),
}


@pytest.fixture(scope="module")
def path_codes():
    """(codebook, table) of K5, K6 (n=15), K8 (n=28), GP(8,3) (p=15) and the 18-vertex ring (p=17)."""
    graphs = [complete_graph(5), complete_graph(6), complete_graph(8),
              build_graph(16, gp83_edges()), ring_graph(18)]
    texts = [format_codebook(g) for g in graphs]
    return [(text, build_coset_table_bruteforce(code_from_codebook(text))) for text in texts]


def _extract_on(path, stego, code, monkeypatch):
    """extract_file forced down one path, checking that the chunk loop ran only on its own."""
    loops = []
    real = codec._extract_lsbs
    with monkeypatch.context() as patch:
        patch.setattr(codec, "PLAIN_FRAME_PIXELS", EXTRACT_PATHS[path])
        patch.setattr(codec, "_extract_lsbs", lambda *args: loops.append(1) or real(*args))
        data = extract_file(stego, code)
    assert len(loops) == (path == "chunk_loop")
    return data


@pytest.mark.parametrize("kind", sorted(PATH_COVERS))
def test_both_extract_paths_give_the_same_payload(kind, tmp_path, monkeypatch, path_codes):
    cover, stego = tmp_path / "cover.img", tmp_path / "stego.img"
    cover.write_bytes(PATH_COVERS[kind]())
    capacity = load_image(cover).capacity
    rng = np.random.default_rng(len(kind))
    for _, table in path_codes:
        code = table.code
        room = (capacity // code.n_len * (code.n_len - code.k) - 32) // 8
        for size in (0, int(rng.integers(1, room)), room):
            data = rng.bytes(size)
            embed_file(cover, data, table, stego)
            plain = _extract_on("plain", stego, code, monkeypatch)
            assert plain == _extract_on("chunk_loop", stego, code, monkeypatch) == data


@pytest.mark.parametrize("cap", [1000, 7])
@pytest.mark.parametrize("kind", ["pgm", "bmp_padded", "bmp_narrow"])
def test_short_positional_reads_are_retried(kind, cap, tmp_path, monkeypatch, path_codes):
    # a positional read may return fewer bytes than asked for; only one that returns
    # none is the file's end, so reads capped at `cap` bytes give what whole ones give
    cover, stego, want = tmp_path / "cover.img", tmp_path / "stego.img", tmp_path / "want.img"
    data = (b"P5\n64 64\n255\n" + np.random.default_rng(61).bytes(4096) if kind == "pgm"
            else PATH_COVERS[kind]())
    cover.write_bytes(data)
    table = path_codes[0][1]  # K5
    pixels = load_image(cover).pixels
    payload = np.random.default_rng(62).bytes((pixels.size // 10 * 4 - 32) // 8)
    embed_file(cover, payload, table, want)
    real_preadv, real_pread = os.preadv, os.pread
    reads = []

    def capped_preadv(fd, buffers, pos):
        reads.append(pos)
        return real_preadv(fd, [memoryview(buffers[0])[:cap]], pos)

    with monkeypatch.context() as patch:
        patch.setattr(os, "preadv", capped_preadv)
        patch.setattr(os, "pread", lambda fd, size, pos: real_pread(fd, min(size, cap), pos))
        assert np.array_equal(load_image(cover).pixels, pixels)
        embed_file(cover, payload, table, stego)
        assert stego.read_bytes() == want.read_bytes()
        for path in EXTRACT_PATHS:
            assert _extract_on(path, stego, table.code, monkeypatch) == payload
    assert len(reads) > 4 * len(data) // cap  # each of the runs above read the file in pieces


def _bad_stegos(cover: bytes, table, tmp_path) -> dict:
    """Files of ``cover``'s format that carry no whole frame for ``table``'s code, by fault."""
    code = table.code
    n, p = code.n_len, code.n_len - code.k
    img = tmp_path / "cover.img"
    img.write_bytes(cover)
    cover_img = load_image(img)
    fmt = cover_img.format_tag
    header_pixels = -(-32 // p) * n
    short = tmp_path / "short.img"  # one row, one channel short of the header's blocks
    width = (header_pixels - 1) // cover_img.channels
    short.write_bytes(random_bmp_bytes(width, 1, 1) if fmt == "bmp"
                      else b"P5\n%d 1\n255\n" % width + bytes(width))
    # a whole-byte frame cut after the rows its header takes: the header declares
    # blocks the file lacks
    full = tmp_path / "full.img"
    embed_file(img, bytes(500), table, full)
    rows = load_image(full)
    past_end = tmp_path / "past_end.img"
    height = -(-header_pixels // (rows.width * rows.channels))
    kept = height * rows.width * rows.channels
    assert kept < -(-(32 + 8 * 500) // p) * n
    save_image(CoverImage(width=rows.width, height=height, channels=rows.channels, depth=8,
                          pixels=rows.pixels[:kept], format_tag=fmt), past_end)
    # 13 payload bits: a frame that parses, but not as whole bytes
    odd = tmp_path / "odd.img"
    bits = np.random.default_rng(13).integers(0, 2, 13, dtype=np.uint8)
    save_image(lsb_inject(cover_img, embed_stream(lsb_extract(cover_img), bits, table)[0]), odd)
    return {"no_frame": img, "short": short, "past_end": past_end, "odd": odd}


BAD_STEGO_MESSAGES = {
    "no_frame": "declares", "short": "header needs", "past_end": "declares",
    "odd": "recovered 13 bits, not a whole number of bytes",
}


@pytest.mark.parametrize("kind", sorted(PATH_COVERS))
def test_both_extract_paths_refuse_a_bad_frame_alike(kind, tmp_path, monkeypatch, path_codes,
                                                     capsys):
    codebook, table = path_codes[3]  # GP(8,3)
    (tmp_path / "code.gc").write_text(codebook)
    out = tmp_path / "out.bin"
    for fault, stego in _bad_stegos(PATH_COVERS[kind](), table, tmp_path).items():
        errors = set()
        for path, limit in EXTRACT_PATHS.items():
            monkeypatch.setattr(codec, "PLAIN_FRAME_PIXELS", limit)
            with pytest.raises(codec.FrameError) as exc:
                extract_file(stego, table.code)
            assert BAD_STEGO_MESSAGES[fault] in str(exc.value), (fault, path)
            rc, captured = _cli_extract(tmp_path / "code.gc", stego, out, capsys)
            assert (rc, captured.out, captured.err) == (3, "", f"error: {exc.value}\n")
            assert not out.exists()
            errors.add(str(exc.value))
        assert len(errors) == 1, (fault, errors)


def _cli_extract(codebook, stego, out, capsys):
    rc = main(["extract", "--codebook", str(codebook), "--stego", str(stego), "--out", str(out)])
    return rc, capsys.readouterr()


#: ``python -c`` body: the CLI with PLAIN_FRAME_PIXELS set from the first argument
_EXTRACT_CHILD = (
    "import sys\n"
    "from graphstego import cli, codec\n"
    "codec.PLAIN_FRAME_PIXELS = int(sys.argv[1])\n"
    "sys.exit(cli.main(sys.argv[2:]))\n"
)


def _piped_extract(limit: int, codebook, stego: bytes, out):
    """``graphstego extract --stego /dev/stdin`` in a child fed ``stego`` through a pipe."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", _EXTRACT_CHILD, str(limit), "extract", "--codebook", str(codebook),
         "--stego", "/dev/stdin", "--out", str(out)],
        input=stego, env={**os.environ, "PYTHONPATH": path}, capture_output=True, timeout=120,
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_both_extract_paths_read_a_piped_stego_alike(tmp_path, path_codes):
    cover, stego, codebook = tmp_path / "cover.bmp", tmp_path / "stego.bmp", tmp_path / "code.gc"
    cover.write_bytes(PATH_COVERS["bmp_padded"]())
    capacity = load_image(cover).capacity
    rng = np.random.default_rng(31)
    for text, table in path_codes:
        codebook.write_text(text)
        code = table.code
        data = rng.bytes((capacity // code.n_len * (code.n_len - code.k) - 32) // 8)
        embed_file(cover, data, table, stego)
        for limit in EXTRACT_PATHS.values():
            out = tmp_path / f"out{limit}.bin"
            run = _piped_extract(limit, codebook, stego.read_bytes(), out)
            assert (run.returncode, run.stderr) == (0, b"")
            assert run.stdout == f"extracted {len(data)} bytes to {out}\n".encode()
            assert out.read_bytes() == data
    codebook.write_text(path_codes[0][0])  # K5
    for fault, bad in _bad_stegos(cover.read_bytes(), path_codes[0][1], tmp_path).items():
        runs = [_piped_extract(limit, codebook, bad.read_bytes(), tmp_path / "no.bin")
                for limit in EXTRACT_PATHS.values()]
        assert runs[0].returncode == runs[1].returncode == 3, fault
        assert runs[0].stderr == runs[1].stderr, fault
        assert BAD_STEGO_MESSAGES[fault].encode() in runs[0].stderr, fault
        assert not (tmp_path / "no.bin").exists()


@pytest.mark.parametrize("path", sorted(EXTRACT_PATHS))
def test_an_odd_declared_length_is_refused_before_the_frame_is_read(path, tmp_path, monkeypatch,
                                                                    path_codes):
    table = path_codes[0][1]  # K5: the header takes 8 blocks of 10 pixels
    odd = _bad_stegos(PATH_COVERS["pgm_comment"](), table, tmp_path)["odd"]
    ranges = []
    real_read = RasterFile.read
    monkeypatch.setattr(RasterFile, "read", lambda self, lo, hi, buf: ranges.append((lo, hi))
                        or real_read(self, lo, hi, buf))
    monkeypatch.setattr(codec, "PLAIN_FRAME_PIXELS", EXTRACT_PATHS[path])
    with pytest.raises(codec.FrameError, match="not a whole number of bytes"):
        extract_file(odd, table.code)
    assert ranges == [(0, 80)]


def test_plain_extract_memory_stays_below_2_5x_the_frame(tmp_path, path_codes):
    # the plain path holds the frame's pixels and one lane a syndrome bit,
    # then the lanes and one byte a frame bit: at 1 Mpx it peaked at 2.24x
    # the frame's pixel bytes for the ring (p/n = 17/18) on a padded BMP
    # (2.19x on a PGM), 1.39-2.01x for K5, K8 and GP(8,3)
    covers = {"bmp": random_bmp_bytes(601, 581, 41),
              "pgm": b"P5\n1024 1024\n255\n" + np.random.default_rng(42).bytes(1 << 20)}
    rng = np.random.default_rng(43)
    for fmt, data in covers.items():
        cover, stego = tmp_path / f"cover.{fmt}", tmp_path / f"stego.{fmt}"
        cover.write_bytes(data)
        capacity = load_image(cover).capacity
        for _, table in (path_codes[0], path_codes[4]):  # K5 and the ring
            code = table.code
            n, p = code.n_len, code.n_len - code.k
            payload = rng.bytes((capacity // n * p - 32) // 8)
            embed_file(cover, payload, table, stego)
            frame = -(-(32 + 8 * len(payload)) // p) * n
            assert frame <= codec.PLAIN_FRAME_PIXELS
            tracemalloc.start()
            try:
                got = extract_file(stego, code)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == payload
            assert peak < 2.5 * frame, (fmt, n, peak / frame)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("width, height", [(37, 23), (1, 300)], ids=["wide", "narrow"])
def test_read_bytes_gives_what_read_gives(width, height, tmp_path):
    # any range, mid-row ends included, read from a padded BMP file into a bytearray
    # and into a numpy buffer, and from a pipe: each gives the pixels that slicing the
    # file's bytes by offset and stride gives.  The padding goes a row at a time from
    # wide rows, a column at a time from many rows
    data = random_bmp_bytes(width, height, width)
    stride = (3 * width + 3) // 4 * 4
    want = np.frombuffer(data, np.uint8, offset=54).reshape(height, stride)[:, : 3 * width]
    want = want.tobytes()
    path = tmp_path / "cover.bmp"
    path.write_bytes(data)
    read, write = os.pipe()
    try:
        os.write(write, data)  # a few KB: the pipe holds it all
        os.close(write)
        with RasterFile(path) as regular, RasterFile(f"/dev/fd/{read}") as piped:
            size = regular.size
            rng = np.random.default_rng(51)
            for lo, hi in [(0, size), (0, 1), (2, 4), (110, 113), (size - 1, size),
                           *(sorted(rng.integers(0, size + 1, 2).tolist()) for _ in range(30))]:
                # a numpy buffer is left as it was past the range; a bytearray with room
                # there, as a scratch buffer has, stages the file's bytes in it
                for raster, buf in [(regular, bytearray(hi - lo)), (piped, bytearray(hi - lo)),
                                    (regular, np.full(hi - lo + 3, 7, np.uint8)),
                                    (regular, regular.scratch(hi - lo))]:
                    assert bytes(raster.read(lo, hi, buf)) == want[lo:hi]
                    assert bytes(buf[: hi - lo]) == want[lo:hi]
                    assert isinstance(buf, bytearray) or buf[hi - lo :].tolist() == [7, 7, 7]
            os.truncate(path, len(data) - 1)  # a file that shrinks once opened: its last row
            pad = stride - 3 * width
            with pytest.raises(images.ImageFormatError,
                               match=f"ends early: {pad} of {pad + 1} bytes"):
                regular.read(size - 1, size, bytearray(1))
    finally:
        os.close(read)
