"""The file-level codec: embed_file and extract_file stream a chunk at a time."""

from __future__ import annotations

import errno
import itertools
import os
import threading
import tracemalloc

import numpy as np
import pytest

from graphstego import cli, codec, images
from graphstego.cli import main
from graphstego.codebook import format_codebook
from graphstego.codec import CapacityError, embed_file, embed_image, extract_file, extract_image
from graphstego.decoder import build_coset_table_bruteforce
from graphstego.graphs import build_code, complete_graph
from graphstego.images import RasterFile, load_image, save_image

from helpers import random_bmp_bytes, ring_graph


def commented_pgm_bytes(width: int, height: int, seed: int, comment: bytes = b"made by hand"
                        ) -> bytes:
    """A PGM whose header carries a comment and whose raster is followed by trailing bytes."""
    pixels = np.random.default_rng(seed).integers(0, 256, width * height, dtype=np.uint8)
    return b"P5\n# %s\n%d %d\n255\n" % (comment, width, height) + pixels.tobytes() + b"trailer"


COVERS = {
    "pgm_comment_trailer": lambda: commented_pgm_bytes(50, 41, 3),
    # a header past the first 4 KiB read, and much longer than the canonical one
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
    stego, report = embed_image(load_image(cover_path), payload, table)
    save_image(stego, out_path)
    return report


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("kind", sorted(COVERS))
def test_file_path_matches_the_whole_image_path(kind, chunk, cpus, tmp_path, monkeypatch, tables):
    if chunk is not None:  # 8 blocks a chunk: boundaries fall mid-row in the padded BMP
        monkeypatch.setattr(codec, "CHUNK_BLOCKS", chunk)
    monkeypatch.setattr(codec, "_usable_cpus", lambda: cpus)
    cover_path, want, got = tmp_path / "cover.img", tmp_path / "want.img", tmp_path / "got.img"
    cover_path.write_bytes(COVERS[kind]())
    capacity = load_image(cover_path).capacity
    rng = np.random.default_rng(len(kind) + 10 * cpus)
    for table in tables:
        code = table.code
        room = (capacity // code.n_len * (code.n_len - code.k) - 32) // 8
        for size in (0, int(rng.integers(1, room)), room):
            data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            report = _whole_image_path(cover_path, data, table, want)
            assert embed_file(cover_path, data, table, got) == report
            assert got.read_bytes() == want.read_bytes()
            assert extract_file(got, code) == extract_image(load_image(got), code) == data
        with pytest.raises(CapacityError):
            embed_file(cover_path, bytes(room + 1), table, got)
    # the cover itself, read as a stego file, carries no frame
    with pytest.raises(codec.FrameError) as exc:
        extract_file(cover_path, tables[0].code)
    with pytest.raises(codec.FrameError, match=str(exc.value)):
        extract_image(load_image(cover_path), tables[0].code)


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
    failures = {  # the third call fails
        "read": (RasterFile, "read_into", errno.EIO, "injected read error"),
        "write": (images, "_write_at", errno.ENOSPC, "injected write error"),
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
    started, busy, seen = [], set(), []
    real_start = threading.Thread.start

    def spy_start(self):
        started.append(self)
        real_start(self)

    real_read = codec._Raster.read

    def spy_read(self, lo, hi, scratch):
        busy.add(threading.get_ident())
        seen.append(threading.active_count())
        return real_read(self, lo, hi, scratch)

    real_run_chunks = codec._run_chunks

    def gated_run_chunks(starts, run):
        # each thread waits after its first chunk until the other has done one,
        # so both take part however busy the host is
        gate = threading.Barrier(2, timeout=60) if codec._usable_cpus() > 1 else None

        def gated_run(claims):
            def gated_claims():
                yield next(claims)
                if gate is not None:
                    gate.wait()
                yield from claims

            return run(gated_claims())

        return real_run_chunks(starts, gated_run)

    monkeypatch.setattr(threading.Thread, "start", spy_start)
    monkeypatch.setattr(codec._Raster, "read", spy_read)
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
    n, step = table.code.n_len, codec._step()
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
    # a header past the first read: the parse asks for more of the file
    path = tmp_path / "long.pgm"
    pixels = bytes(range(12))
    path.write_bytes(b"P5\n#" + b"x" * 20000 + b"\n4 3\n255\n" + pixels)
    with RasterFile(path) as raster:
        lay = raster.layout
        assert (lay.width, lay.height, lay.capacity) == (4, 3, 12)
        assert lay.offset == path.stat().st_size - 12
        buf = np.empty(12, dtype=np.uint8)
        raster.read_into(buf, lay.offset)
        assert buf.tobytes() == pixels
        with pytest.raises(images.ImageFormatError, match="ends early"):
            raster.read_into(np.empty(13, dtype=np.uint8), lay.offset)
    path.write_bytes(b"P5\n#" + b"x" * 20000)
    with pytest.raises(images.ImageFormatError, match="truncated PGM header"):
        RasterFile(path)
