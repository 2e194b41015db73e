"""Self-test of the benchmark on tiny inputs; exits nonzero on any miss.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that the fixed covering radii hold for both table builders,
that every workload emits exactly the metric names in BENCHMARK.json
(untraced and traced), that traced spans cover each op's wall time, and
that a deliberately corrupted stego file makes its ops count as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run as bench

TINY = {"bmp": (40, 30), "pgm": (64, 48)}
SEED = 7


def check_code_constants() -> None:
    """rho, n and p of each workload code, from both table builders."""
    import graphstego as gs

    for spec in bench.inputs_mod.CODES.values():
        code = gs.code_from_codebook(bench.inputs_mod.codebook_text(spec.name))
        assert (code.n_len, code.n_len - code.k) == (spec.n, spec.p), spec
        rhos = {gs.build_coset_table_tjoin(code).rho, gs.covering_radius_tjoin(code.graph)}
        if code.n_len <= 24:
            rhos.add(gs.build_coset_table_bruteforce(code).rho)
        assert rhos == {spec.rho}, (spec, rhos)


def check_metric_names(declared: dict) -> None:
    """Both modes of every workload emit exactly the declared metrics.

    A second untraced run with the same seed must repeat the quality
    figures exactly.
    """
    for name, w in bench.WORKLOADS.items():
        results = {}
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = bench.run(name, SEED, 0, trace, size=TINY[w.fmt])
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared[key]}
            assert emitted == want, (name, key, set(emitted) ^ set(want))
            results[trace] = result["metrics"]
        check_span_coverage(bench.WORK / f"spans-{name}-seed{SEED}.jsonl")
        again = bench.run(name, SEED, 0, False, size=TINY[w.fmt])["metrics"]
        for stat in ("psnr_db", "bits_per_flip"):
            assert again[stat] == results[False][stat], (name, stat)


def check_span_coverage(path: Path) -> None:
    """Top-level spans of each traced op leave under 5 ms of its wall time."""
    ops: dict[str, list[dict]] = {}
    for line in path.read_text("utf-8").splitlines():
        span = json.loads(line)
        if span["parent"] is None:
            ops.setdefault(span["op"], []).append(span)
    assert ops, path
    for op, spans in ops.items():
        wall = max(s["end"] for s in spans) - min(s["start"] for s in spans)
        covered = sum(s["end"] - s["start"] for s in spans)
        assert 0 <= wall - covered < 5e-3, (op, wall, covered)


def check_corruption_fails() -> None:
    """A stego file changed outside its LSBs, and past rho flips, fails."""
    w = bench.WORKLOADS["dense_pgm1mp_gp83"]
    spec = bench.inputs_mod.CODES[w.code]
    workdir = bench.WORK / "selftest-corrupt"
    try:
        inputs = bench.inputs_mod.make_inputs(workdir, SEED, w.fmt, *TINY[w.fmt], spec)
        runner = bench.Runner(w, spec, inputs, workdir)
        embed = runner.run("embed", "plain")
        assert not embed.reasons, embed.reasons
        stego_path = runner.files("plain")[0]
        data = bytearray(stego_path.read_bytes())
        raster = len(data) - inputs.pixels.size
        data[raster] ^= 0x02  # a change above the LSB
        for j in range(spec.n, 2 * spec.n):  # every LSB of block 1 flipped: n > rho
            data[raster + j] = inputs.pixels[j] ^ 0x01
        stego_path.write_bytes(bytes(data))
        verdict = bench.checks.check_embed(embed.status, embed.stdout, inputs.pixels, stego_path,
                                           len(inputs.payload_bytes), spec)
        text = "; ".join(verdict.reasons)
        for needle in ("more than its LSB", "flips, rho is", "total_flips", "psnr_db"):
            assert needle in text, (needle, text)
        extract = runner.run("extract", "plain")
        assert extract.reasons, "extract from a corrupted stego file passed its check"
        assert [u.kind for u in runner.units if u.reasons] == ["extract"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text("utf-8"))
    check_code_constants()
    check_corruption_fails()
    check_metric_names(declared)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
