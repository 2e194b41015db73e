"""Seeded benchmark of graphstego's embed / extract / analyze ops.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop with one client: one op at a time, each in a
fresh child process (interpreter start, import and cold memory are what
a CLI user pays), and the child's own peak RSS comes from ``os.wait4``.
Every op's output is checked (see checks.py).  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` gives the end-to-end metrics; ``--trace 1`` runs the same
ops traced (see traced.py) and gives the per-layer metrics.
"""

from __future__ import annotations

import os

# Two cores in all: this process plus one single-threaded child at a time.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import checks  # noqa: E402
import inputs as inputs_mod  # noqa: E402

WORK = ROOT / ".perfbench_work"
OP_TIMEOUT_S = 150
OPS = ("analyze", "embed", "extract")


@dataclass(frozen=True)
class Workload:
    fmt: str
    width: int
    height: int
    code: str
    front: str  # "cli": graphstego CLI; "lib": README library path with a table cache
    setup_repeats: int


WORKLOADS = {
    # codec and images do nearly all the work; the K5 table takes ~1 ms
    "bulk_bmp12mp_k5": Workload("bmp", 4000, 3000, "k5", "cli", 9),
    # largest code the CLI's exhaustive builder accepts: decoder dominates
    "dense_pgm1mp_gp83": Workload("pgm", 1024, 1024, "gp83", "cli", 9),
    # above the CLI limit: T-join build and save_table once, load_table per op
    "tjoin_cache_pgm1mp_c16": Workload("pgm", 1024, 1024, "c16", "lib", 3),
}

END_TO_END_UNITS = {
    "setup_s": "s", "embed_s": "s", "extract_s": "s", "analyze_s": "s",
    "peak_rss_mb": "MB", "psnr_db": "dB", "bits_per_flip": "bit/flip",
}


@dataclass(frozen=True)
class LayerMetric:
    """How one per-layer figure is read from the traced units.

    ``how``: "time" sums span durations per unit, "peak" takes the
    largest traced peak (memory units), "count" sums a span counter,
    "self" is the front-end span minus its children.  Each figure is the
    median over the units that made such a span (0 when none did).
    ``ops_only`` leaves out set-up units.
    """

    name: str
    unit: str
    how: str
    spans: tuple[str, ...] = ()
    key: str = ""
    ops_only: bool = False


PER_LAYER = [
    LayerMetric("cli.self_s", "s", "self"),
    LayerMetric("proc.start_s", "s", "time", ("proc.start",)),
    LayerMetric("proc.import_s", "s", "time", ("proc.import",)),
    LayerMetric("proc.exit_s", "s", "time", ("proc.exit",)),
    LayerMetric("codebook.parse_s", "s", "time", ("codebook.parse",)),
    LayerMetric("graphs.build_code_s", "s", "time", ("graphs.build_code",)),
    LayerMetric("decoder.build_s", "s", "time", ("decoder.build",)),
    LayerMetric("decoder.build_peak_mb", "MB", "peak", ("decoder.build",)),
    LayerMetric("decoder.syndromes", "count", "count", ("decoder.build", "decoder.load"), "syndromes"),
    LayerMetric("decoder.table_s", "s", "time", ("decoder.build", "decoder.load"), ops_only=True),
    LayerMetric("decoder.table_peak_mb", "MB", "peak", ("decoder.build", "decoder.load"), ops_only=True),
    LayerMetric("decoder.cache_bytes", "count", "count", ("decoder.load",), "cache_bytes"),
    LayerMetric("decoder.covering_radius_s", "s", "time", ("decoder.covering_radius",)),
    LayerMetric("codec.embed_stream_s", "s", "time", ("codec.embed_stream",)),
    LayerMetric("codec.embed_stream_peak_mb", "MB", "peak", ("codec.embed_stream",)),
    LayerMetric("codec.frame_s", "s", "time", ("codec.frame",)),
    LayerMetric("codec.unpack_s", "s", "time", ("codec.unpack",)),
    LayerMetric("codec.pack_s", "s", "time", ("codec.pack",)),
    LayerMetric("codec.blocks", "count", "count", ("codec.embed_stream",), "blocks"),
    LayerMetric("codec.flips", "count", "count", ("codec.embed_stream",), "flips"),
    LayerMetric("codec.cover_bits", "count", "count", ("codec.embed_stream",), "cover_bits"),
    LayerMetric("codec.extract_stream_s", "s", "time", ("codec.extract_stream",)),
    LayerMetric("codec.extract_stream_peak_mb", "MB", "peak", ("codec.extract_stream",)),
    LayerMetric("images.load_s", "s", "time", ("images.load",)),
    LayerMetric("images.lsb_extract_s", "s", "time", ("images.lsb_extract",)),
    LayerMetric("images.lsb_inject_s", "s", "time", ("images.lsb_inject",)),
    LayerMetric("images.save_s", "s", "time", ("images.save",)),
    LayerMetric("images.bytes_read", "count", "count", ("images.load",), "bytes"),
    LayerMetric("images.bytes_written", "count", "count", ("images.save",), "bytes"),
    LayerMetric("images.psnr_s", "s", "time", ("images.psnr",)),
    LayerMetric("images.psnr_peak_mb", "MB", "peak", ("images.psnr",)),
]


@dataclass
class Unit:
    """One child process: an op or a set-up step, plain or traced."""

    uid: str
    kind: str  # "setup" or one of OPS
    mode: str  # "plain", "timing" or "memory"
    status: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    end: float
    spans: list[dict] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _terminate(signum, frame):
    sys.exit(128 + signum)


class Runner:
    """Spawns op children one at a time and checks what each wrote."""

    def __init__(self, workload: Workload, spec, inputs, workdir: Path):
        self.w = workload
        self.spec = spec
        self.inputs = inputs
        self.dir = workdir
        self.cache = workdir / "table.gctable"
        self.units: list[Unit] = []
        self.env = dict(os.environ)
        # An installed CLI runs from cached bytecode; so do the op children.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def files(self, mode: str):
        return self.dir / f"stego-{mode}.{self.w.fmt}", self.dir / f"out-{mode}.bin"

    def _op_args(self, kind: str, mode: str) -> list[str]:
        cb, stego, out = str(self.inputs.codebook), *map(str, self.files(mode))
        if self.w.front == "lib":
            return {
                "setup": ["setup", cb, str(self.cache)],
                "analyze": ["analyze", cb, str(self.cache)],
                "embed": ["embed", cb, str(self.cache), str(self.inputs.cover), str(self.inputs.payload), stego],
                "extract": ["extract", cb, stego, out],
            }[kind]
        return {
            "setup": [],
            "analyze": ["analyze", "--codebook", cb, "--porcelain"],
            "embed": ["embed", "--codebook", cb, "--cover", str(self.inputs.cover),
                      "--payload", str(self.inputs.payload), "--out", stego, "--porcelain"],
            "extract": ["extract", "--codebook", cb, "--stego", stego, "--out", out],
        }[kind]

    def run(self, kind: str, mode: str) -> Unit:
        uid = f"{len(self.units)}.{kind}.{mode}"
        op_args = self._op_args(kind, mode)
        spans_path = self.dir / "spans.json"
        if mode != "plain":
            front = "import" if (kind == "setup" and self.w.front == "cli") else self.w.front
            argv = [sys.executable, str(BENCH / "traced.py"), mode, str(spans_path), front, *op_args]
        elif self.w.front == "lib":
            argv = [sys.executable, str(BENCH / "lib_ops.py"), *op_args]
        elif kind == "setup":
            argv = [sys.executable, "-c", "import graphstego"]
        else:
            argv = [sys.executable, "-m", "graphstego.cli", *op_args]
        stego, out = self.files(mode)
        for stale in (stego if kind == "embed" else None, out if kind == "extract" else None, spans_path):
            if stale is not None and stale.exists():
                stale.unlink()
        unit = self._spawn(uid, kind, mode, argv)
        if mode != "plain":
            self._read_spans(unit, spans_path)
        self._check(unit, stego, out)
        self.units.append(unit)
        return unit

    def _spawn(self, uid: str, kind: str, mode: str, argv: list[str]) -> Unit:
        stdout_path, stderr_path = self.dir / "stdout.txt", self.dir / "stderr.txt"
        actions = [
            (os.POSIX_SPAWN_CLOSE, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        t0 = perf_counter()
        self.env["PERFBENCH_T0"] = repr(t0)
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException as exc:  # timeout, interrupt or SIGTERM: never orphan the child
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            if not isinstance(exc, _Timeout):
                raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        t1 = perf_counter()
        unit = Unit(uid, kind, mode, os.waitstatus_to_exitcode(status), t1 - t0,
                    usage.ru_maxrss * 1024 / 1e6,
                    stdout_path.read_text("utf-8", "replace"), stderr_path.read_text("utf-8", "replace"), t1)
        return unit

    @staticmethod
    def _read_spans(unit: Unit, path: Path) -> None:
        try:
            spans = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError):
            unit.reasons.append("traced child wrote no spans")
            return
        last = max(s["end"] for s in spans if s["parent"] is None)
        unit.spans = spans + [{"id": len(spans), "name": "proc.exit", "start": last,
                               "end": unit.end, "parent": None}]

    def _check(self, unit: Unit, stego: Path, out: Path) -> None:
        if unit.kind == "analyze":
            verdict = checks.check_analyze(unit.status, unit.stdout, self.spec)
        elif unit.kind == "embed":
            verdict = checks.check_embed(unit.status, unit.stdout, self.inputs.pixels, stego,
                                         len(self.inputs.payload_bytes), self.spec)
        elif unit.kind == "extract":
            verdict = checks.check_extract(unit.status, out, self.inputs.payload_bytes)
        else:
            verdict = checks.Verdict()
            checks.check_exit(verdict, unit.status)
        unit.reasons += verdict.reasons
        unit.stats = verdict.stats
        if unit.reasons:
            detail = unit.stderr.strip().splitlines()[-1:] or [""]
            print(f"FAILED {unit.uid}: {'; '.join(unit.reasons)} {detail[0]}", file=sys.stderr)


def _median(values):
    return statistics.median(values) if values else 0.0


def _summary(name: str, values: list[float], unit: str) -> None:
    """Human-readable line: median, sample count and quartile spread."""
    if not values:
        return
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    print(f"{name}: median={statistics.median(values):.6g} {unit} n={len(values)} "
          f"q1={qs[0]:.6g} q3={qs[2]:.6g} min={min(values):.6g} max={max(values):.6g}")


def end_to_end(units: list[Unit]) -> dict:
    plain = [u for u in units if u.mode == "plain"]
    ops = [u for u in plain if u.kind != "setup"]
    metrics = {}
    for kind in ("setup",) + OPS:
        walls = [u.wall_s for u in plain if u.kind == kind]
        _summary(f"{kind}_s", walls, "s")
        metrics[f"{kind}_s"] = _median(walls)
    metrics["peak_rss_mb"] = max(u.rss_mb for u in ops)
    for stat in ("psnr_db", "bits_per_flip"):
        values = {u.stats[stat] for u in ops if stat in u.stats}
        if len(values) > 1:
            print(f"{stat} differs between ops of one run: {sorted(values)}", file=sys.stderr)
        metrics[stat] = _median(sorted(values))
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _unit_figure(metric: LayerMetric, spans: list[dict]):
    """One unit's figure for a metric, or None if the unit made no such span."""
    if metric.how == "self":
        top = [s for s in spans if s["name"].split(".")[0] in ("cli", "lib") and s["parent"] is None]
        if not top:
            return None
        children = sum(s["end"] - s["start"] for s in spans if s["parent"] == top[0]["id"])
        return top[0]["end"] - top[0]["start"] - children
    hits = [s for s in spans if s["name"] in metric.spans]
    if not hits:
        return None
    if metric.how == "time":
        return sum(s["end"] - s["start"] for s in hits)
    if metric.how == "peak":
        return max(s.get("peak_mb", 0.0) for s in hits)
    return sum(s.get("counts", {}).get(metric.key, 0) for s in hits)


def per_layer(units: list[Unit]) -> dict:
    metrics = {}
    for metric in PER_LAYER:
        mode = "memory" if metric.how == "peak" else "timing"
        pool = [u for u in units if u.mode == mode and not (metric.ops_only and u.kind == "setup")]
        figures = [f for f in (_unit_figure(metric, u.spans) for u in pool) if f is not None]
        _summary(metric.name, figures, metric.unit)
        metrics[metric.name] = {"value": _median(figures), "unit": metric.unit}
    plain = [u.wall_s for u in units if u.mode == "plain" and u.kind == "embed"]
    traced = [u.wall_s for u in units if u.mode == "timing" and u.kind == "embed"]
    metrics["trace.overhead_s"] = {"value": _median(traced) - _median(plain), "unit": "s"}
    return metrics


def write_spans(units: list[Unit], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u in units:
            for s in u.spans:
                fh.write(json.dumps(dict(s, op=u.uid, mode=u.mode)) + "\n")


def run(workload_name: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Generate inputs, set up, run ops for ``seconds``; return the result.

    ``size`` overrides the cover's (width, height), for the self-test.
    """
    w = WORKLOADS[workload_name]
    if size is not None:
        w = Workload(w.fmt, *size, w.code, w.front, min(w.setup_repeats, 2))
    spec = inputs_mod.CODES[w.code]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    try:
        inputs = inputs_mod.make_inputs(workdir, seed, w.fmt, w.width, w.height, spec)
        runner = Runner(w, spec, inputs, workdir)
        mode = "timing" if trace else "plain"
        start = perf_counter()
        runner.run("setup", mode)  # the first op may need the table cache
        if trace:
            if w.front == "lib":
                runner.run("setup", "memory")
            for kind in ("embed", "extract"):
                runner.run(kind, "memory")
            start = perf_counter()  # the memory pass does not eat into the timed loop
        # Host load drifts over tens of seconds, so the other set-up
        # repeats are spread over the run, one per iteration.
        for repeat in itertools.count(1):
            if repeat < w.setup_repeats:
                runner.run("setup", mode)
            for m in ("plain", "timing") if trace else ("plain",):
                for kind in OPS:
                    runner.run(kind, m)
            if perf_counter() - start >= seconds:
                break
        units = runner.units
        if trace:
            write_spans(units, WORK / f"spans-{workload_name}-seed{seed}.jsonl")
        metrics = per_layer(units) if trace else end_to_end(units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for u in units if u.reasons)
    print(f"failed_op_share: {failed / len(units):.6g} ({failed} of {len(units)} ops)")
    return {"correct": failed == 0, "attempted": len(units), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    if not (SRC / "graphstego" / "__init__.py").is_file():
        print(f"error: no graphstego sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
