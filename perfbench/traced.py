"""Run one op in a fresh process with spans around every layer call.

Spans are recorded by wrapping, from outside ``src/``, the public
functions each front end calls (and the two inner calls that matter:
codebook parsing and payload framing).  In ``memory`` mode tracemalloc
also runs and each span gets its traced peak; tracemalloc slows pure
Python code up to thirtyfold, so ``timing`` mode leaves it off.
Spans stay in memory and are written as JSON when the op ends::

    python traced.py timing|memory SPANS_OUT cli|lib|import [op args...]

``PERFBENCH_T0`` in the environment is the parent's ``perf_counter()``
at spawn (CLOCK_MONOTONIC, shared across processes), so the first span
covers interpreter start.
"""

from time import perf_counter

T_FIRST = perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402


class Tracer:
    """Nested spans with optional tracemalloc peaks, kept in memory."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span."""
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": None})

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "start": 0.0, "end": 0.0,
                "parent": self._stack[-1]["id"] if self._stack else None}
        self.spans.append(span)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1]["_peak"] = max(self._stack[-1]["_peak"], peak)
            tracemalloc.reset_peak()
            span["_peak"] = current
        self._stack.append(span)
        span["start"] = perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()
        if self.memory:
            peak = max(span.pop("_peak"), tracemalloc.get_traced_memory()[1])
            span["peak_mb"] = peak / 1e6
            if self._stack:
                self._stack[-1]["_peak"] = max(self._stack[-1]["_peak"], peak)
            tracemalloc.reset_peak()

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording a span per call; ``count(args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span["counts"] = count(args, result)
            return result

        return traced


def _table_counts(args, table):
    return {"syndromes": len(table.leaders)}


def _cache_counts(args, table):
    return {"syndromes": len(table.leaders), "cache_bytes": os.path.getsize(args[0])}


def _embed_counts(args, result):
    return {"cover_bits": len(args[0]), "blocks": result[1].blocks_used,
            "flips": result[1].total_flips}


def _read_counts(args, image):
    return {"bytes": os.path.getsize(args[0])}


def _write_counts(args, result):
    return {"bytes": os.path.getsize(args[1])}


#: Calls made inside the library that get their own span.
INNER = [
    ("graphstego.codebook", "parse_codebook", "codebook.parse", None),
    ("graphstego.codebook", "build_code", "graphs.build_code", None),
    ("graphstego.codec", "frame_payload", "codec.frame", None),
]

#: Public names a front end calls -> (span name, counter).
FRONT = {
    "build_coset_table_bruteforce": ("decoder.build", _table_counts),
    "build_coset_table_tjoin": ("decoder.build", _table_counts),
    "load_table": ("decoder.load", _cache_counts),
    "save_table": ("decoder.save", None),
    "covering_radius_bruteforce": ("decoder.covering_radius", None),
    "covering_radius_tjoin": ("decoder.covering_radius", None),
    "embed_stream": ("codec.embed_stream", _embed_counts),
    "extract_stream": ("codec.extract_stream", None),
    "bytes_to_bits": ("codec.unpack", None),
    "bits_to_bytes": ("codec.pack", None),
    "load_image": ("images.load", _read_counts),
    "save_image": ("images.save", _write_counts),
    "lsb_extract": ("images.lsb_extract", None),
    "lsb_inject": ("images.lsb_inject", None),
    "peak_signal_noise": ("images.psnr", None),
}


def install(tracer: Tracer, front_module) -> None:
    """Replace the traced names in the library and in the front end."""
    for module_name, attr, span_name, count in INNER:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(getattr(module, attr), span_name, count))
    for attr, (span_name, count) in FRONT.items():
        if hasattr(front_module, attr):
            setattr(front_module, attr, tracer.wrap(getattr(front_module, attr), span_name, count))


def main(argv: list[str]) -> int:
    mode, spans_out, front, op_args = argv[0], argv[1], argv[2], argv[3:]
    tracer = Tracer(memory=mode == "memory")
    tracer.add("proc.start", float(os.environ["PERFBENCH_T0"]), T_FIRST)
    t_import = perf_counter()
    tracer.add("trace.init", T_FIRST, t_import)
    import graphstego  # noqa: F401

    if front == "cli":
        import graphstego.cli as front_module
    elif front == "lib":
        import lib_ops as front_module
    else:
        front_module = None
    tracer.add("proc.import", t_import, perf_counter())
    status = 0
    if front_module is not None:
        install(tracer, front_module)
        if tracer.memory:
            tracemalloc.start()
        top = tracer.open(f"{front}.{op_args[0]}")
        try:
            status = front_module.main(op_args)
        except SystemExit as exc:  # argparse exits on bad usage
            status = exc.code if isinstance(exc.code, int) else 2
        finally:
            tracer.close(top)
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
