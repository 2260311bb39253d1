"""In-memory spans around the names each faultypolar layer is called through.

The program has no spans of its own yet, so the tracer replaces
module-level attributes (for example ``faultypolar.montecarlo._decode_batch``)
with wrappers that record a span per call: name, start, end and parent.
Callers look these names up at call time, so every call goes through the
wrapper. Counts are taken from call arguments, never from timers, and
repeat exactly for the same inputs.

A layer's self time is the duration of its spans minus the time their
child spans cover. The self-time buckets below partition a traced
repetition, so together they account for its wall time.

A name that is missing (a later change may rename a private function) is
not wrapped: the metrics that depend on it are reported as unmeasured and
its time lands in its caller's self time.
"""

from __future__ import annotations

import math
import time

_clock = time.perf_counter

# Span name -> the per-layer metric its self time is added to.
SELF_TIME_BUCKETS = {
    "cli.main": "cli.self_s",
    "cli._write_csv": "cli.write_csv_s",
    "analysis.sweep": "analysis.self_s",
    "construction.construct_code": "construction.construct_code_self_s",
    "construction.design_code": "construction.design_code_s",
    "construction.evolve_all": "construction.evolve_all_s",
    "construction.info_indices": "construction.info_indices_s",
    "core.transfer": "core.transfer_s",
    "montecarlo.run_simulation": "montecarlo.self_s",
    "montecarlo._run_chunk": "montecarlo.self_s",
    "montecarlo.substream": "montecarlo.rng_setup_s",
    "montecarlo.draw": "montecarlo.rng_draw_s",
    "codec._decode_batch": "codec.decode_s",
    "codec.encode": "codec.encode_s",
}

COUNTS = (
    "montecarlo.substream_calls", "montecarlo.uniforms_drawn", "montecarlo.chunks",
    "codec.decode_calls", "codec.decode_msgs", "codec.fault_slots",
    "codec.encode_calls", "construction.evolve_all_calls",
    "construction.evolve_all_elems", "construction.info_indices_calls",
    "core.transfer_calls", "cli.csv_rows", "cli.csv_bytes",
)


def _arg(args, kwargs, index, name):
    """Argument `name` of a call, passed at position `index` or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


def _numel(size) -> int:
    if size is None:
        return 1
    if isinstance(size, int):
        return size
    return math.prod(size)


class _Draws:
    """Generator proxy returned by the wrapped ``substream``; times the draws."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def random(self, *args, **kwargs):
        size = kwargs["size"] if "size" in kwargs else (args[0] if args else None)
        return self._tracer.draw(self._gen.random, size, args, kwargs)

    def integers(self, *args, **kwargs):
        size = kwargs["size"] if "size" in kwargs else (args[2] if len(args) > 2 else None)
        return self._tracer.draw(self._gen.integers, size, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Span recorder for one repetition of a workload in one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.fault_table_bytes = 0
        self.csv_paths: list[str] = []
        self.unmeasured: set[str] = set()

    # -- recording -----------------------------------------------------

    def wrap(self, name, fn, after=None, metrics=()):
        """Return fn wrapped in a span.

        `after(args, kwargs)` updates the counts from the call's arguments;
        if it cannot (the signature changed), `metrics` become unmeasured.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                stack.pop()
                if after is not None:
                    try:
                        after(args, kwargs)
                    except (TypeError, KeyError, IndexError, AttributeError, ValueError):
                        self.unmeasured.update(metrics)

        return traced

    def draw(self, method, size, args, kwargs):
        span = ["montecarlo.draw", 0.0, 0.0, self._stack[-1]]
        self.spans.append(span)
        span[1] = _clock()
        try:
            return method(*args, **kwargs)
        finally:
            span[2] = _clock()
            self.counts["montecarlo.uniforms_drawn"] += _numel(size)

    def root(self, name):
        """Open a span that stays open until `close_root` (the repetition)."""
        span = [name, _clock(), 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close_root(self, span):
        span[2] = _clock()
        self._stack.pop()

    # -- installation --------------------------------------------------

    def install(self, cli, construction, analysis, montecarlo):
        """Wrap the names each layer is called through, in place."""
        counts = self.counts

        def bump(key):
            def after(args, kwargs):
                counts[key] += 1
            return after

        def evolve_all_after(args, kwargs):
            n = _arg(args, kwargs, 0, "n")
            counts["construction.evolve_all_calls"] += 1
            # transfer-map outputs over all n levels: 2 + 4 + ... + 2**n
            counts["construction.evolve_all_elems"] += 2 ** (n + 1) - 2

        def write_csv_after(args, kwargs):
            self.csv_paths.append(str(_arg(args, kwargs, 0, "path")))

        def chunk_after(args, kwargs):
            counts["montecarlo.chunks"] += 1
            trials = _arg(args, kwargs, 2, "stop") - _arg(args, kwargs, 1, "start")
            table = trials * _arg(args, kwargs, 3, "slots") * 8
            self.fault_table_bytes = max(self.fault_table_bytes, table)

        def decode_after(args, kwargs):
            counts["codec.decode_calls"] += 1
            batch, size = _arg(args, kwargs, 0, "y").shape
            table = _arg(args, kwargs, 6, "fault_uniforms")
            # messages per frame: N*n in the shared tree, N*(N-1) when each
            # bit recomputes its own tree
            if _arg(args, kwargs, 3, "mode") == "shared":
                per_frame = size * (size.bit_length() - 1)
            else:
                per_frame = size * (size - 1)
            counts["codec.decode_msgs"] += batch * per_frame
            counts["codec.fault_slots"] += 0 if table is None else int(table.size)

        def drawing(substream):
            return lambda *args, **kwargs: _Draws(substream(*args, **kwargs), self)

        rng = ("montecarlo.rng_setup_s", "montecarlo.substream_calls",
               "montecarlo.rng_draw_s", "montecarlo.uniforms_drawn",
               "montecarlo.rng_setup_frac")
        evolve = ("construction.evolve_all_s", "construction.evolve_all_calls",
                  "construction.evolve_all_elems")
        # (module, attribute, span name, count update, metrics it feeds)
        targets = [
            (cli, "_write_csv", "cli._write_csv", write_csv_after,
             ("cli.write_csv_s", "cli.csv_rows", "cli.csv_bytes")),
            (cli, "construct_code", "construction.construct_code", None,
             ("construction.construct_code_self_s",)),
            (cli, "run_simulation", "montecarlo.run_simulation", None,
             ("montecarlo.self_s", "montecarlo.rng_setup_frac")),
            *((cli, sweep, "analysis.sweep", None, ("analysis.self_s",))
              for sweep in ("staircase", "fer_vs_rate_sweep", "protection_sweep",
                            "rate_loss_sweep")),
            (construction, "evolve_all", "construction.evolve_all", evolve_all_after, evolve),
            (analysis, "evolve_all", "construction.evolve_all", evolve_all_after, evolve),
            (construction, "design_code", "construction.design_code", None,
             ("construction.design_code_s",)),
            *((construction, transfer, "core.transfer", bump("core.transfer_calls"),
               ("core.transfer_s", "core.transfer_calls"))
              for transfer in ("t_minus", "t_plus", "t_minus_faulty", "t_plus_faulty")),
            (montecarlo, "substream", "montecarlo.substream",
             bump("montecarlo.substream_calls"), rng),
            (montecarlo, "_run_chunk", "montecarlo._run_chunk", chunk_after,
             ("montecarlo.self_s", "montecarlo.chunks", "montecarlo.fault_table_mib")),
            (montecarlo, "_decode_batch", "codec._decode_batch", decode_after,
             ("codec.decode_s", "codec.decode_calls", "codec.decode_msgs",
              "codec.decode_mmsg_per_s", "codec.fault_slots")),
            (montecarlo, "encode", "codec.encode", bump("codec.encode_calls"),
             ("codec.encode_s", "codec.encode_calls")),
        ]
        for module, attr, name, after, metrics in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                self.unmeasured.update(metrics)
                continue
            if attr == "substream":
                fn = drawing(fn)
            setattr(module, attr, self.wrap(name, fn, after, metrics))

        # CodeConstruction.info_indices is a property, wrapped on the class
        metrics = ("construction.info_indices_s", "construction.info_indices_calls")
        cls = getattr(construction, "CodeConstruction", None)
        prop = vars(cls).get("info_indices") if cls is not None else None
        if isinstance(prop, property):
            cls.info_indices = property(self.wrap(
                "construction.info_indices", prop.fget,
                bump("construction.info_indices_calls"), metrics))
        else:
            self.unmeasured.update(metrics)

    # -- results -------------------------------------------------------

    def summary(self) -> dict:
        """Self-time buckets, counts and unmeasured names of this repetition."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        buckets = dict.fromkeys(SELF_TIME_BUCKETS.values(), 0.0)
        simulation_s = 0.0
        harness_s = 0.0
        for (name, start, end, parent), child in zip(spans, covered):
            own = end - start - child
            bucket = SELF_TIME_BUCKETS.get(name)
            if bucket is None:
                harness_s += own
            else:
                buckets[bucket] += own
            if name == "montecarlo.run_simulation":
                simulation_s += end - start
        counts = dict(self.counts)
        for path in self.csv_paths:
            with open(path, "rb") as fh:
                data = fh.read()
            counts["cli.csv_bytes"] += len(data)
            counts["cli.csv_rows"] += data.count(b"\n") - 1  # minus the header
        counts["montecarlo.fault_table_mib"] = self.fault_table_bytes / 2**20
        return {"self_s": buckets, "harness_s": harness_s,
                "simulation_s": simulation_s, "counts": counts,
                "unmeasured": sorted(self.unmeasured)}

    def write_spans(self, path) -> None:
        """Write the spans as CSV: id, parent, name, start and end in seconds."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")
