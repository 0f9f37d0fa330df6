"""Spans and call counts around calls into qvolt's modules, installed from outside.

The tracer swaps module attributes for wrappers, so it sees a call only when
the caller looks the name up on the patched module. A name bound with
`from X import f` is therefore patched where it is looked up: for example
`qvolt.signal.cycle_rng`, not `qvolt.seeds.cycle_rng`, which
`run_acquisition` never reads.

A span is (name, op, parent, start, end). Spans stay in memory until the run
ends. Per-cycle functions only get call counts, which cost far less than a
span each.
"""

from collections import Counter
import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, op, parent index or None, start, end]
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name):
        record = [name, self.op, self._stack[-1] if self._stack else None, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = time.perf_counter()

    @contextlib.contextmanager
    def installed(self, op):
        """Wrap qvolt's traced boundaries for one op, and unwrap them after it."""
        self.op = op
        install(self)
        try:
            yield
        finally:
            self.restore()

    def wrap_span(self, module, attr, name):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        self._patch(module, attr, fn, traced)

    def wrap_count(self, module, attr, name):
        fn = getattr(module, attr)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(module, attr, fn, counted)

    def _patch(self, module, attr, original, wrapper):
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take_counts(self):
        """Call counts since the last take, then reset."""
        counts = dict(self.counts)
        self.counts.clear()
        return counts

    def per_op(self, ops):
        """{op: ({name: total seconds}, {name: self seconds})} for the given ops.

        Self time is a span's duration minus the time its child spans cover;
        children of one span run one after another, so that is their sum.
        """
        child_time = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {op: (Counter(), Counter()) for op in ops}
        for i, (name, op, _, start, end) in enumerate(self.spans):
            if op in out:
                total, own = out[op]
                total[name] += end - start
                own[name] += end - start - child_time[i]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, parent, start, end in self.spans:
                fh.write(json.dumps(
                    {"name": name, "op": op, "parent": parent, "start": start, "end": end}
                ) + "\n")


def install(tracer):
    """Wrap every traced boundary of the qvolt package."""
    from qvolt import analysis, blinding, cli, pipeline, signal, sources

    spans = {
        sources: ["write_bits", "ingest_bits"],
        blinding: ["combine_and_permute", "unblind", "write_key", "read_key"],
        signal: ["run_acquisition", "write_readings", "read_readings"],
        pipeline: ["generate_bits", "blind", "acquire", "blinded_summary", "unblind_fit"],
        analysis: [
            "classify", "summarize", "histogram", "wls_fit", "mc_errors", "confidence_bound",
        ],
    }
    for module, attrs in spans.items():
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr in attrs:
            tracer.wrap_span(module, attr, f"{layer}.{attr}")
    # names bound by `from X import f`, wrapped where they are looked up
    tracer.wrap_span(cli, "load_config", "config.load_config")
    tracer.wrap_span(pipeline, "derive_rng", "seeds.derive_rng")
    tracer.wrap_count(signal, "cycle_rng", "seeds.cycle_rng")
    tracer.wrap_count(signal, "expected_reading", "model.expected_reading")
    tracer.wrap_count(signal, "synthesize_cycle", "signal.synthesize_cycle")
    tracer.wrap_count(signal, "reduce_cycle", "signal.reduce_cycle")
