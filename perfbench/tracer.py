"""In-memory span recorder for the public cofrelay functions the benchmark traces.

Each wrapped call becomes a span ``[name, start, end, parent, attrs]``; the
span's index in ``Tracer.spans`` is its id and ``parent`` is -1 for a root.
Wrapping replaces the function under every name it is bound to in every
loaded ``cofrelay`` module, because ``optimizer``, ``harness`` and ``cli``
bind several of them with ``from ... import``; patching the defining module
alone would leave those calls uncounted.
"""

import functools
import json
import logging
import math
import statistics
import sys
from time import perf_counter


def _sdp_attrs(args, kwargs, sol):
    return {"iters": sol.iterations, "status": sol.status}


def _scheme_attrs(args, kwargs, result):
    scheme = args[0] if args else kwargs["scheme"]
    return {"scheme": int(scheme), "iters": result.iterations}


def _csv_attrs(args, kwargs, text):
    return {"bytes": len(text.encode())}


def traced_functions(cofrelay):
    """(owner module, attribute, span name, attrs hook) for every traced call."""
    m = cofrelay
    return [
        (m.scenario, "gen_channel", "scenario.gen_channel", None),
        (m.sdp, "solve_sdp", "sdp.solve_sdp", _sdp_attrs),
        (m.numerics, "eig_hermitian", "numerics.eig_hermitian", None),
        (m.design, "min_power_beamformer", "design.min_power_beamformer", None),
        (m.design, "solve_beamformer", "design.solve_beamformer", None),
        (m.design, "solve_combiner", "design.solve_combiner", None),
        (m.design, "required_power", "design.required_power", None),
        (m.design, "complete_design", "design.complete_design", None),
        (m.design, "verify_rates", "design.verify_rates", None),
        (m.optimizer, "run_scheme", "optimizer.run_scheme", _scheme_attrs),
        (m.harness, "run_point", "harness.run_point", None),
        (m.harness, "summarize", "harness.summarize", None),
        (m.harness, "records_csv", "harness.records_csv", _csv_attrs),
        (m.harness, "oracle_grid", "harness.oracle_grid", None),
        (m.cli, "main", "cli.main", None),
    ]


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    """Context manager: wraps the traced functions on entry, restores on exit."""

    def __init__(self, cofrelay):
        self.spans = []
        self._stack = []
        self._targets = traced_functions(cofrelay)
        self._restore = []
        self._warnings = _WarningCounter()
        self._logger = logging.getLogger("cofrelay.design")

    @property
    def rank_fallbacks(self):
        return self._warnings.count

    def _wrap(self, fn, name, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "cofrelay" or key.startswith("cofrelay.")]
        for owner, attr, name, attrs in self._targets:
            original = getattr(owner, attr)
            traced = self._wrap(original, name, attrs)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, traced)
                    self._restore.append((mod, key, original))
        self._logger.addHandler(self._warnings)
        return self

    def __exit__(self, *exc):
        self._logger.removeHandler(self._warnings)
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()
        return False

    def write(self, path):
        """One JSON line per span: [id, name, start, end, parent, attrs]."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, attrs]) + "\n")


def _tail(samples):
    """(percentile, value) for the highest percentile, capped at 99, with at
    least 10 samples above it; the maximum (as percentile 100) when there are
    fewer than 20 samples."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0
    ordered = sorted(samples)
    if n < 20:
        return 100.0, ordered[-1]
    pct = min(99.0, math.floor(100.0 * (1.0 - 10.0 / n)))
    rank = math.ceil(pct / 100.0 * n)
    return pct, ordered[rank - 1]


def layer_metrics(spans, rank_fallbacks):
    """Per-layer counts and times from a list of spans, as {name: (value, unit)}."""
    calls, busy, child = {}, {}, [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)
        if parent >= 0:
            child[parent] += end - start
    self_time = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i]

    # Nearest run_scheme ancestor's scheme, and whether a solve_beamformer
    # span encloses the call; parents always precede their children.
    scheme_of = [0] * len(spans)
    under_bf = [False] * len(spans)
    scheme_ms = {s: [] for s in (1, 2, 3, 4)}
    scheme_iters = {s: [] for s in (1, 2, 3, 4)}
    sdp_iters, sdp_nonoptimal, sdp_in_s1, retries = [], 0, 0, 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        scheme_of[i] = scheme_of[parent] if parent >= 0 else 0
        under_bf[i] = parent >= 0 and under_bf[parent]
        if name == "optimizer.run_scheme" and attrs and "scheme" in attrs:
            scheme_of[i] = attrs["scheme"]
            scheme_ms[attrs["scheme"]].append(1e3 * (end - start))
            scheme_iters[attrs["scheme"]].append(attrs["iters"])
        elif name == "design.solve_beamformer":
            under_bf[i] = True
        elif name == "design.min_power_beamformer":
            retries += 0 if under_bf[i] else 1
        elif name == "sdp.solve_sdp":
            if attrs and "iters" in attrs:
                sdp_iters.append(attrs["iters"])
            if not attrs or attrs.get("status") != "optimal":
                sdp_nonoptimal += 1
            sdp_in_s1 += 1 if scheme_of[i] == 1 else 0

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def counted(name, with_self=False):
        put(f"{name}.calls", calls.get(name, 0), "count")
        put(f"{name}.busy_s", busy.get(name, 0.0), "s")
        if with_self:
            put(f"{name}.self_s", self_time.get(name, 0.0), "s")

    counted("scenario.gen_channel")
    counted("sdp.solve_sdp", with_self=True)
    put("sdp.solve_sdp.ipm_iters_mean",
        statistics.fmean(sdp_iters) if sdp_iters else 0.0, "count")
    put("sdp.solve_sdp.nonoptimal", sdp_nonoptimal, "count")
    counted("numerics.eig_hermitian")
    counted("design.min_power_beamformer", with_self=True)
    counted("design.solve_beamformer")
    for name in ("solve_combiner", "required_power", "complete_design",
                 "verify_rates"):
        counted(f"design.{name}")
    put("design.beamformer_retries", retries, "count")
    put("design.rank_fallbacks", rank_fallbacks, "count")
    for s in (1, 2, 3, 4):
        ms = scheme_ms[s]
        pct, tail = _tail(ms)
        base = f"optimizer.run_scheme.s{s}"
        put(f"{base}.calls", len(ms), "count")
        put(f"{base}.busy_s", sum(ms) / 1e3, "s")
        put(f"{base}.p50_ms", statistics.median(ms) if ms else 0.0, "ms")
        put(f"{base}.tail_ms", tail, "ms")
        put(f"{base}.tail_pct", pct, "percentile")
    s1_calls = len(scheme_ms[1])
    put("optimizer.s1.iterations_mean",
        statistics.fmean(scheme_iters[1]) if s1_calls else 0.0, "count")
    put("optimizer.s1.sdp_per_trial", sdp_in_s1 / s1_calls if s1_calls else 0.0,
        "ratio")
    put("harness.run_point.busy_s", busy.get("harness.run_point", 0.0), "s")
    put("harness.summarize.busy_s", busy.get("harness.summarize", 0.0), "s")
    put("harness.records_csv.busy_s", busy.get("harness.records_csv", 0.0), "s")
    put("harness.records_csv.bytes",
        sum(a["bytes"] for n, _, _, _, a in spans
            if n == "harness.records_csv" and a and "bytes" in a), "bytes")
    counted("harness.oracle_grid")
    put("cli.main.busy_s", busy.get("cli.main", 0.0), "s")
    put("trace.spans", len(spans), "count")
    return out
