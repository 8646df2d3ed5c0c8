"""Per-layer spans and call counts for eframes, recorded from outside.

The library has no tracing of its own, so the benchmark replaces each
public function of a layer, in every eframes module namespace that
binds it, by a wrapper. Calls from one library module into another go
through those namespaces, so they are caught too. The dense kernel
(`hilbert`) is measured as calls into numpy.linalg, which the library
reaches as `np.linalg.<name>` at call time.

Spans (op id, name, start, end, parent) stay in memory; the caller
writes them out when the run ends. A layer's self time is the duration
of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np

from oracle import predicted_terms

#: layer -> (eframes module that defines the functions, function names)
LAYERS = {
    "config": ("config", ("parse_config",)),
    "mapping.build": (
        "mapping",
        ("build_dense", "build_bidiagonal", "build_banded", "identity_mapping"),
    ),
    "mapping.apply": ("mapping", ("apply_mapping", "apply_inverse_mapping")),
    "eframe": ("eframe", ("e_frame_bounds", "e_canonical_dual")),
    "controlled.bounds": (
        "controlled",
        ("controlled_bounds", "is_parseval", "identity_errors", "commutation_criterion"),
    ),
    "controlled.dual": (
        "controlled",
        (
            "canonical_dual",
            "random_null_map",
            "random_right_inverse",
            "dual_from_right_inverse",
            "dual_with_offset",
            "extract_null_map",
        ),
    ),
    "controlled.certify": ("controlled", ("verify_dual",)),
    "neumann": ("neumann", ("contraction_ratio", "corrected_dual", "iterative_reconstruct")),
    "gallery": (
        "gallery",
        (
            "example_mapping",
            "example_psi",
            "example_psi_tilde",
            "example_phi",
            "example_u",
            "example_parseval_psi",
        ),
    ),
    "cli": ("cli", ("main",)),
}

#: numpy.linalg functions counted as the `hilbert` layer; `norm` only
#: with ord=2, where it runs an SVD.
LINALG = ("eigvalsh", "svd", "inv", "pinv", "solve", "norm")

#: metric name -> layer whose summed self time it reports
SELF_TIME_METRICS = {
    "config.parse_s": "config",
    "mapping.build_s": "mapping.build",
    "mapping.apply_s": "mapping.apply",
    "hilbert.linalg_s": "hilbert",
    "eframe.bounds_s": "eframe",
    "controlled.bounds_s": "controlled.bounds",
    "controlled.dual_s": "controlled.dual",
    "controlled.certify_s": "controlled.certify",
    "neumann.series_s": "neumann",
    "gallery.build_s": "gallery",
    "cli.self_s": "cli",
}

#: call counters that must repeat exactly for the same operation
COUNT_METRICS = (
    "mapping.build_calls",
    "mapping.apply_calls",
    "controlled.bounds_calls",
    "hilbert.eigvalsh_calls",
    "hilbert.svd_calls",
    "hilbert.inv_calls",
    "hilbert.pinv_calls",
    "hilbert.solve_calls",
    "hilbert.norm2_calls",
)

#: every per-layer metric a traced run reports, with its unit
PER_LAYER_METRICS = {
    **dict.fromkeys(SELF_TIME_METRICS, "s"),
    **dict.fromkeys(COUNT_METRICS, "count"),
    "mapping.build_peak_mb": "MB",
    "config.bytes_read": "bytes",
    "controlled.certify_pass_ratio": "ratio",
    "controlled.errors": "count",
    "neumann.terms_used": "count",
    "neumann.terms_predicted": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead": "ratio",
}


def _is_ord2(args, kwargs) -> bool:
    ord_ = kwargs.get("ord", args[1] if len(args) > 1 else None)
    return isinstance(ord_, int) and not isinstance(ord_, bool) and ord_ == 2


@contextlib.contextmanager
def patched(make_wrapper):
    """Replace layer functions everywhere eframes binds them.

    make_wrapper(layer, name, fn) returns the replacement or None to
    leave fn alone. Originals are restored on exit.
    """
    replacements = {}
    for layer, (module_name, names) in LAYERS.items():
        module = importlib.import_module(f"eframes.{module_name}")
        for name in names:
            fn = getattr(module, name)
            wrapper = make_wrapper(layer, name, fn)
            if wrapper is not None:
                replacements[id(fn)] = (fn, wrapper)
    restore = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "eframes" and not module_name.startswith("eframes."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                restore.append((module, attr, value))
                setattr(module, attr, hit[1])
    try:
        yield
    finally:
        for module, attr, value in reversed(restore):
            setattr(module, attr, value)


class Tracer:
    """Spans, self times and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.extra: Counter = Counter()
        self.op_counts: dict[str, dict[str, int]] = {}
        self.count_mismatches: list[str] = []
        self._stack: list[list] = []  # [span index, layer, child time]
        self._op_id: int | None = None
        self._op_label = ""
        self._op_calls: Counter = Counter()
        self._op_errors: set[int] = set()

    # ------------------------------------------------------------ spans

    def _open(self, name: str, layer: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([self._op_id, name, time.perf_counter(), None, parent])
        self._stack.append([len(self.spans) - 1, layer, 0.0])

    def _close(self, exc: BaseException | None = None) -> None:
        end = time.perf_counter()
        index, layer, child = self._stack.pop()
        span = self.spans[index]
        span[3] = end
        duration = end - span[2]
        self.self_time[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if exc is not None and id(exc) not in self._op_errors:
            self._op_errors.add(id(exc))
            self.errors[layer] += 1

    def _count(self, key: str) -> None:
        self.calls[key] += 1
        self._op_calls[key] += 1

    def begin_op(self, op_id: int, label: str) -> None:
        self._op_id = op_id
        self._op_label = label
        self._op_calls = Counter()
        self._op_errors = set()
        self._open(f"op:{label}", "op")

    def end_op(self, output_bytes: int = 0) -> None:
        """Close the operation's span; output_bytes is what it printed."""
        self._close()
        self.extra["cli.output_bytes"] += output_bytes
        counts = {key: self._op_calls[key] for key in sorted(self._op_calls)}
        previous = self.op_counts.setdefault(self._op_label, counts)
        if previous != counts:
            self.count_mismatches.append(self._op_label)
        self._op_id = None

    # ---------------------------------------------------------- wrappers

    def _wrap_layer(self, layer: str, name: str, fn):
        tracer = self
        span_name = f"{layer}:{name}"
        hook = _HOOKS.get(name)
        params = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            tracer._count(f"{layer}_calls")
            tracer._open(span_name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(exc)
                raise
            tracer._close()
            if hook is not None:
                bound = params.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            return result

        return wrapper

    def _wrap_linalg(self, name: str, fn):
        tracer = self
        key = "norm2" if name == "norm" else name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op_id is None or (name == "norm" and not _is_ord2(args, kwargs)):
                return fn(*args, **kwargs)
            tracer._count(f"hilbert.{key}_calls")
            tracer._open(f"hilbert:{key}", "hilbert")
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(exc)
                raise
            tracer._close()
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function and numpy.linalg for the duration."""
        originals = {name: getattr(np.linalg, name) for name in LINALG}
        for name, fn in originals.items():
            setattr(np.linalg, name, self._wrap_linalg(name, fn))
        try:
            with patched(self._wrap_layer):
                yield self
        finally:
            for name, fn in originals.items():
                setattr(np.linalg, name, fn)

    # ----------------------------------------------------------- metrics

    def layer_metrics(self, cycles: int) -> dict[str, float]:
        """Per-layer metrics for one cycle of the workload."""
        out = {
            metric: self.self_time[layer] / cycles
            for metric, layer in SELF_TIME_METRICS.items()
        }
        for metric in COUNT_METRICS:
            out[metric] = self.calls[metric] / cycles
        attempts = self.extra["certify_attempts"]
        out["controlled.certify_pass_ratio"] = (
            self.extra["certify_passes"] / attempts if attempts else 0.0
        )
        out["controlled.errors"] = (
            sum(n for layer, n in self.errors.items() if layer.startswith("controlled."))
            / cycles
        )
        for key in ("config.bytes_read", "neumann.terms_used",
                    "neumann.terms_predicted", "cli.output_bytes"):
            out[key] = self.extra[key] / cycles
        return out

    def errors_per_layer(self, cycles: int) -> dict[str, float]:
        return {f"{layer}.errors": n / cycles for layer, n in sorted(self.errors.items())}


# ------------------------------------------------------------------ hooks


def _hook_parse(tracer: Tracer, args, result) -> None:
    tracer.extra["config.bytes_read"] += os.path.getsize(args["path"])


def _hook_verify(tracer: Tracer, args, result) -> None:
    tracer.extra["certify_attempts"] += 1
    tracer.extra["certify_passes"] += bool(result[0].verdict)


def _hook_neumann(tracer: Tracer, args, result) -> None:
    report = result[1]
    tracer.extra["neumann.terms_used"] += report.terms_used
    tracer.extra["neumann.terms_predicted"] += predicted_terms(report.ratio, args["eps"])


_HOOKS = {
    "parse_config": _hook_parse,
    "verify_dual": _hook_verify,
    "corrected_dual": _hook_neumann,
    "iterative_reconstruct": _hook_neumann,
}


# ------------------------------------------------------------ peak memory


class PeakMeter:
    """tracemalloc peaks of whole operations and of the mapping builds
    inside them. A build resets the peak, so the operation's peak up to
    that point is carried over by hand. tracemalloc runs only inside
    measure(), so other operations run at full speed meanwhile."""

    def __init__(self) -> None:
        self.build_peaks: list[int] = []
        self._carry = 0

    def _wrap_build(self, layer: str, name: str, fn):
        if layer != "mapping.build":
            return None
        meter = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            meter._carry = max(meter._carry, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                meter.build_peaks.append(tracemalloc.get_traced_memory()[1] - start)

        return wrapper

    def measure(self, run) -> tuple[int, object, Exception | None]:
        """(peak bytes allocated by run(), its result, its exception)."""
        self._carry = 0
        tracemalloc.start()
        try:
            result, error = run(), None
        except Exception as exc:  # the caller's oracle judges it
            result, error = None, exc
        finally:
            peak = max(self._carry, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        return peak, result, error

    @contextlib.contextmanager
    def installed(self):
        with patched(self._wrap_build):
            yield self
