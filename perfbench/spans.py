"""Spans around the calls into each delayframe layer, taken from outside.

The traced run replaces each public function in TARGETS by a wrapper at
the name its caller looks it up by (``delayframe.models.thin_svd`` is the
name ``models.fit_havok`` calls), so the package itself is unchanged. A
name that no longer exists stops the run: a renamed function must not
report zero time for its layer. Spans stay in memory and are written out
when the worker ends; ``layer_metrics`` turns them into the per-layer
metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time


def _matrix_bytes(args, result):
    return {"bytes_out": result.matrix.nbytes}


def _split_bytes(args, result):
    return {"bytes_out": sum(half.matrix.nbytes for half in result)}


def _svd_counts(args, result):
    m, n = args["a"].shape
    # Computed bytes of the input, not a measurement of memory traffic.
    return {"bytes_in": m * n * 8, "kept": int(args["rank"]), "available": min(m, n)}


def _text_bytes(text):
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _pipeline_bytes(args, result):
    return {"bytes_built": sum(_text_bytes(t) for t in result.values())}


def _series_csv_bytes(args, result):
    return {"bytes_built": _text_bytes(result)}


# (lookup name, layer, counter or None). preprocess is not traced: only
# --dt-resample and the interpolation scenario call it, and no workload does.
TARGETS = (
    ("delayframe.cli.main", "cli", None),
    ("delayframe.cli.run_pipeline", "cli", _pipeline_bytes),
    ("delayframe.cli.format_series_csv", "cli", _series_csv_bytes),
    ("delayframe.cli.load_series_csv", "cli", None),
    ("delayframe.systems.simulate", "systems",
     lambda args, result: {"steps": len(result)}),
    ("delayframe.systems.measure", "systems", None),
    ("delayframe.models.fit", "models", None),
    ("delayframe.models.log_mapped_spectrum", "models", None),
    ("delayframe.models.reconstruct", "models",
     lambda args, result: {"steps": int(args["steps"])}),
    ("delayframe.models.forcing_signal", "models", None),
    ("delayframe.models.build_hankel", "embedding", _matrix_bytes),
    ("delayframe.models.center_hankel", "embedding", _matrix_bytes),
    ("delayframe.models.split_shift", "embedding", _split_bytes),
    ("delayframe.models.thin_svd", "linalg", _svd_counts),
    ("delayframe.models.pseudo_inverse", "linalg", None),
    ("delayframe.models.eigen_nonsymmetric", "linalg", None),
    ("delayframe.diagnostics.structure_report", "diagnostics", None),
    ("delayframe.cli.curvatures_from_model", "geometry", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer, _ in TARGETS))


class Tracer:
    """Records one span per call into a target, nested by caller."""

    def __init__(self):
        self.spans = []
        self.command = 0
        self._stack = []

    def install(self):
        """Wrap every target in place; raise LookupError if any is missing."""
        found, missing = [], []
        for name, _layer, counter in TARGETS:
            module_name, _, attr = name.rpartition(".")
            function = getattr(importlib.import_module(module_name), attr, None)
            if callable(function):
                found.append((name, module_name, attr, function, counter))
            else:
                missing.append(name)
        if missing:
            raise LookupError(
                "trace targets not found (renamed or no longer looked up "
                f"there?): {', '.join(missing)}"
            )
        for name, module_name, attr, function, counter in found:
            setattr(importlib.import_module(module_name), attr,
                    self._wrap(name, function, counter))

    def _wrap(self, name, function, counter):
        signature = inspect.signature(function)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "command": self.command,
                "counts": {},
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments, result)
            return result

        return wrapper


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def layer_metrics(spans, wall_s, bytes_written):
    """Per-layer metrics of one traced iteration.

    Layer self times plus ``untraced_remainder_s`` add up to ``wall_s``,
    the traced time of the iteration's ``cli.main`` calls.
    """
    layer_of = {name: layer for name, layer, _ in TARGETS}
    selfs = self_times(spans)
    total, self_by_name, counts = {}, {}, {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, selfs):
        layer_self[layer_of[span["name"]]] += own
        name = span["name"].rpartition(".")[2]
        total[name] = total.get(name, 0.0) + span["end"] - span["start"]
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        for key, value in span["counts"].items():
            counts[(name, key)] = counts.get((name, key), 0) + value
    built = counts.get(("run_pipeline", "bytes_built"), 0) + counts.get(
        ("format_series_csv", "bytes_built"), 0)
    available = counts.get(("thin_svd", "available"), 0)
    metrics = {
        "traced_wall_s": wall_s,
        "untraced_remainder_s": wall_s - sum(layer_self.values()),
    }
    metrics.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
    metrics.update({
        "linalg.thin_svd_s": total.get("thin_svd", 0.0),
        "linalg.thin_svd_calls": sum(1 for s in spans if s["name"].endswith(".thin_svd")),
        "linalg.thin_svd_bytes_in": counts.get(("thin_svd", "bytes_in"), 0),
        "linalg.triplets_kept_ratio": (
            counts.get(("thin_svd", "kept"), 0) / available if available else 0.0),
        "linalg.pseudo_inverse_s": total.get("pseudo_inverse", 0.0),
        "linalg.eigen_s": total.get("eigen_nonsymmetric", 0.0),
        "embedding.build_hankel_s": total.get("build_hankel", 0.0),
        "embedding.center_hankel_s": total.get("center_hankel", 0.0),
        "embedding.split_shift_s": total.get("split_shift", 0.0),
        "embedding.bytes_out": sum(
            counts.get((n, "bytes_out"), 0)
            for n in ("build_hankel", "center_hankel", "split_shift")),
        "models.fit_self_s": self_by_name.get("fit", 0.0),
        "models.reconstruct_s": total.get("reconstruct", 0.0),
        "models.reconstruct_steps": counts.get(("reconstruct", "steps"), 0),
        "models.forcing_signal_s": total.get("forcing_signal", 0.0),
        "systems.simulate_s": total.get("simulate", 0.0),
        "systems.steps": counts.get(("simulate", "steps"), 0),
        "cli.run_pipeline_self_s": self_by_name.get("run_pipeline", 0.0),
        "cli.format_series_csv_s": total.get("format_series_csv", 0.0),
        "cli.load_series_csv_s": total.get("load_series_csv", 0.0),
        "cli.write_s": self_by_name.get("main", 0.0),
        "cli.bytes_built": built,
        "cli.bytes_written": bytes_written,
        "cli.artifact_yield": bytes_written / built if built else 0.0,
        "diagnostics.structure_report_s": total.get("structure_report", 0.0),
        "geometry.curvatures_from_model_s": total.get("curvatures_from_model", 0.0),
    })
    return metrics
