"""Span tracer that times hepeval's layers from outside the package.

`Tracer.install` replaces each public function in `LAYERS` with a wrapper,
in its own module and in every other hepeval module that imported the same
function object (for example `hepeval.vessel.pool_array`). `uninstall`
restores the originals, so an untraced op runs the package unmodified.

Spans nest through one stack. That is sound because the benchmark is one
client in a closed loop: `hepeval eval --jobs 1` runs each case in a single
worker thread while the calling thread waits inside `cli.main`, so no two
wrapped calls ever run at the same time and no layer waits on another.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = (
    "nifti.read_nifti",
    "nifti.write_nifti",
    "phantom.generate_case",
    "phantom.degrade",
    "volume.extract_mask",
    "morphology.pool_array",
    "morphology.soft_skeleton_array",
    "morphology.soft_skeleton_grad",
    "morphology.distance_transform",
    "morphology.connected_components",
    "losses.cl_dice_loss",
    "losses.bootstrapped_ce_loss",
    "losses.combined_loss",
    "vessel.skeletonize",
    "vessel.build_graph",
    "vessel.classify_central_peripheral",
    "vessel.identify_gallbladder",
    "metrics.evaluate_case",
    "metrics.dsc",
    "metrics.cl_dice_metric",
    "metrics.lesion_match",
    "metrics.aggregate",
    "cli.main",
)

# Layers that only build inputs: reported per set-up round, not per op.
SETUP_LAYERS = frozenset({"phantom.generate_case", "phantom.degrade", "nifti.write_nifti"})

# Layers whose tracemalloc peak is reported (measured on the warm-up op).
PEAK_LAYERS = ("losses.cl_dice_loss", "metrics.evaluate_case")

COUNTERS = (
    "nifti.read_nifti.bytes",
    "morphology.pool_array.voxels",
    "morphology.tape_bytes",
    "vessel.skeleton_voxels",
    "vessel.graph_nodes",
    "vessel.graph_edges_kept",
    "vessel.graph_edges_removed",
    "metrics.lesion_match.components",
)


def array_bytes(obj) -> int:
    """Total `nbytes` of the NumPy arrays reachable from a returned object."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(o) for o in obj)
    if hasattr(obj, "__dict__"):
        return sum(array_bytes(v) for v in vars(obj).values())
    return 0


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _read_bytes(args, kwargs, result, parent):
    return {"nifti.read_nifti.bytes": os.path.getsize(_first_arg(args, kwargs, "path"))}


def _pool_voxels(args, kwargs, result, parent):
    return {"morphology.pool_array.voxels": np.size(_first_arg(args, kwargs, "values"))}


def _tape_bytes(args, kwargs, result, parent):
    return {"morphology.tape_bytes": array_bytes(result[1])}


def _graph_counts(args, kwargs, result, parent):
    skeleton = _first_arg(args, kwargs, "skeleton")
    return {
        "vessel.skeleton_voxels": np.count_nonzero(skeleton.values),
        "vessel.graph_nodes": len(result.nodes),
        "vessel.graph_edges_kept": len(result.edges),
        "vessel.graph_edges_removed": len(result.removed_edges),
    }


def _lesion_components(args, kwargs, result, parent):
    if parent != "metrics.lesion_match":
        return {}
    return {"metrics.lesion_match.components": result.count}


# Computed counts, read from a layer's arguments and result after its span
# ends. They repeat exactly for identical inputs.
HOOKS = {
    "nifti.read_nifti": _read_bytes,
    "morphology.pool_array": _pool_voxels,
    "morphology.soft_skeleton_array": _tape_bytes,
    "vessel.build_graph": _graph_counts,
    "morphology.connected_components": _lesion_components,
}


class Tracer:
    """In-memory spans `[name, start, end, parent index, op id]` and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict = defaultdict(float)  # (op id, counter) -> sum
        self.peaks_mb: dict[str, float] = {}
        self.op = None
        self._stack: list[int] = []
        self._wrappers: dict[str, object] = {}
        self._bound: list[tuple] = []  # (module, attribute, original)

    def install(self) -> None:
        if self._bound:
            return
        targets = {}  # id of an original function -> (original, wrapper)
        for name in LAYERS:
            module_name, fn_name = name.split(".")
            fn = getattr(sys.modules.get(f"hepeval.{module_name}"), fn_name, None)
            if fn is None:
                continue  # the layer was removed or renamed; its metrics read 0
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(name, fn)
            targets[id(fn)] = (fn, self._wrappers[name])
        for module_name, module in list(sys.modules.items()):
            if module_name != "hepeval" and not module_name.startswith("hepeval."):
                continue
            for attr, value in list(vars(module).items()):
                target = targets.get(id(value))
                if target is not None and target[0] is value:
                    setattr(module, attr, target[1])
                    self._bound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._bound):
            setattr(module, attr, value)
        self._bound.clear()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        peak = name in PEAK_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            measuring = peak and tracemalloc.is_tracing()
            if measuring:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if measuring:
                peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                self.peaks_mb[name] = max(self.peaks_mb.get(name, 0.0), peak_mb)
            if hook is not None:
                parent_name = self.spans[parent][0] if parent is not None else None
                try:
                    counts = hook(args, kwargs, result, parent_name)
                except (AttributeError, TypeError, IndexError, KeyError):
                    counts = {}  # the layer's API moved; its counts read 0
                for key, value in counts.items():
                    self.counters[(self.op, key)] += float(value)
            return result

        return wrapper

    def layer_metrics(self, op_ids, setup_ids) -> dict[str, float]:
        """Per-op calls, self time and counts over `op_ids`; set-up layers
        per round over `setup_ids`."""
        covered = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            units = setup_ids if name in SETUP_LAYERS else op_ids
            if op in units:
                calls[name] += 1
                self_s[name] += (end - start) - covered[index]
        out = {}
        for name in LAYERS:
            n = len(setup_ids) if name in SETUP_LAYERS else len(op_ids)
            out[f"{name}.calls"] = calls[name] / n
            out[f"{name}.self_s"] = self_s[name] / n
        op_set = set(op_ids)
        totals = defaultdict(float)
        for (op, key), value in self.counters.items():
            if op in op_set:
                totals[key] += value
        for key in COUNTERS:
            out[key] = totals[key] / len(op_ids)
        edges = totals["vessel.graph_edges_kept"] + totals["vessel.graph_edges_removed"]
        out["vessel.graph_kept_ratio"] = totals["vessel.graph_edges_kept"] / edges if edges else 0.0
        for name in PEAK_LAYERS:
            out[f"{name}.peak_mb"] = self.peaks_mb.get(name, 0.0)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op})
                    + "\n"
                )
