"""Span recorder for the traced run.

The recorder wraps the library's public functions from outside, at the
attribute where their callers look them up (``omega.greedy_thin`` is the
clustering that ``estimate_omega`` calls, ``clouds.greedy_thin`` the 1e-12
dedup that ``PointCloud`` calls). Nothing is wrapped until :meth:`install`,
and :meth:`uninstall` restores the originals, so untraced rounds run the
library untouched.

Each span records a name, start, end and parent span. A span's self time is
its duration minus the durations of its children. Spans stay in memory in
flat arrays and are written out once, by :meth:`dump`. Counters are kept at
the same boundaries and reset every round.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import defaultdict

import numpy as np


def _size(cloud):
    return len(getattr(cloud, "points", cloud))


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Counters: (args, kwargs, result) -> {counter: increment}.
def _steps(a, k, out):
    return {"ifs.steps": _arg(a, k, 3, "n")}


def _images(a, k, out):
    return {"ifs.hutchinson.images": _arg(a, k, 0, "system").n_maps * _size(_arg(a, k, 1, "cloud"))}


def _calls(a, k, out):
    return {"geometry.project_convex.calls": 1}


def _windows(a, k, out):
    return {"drivers.audit_windows": max(0, out.prefix_length - out.window_length + 1)}


def _symbols(a, k, out):
    return {"drivers.symbols": len(out)}


def _thinned(prefix):
    def count(a, k, out):
        return {f"{prefix}.points_in": _size(_arg(a, k, 0, "points")), f"{prefix}.kept": len(out)}
    return count


def _pairs(a, k, out):
    return {"omega.hausdorff.pairs": 2 * _size(a[0]) * _size(a[1])}


def _iterations(a, k, out):
    return {"kaczmarz.iterations": out.iterations}


def _file_bytes(counter):
    def count(a, k, out):
        return {counter: os.path.getsize(_arg(a, k, 0, "path"))}
    return count


def targets(lib):
    """``(owner, attribute, span name, counter)`` for every wrapped function."""
    streams = [(cls, "take_upto", "drivers.take_upto", _symbols)
               for cls in lib.drivers.SymbolStream.__subclasses__()]
    return [
        (lib.cli, "main", "cli.main", None),
        (lib.scenarios, "scenario_from_dict", "scenarios.scenario_from_dict", None),
        (lib.scenarios, "run_scenario", "scenarios.run_scenario", None),
        (lib.fileio, "write_orbit_csv", "fileio.write", _file_bytes("fileio.bytes_written")),
        (lib.fileio, "write_json", "fileio.write", _file_bytes("fileio.bytes_written")),
        (lib.fileio, "render_svg_scatter", "fileio.svg", _file_bytes("fileio.bytes_written")),
        (lib.fileio, "read_orbit_csv", "fileio.read", _file_bytes("fileio.bytes_read")),
        (lib.ifs, "run_orbit", "ifs.run_orbit", _steps),
        (lib.ifs, "symbols_from", "ifs.symbols_from", None),
        (lib.omega, "hutchinson", "ifs.hutchinson", _images),
        (lib.geometry, "project_convex", "geometry.project_convex", _calls),
        (lib.drivers, "check_disjunctive", "drivers.check_disjunctive", _windows),
        (lib.drivers.SymbolStream, "take", "drivers.take", None),
        *streams,
        (lib.clouds, "greedy_thin", "clouds.dedup", _thinned("clouds.dedup")),
        (lib.omega, "greedy_thin", "clouds.thin", _thinned("clouds.thin")),
        (lib.clouds.PointCloud, "distance_to", "clouds.distance_to", None),
        (lib.omega, "estimate_omega", "omega.estimate_omega", None),
        (lib.kaczmarz, "estimate_omega", "omega.estimate_omega", None),
        (lib.omega, "hausdorff", "omega.hausdorff", _pairs),
        (lib.omega, "check_invariance", "omega.check_invariance", None),
        (lib.omega, "check_monotone_distance", "omega.check_monotone_distance", None),
        (lib.omega.SegmentSet, "distance_to", "omega.segment_distance", None),
        (lib.kaczmarz, "solve", "kaczmarz.solve", _iterations),
    ]


# Per-layer self times in seconds: metric -> spans whose self time it sums.
SELF_TIMES = {
    "ifs.run_orbit.self_s": ("ifs.run_orbit",),
    "ifs.hutchinson.self_s": ("ifs.hutchinson",),
    "geometry.project_convex.self_s": ("geometry.project_convex",),
    "drivers.stream.self_s": ("ifs.symbols_from", "drivers.take", "drivers.take_upto"),
    "drivers.check_disjunctive.self_s": ("drivers.check_disjunctive",),
    "clouds.dedup.self_s": ("clouds.dedup",),
    "clouds.thin.self_s": ("clouds.thin",),
    "clouds.distance_to.self_s": ("clouds.distance_to",),
    "omega.estimate_omega.self_s": ("omega.estimate_omega",),
    "omega.hausdorff.self_s": ("omega.hausdorff",),
    "omega.check_invariance.self_s": ("omega.check_invariance",),
    "omega.check_monotone_distance.self_s": ("omega.check_monotone_distance",),
    "omega.segment_distance.self_s": ("omega.segment_distance",),
    "kaczmarz.solve.self_s": ("kaczmarz.solve",),
    "scenarios.scenario_from_dict.self_s": ("scenarios.scenario_from_dict",),
    "scenarios.run_scenario.self_s": ("scenarios.run_scenario",),
    "fileio.write.self_s": ("fileio.write",),
    "fileio.read.self_s": ("fileio.read",),
    "fileio.svg.self_s": ("fileio.svg",),
    "cli.main.self_s": ("cli.main",),
}

# Exact counts; they must repeat exactly for a fixed seed.
COUNTS = {
    "ifs.steps": "count",
    "ifs.hutchinson.images": "count",
    "geometry.project_convex.calls": "count",
    "drivers.symbols": "count",
    "drivers.audit_windows": "count",
    "clouds.dedup.points_in": "count",
    "clouds.thin.points_in": "count",
    "omega.hausdorff.pairs": "count",
    "kaczmarz.iterations": "count",
    "fileio.bytes_written": "B",
    "fileio.bytes_read": "B",
}

# Derived per round from the metrics above or from a raw counter:
# name -> (unit, numerator, denominator, scale).
# A ratio whose denominator is 0 (the layer did no work) reads 0.
RATIOS = {
    "ifs.ns_per_step": ("ns", "ifs.run_orbit.self_s", "ifs.steps", 1e9),
    "kaczmarz.us_per_iter": ("us", "kaczmarz.solve.self_s", "kaczmarz.iterations", 1e6),
    "clouds.dedup.kept_ratio": ("ratio", "clouds.dedup.kept", "clouds.dedup.points_in", 1.0),
    "clouds.thin.kept_ratio": ("ratio", "clouds.thin.kept", "clouds.thin.points_in", 1.0),
}

OVERHEAD = "trace.overhead_s"


def layer_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in SELF_TIMES}
    units.update(COUNTS)
    units.update({name: spec[0] for name, spec in RATIOS.items()})
    units[OVERHEAD] = "s"
    return units


class Recorder:
    def __init__(self, lib):
        self._targets = targets(lib)
        self._originals = []
        self._ids = {}  # span name -> id, in order of first use
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = []
        self._round_start = 0
        self.counts = defaultdict(int)

    def _open(self, name_id):
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span, counter):
        name_id = self._ids.setdefault(span, len(self._ids))
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if counter is not None:
                for key, n in counter(args, kwargs, out).items():
                    counts[key] += n
            return out

        return wrapper

    def install(self):
        for owner, attr, span, counter in self._targets:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def begin_round(self):
        self._round_start = len(self.name)
        self.counts.clear()

    def end_round(self):
        """Per-layer metrics of the spans and counters since :meth:`begin_round`."""
        lo = self._round_start
        name = np.array(self.name[lo:], dtype=np.int64)
        dur = np.array(self.end[lo:]) - np.array(self.start[lo:])
        parent = np.array(self.parent[lo:], dtype=np.int64) - lo
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        per_span = np.bincount(name, weights=self_time, minlength=len(self._ids))
        values = {metric: float(sum(per_span[self._ids[s]] for s in spans))
                  for metric, spans in SELF_TIMES.items()}
        values.update({key: int(self.counts.get(key, 0)) for key in COUNTS})
        for metric, (_, num, den, scale) in RATIOS.items():
            top = values[num] if num in values else self.counts.get(num, 0)
            values[metric] = scale * top / values[den] if values[den] else 0.0
        return values

    def dump(self, path):
        t0 = self.start[0] if len(self.start) else 0.0
        payload = {
            "names": list(self._ids),
            "name": list(self.name),
            "start": [t - t0 for t in self.start],
            "end": [t - t0 for t in self.end],
            "parent": list(self.parent),
        }
        path.write_text(json.dumps(payload))
