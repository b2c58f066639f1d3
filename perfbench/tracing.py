"""Span tracing of ergokit's layers, installed from outside the program.

The traced run wraps the public functions listed in LAYERS. Each wrapper
records one span per call (name, start, end, parent span, operation id)
into an in-memory list; nothing inside src/ergokit is edited. A wrapped
function is replaced in every ergokit module that holds a reference to
it (e.g. match_entropy in gibbs, ensemble, cli and the package root), so
calls made through any import path are seen. A name listed here that the
program no longer has raises TraceSetupError: a rename must not silently
drop a layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions (Class.method for class methods) to wrap.
# Besides the functions the per-layer metrics name, the list holds the
# API entry points the workloads call, so that their own time is a span
# of its own and not charged to the operation root.
LAYERS = {
    "ensemble": ["build_level_table", "passive_energy_per_copy", "curve"],
    "gibbs": ["entropy", "gibbs_state", "match_entropy", "thermodynamic_bound"],
    "linalg": ["eig_hermitian", "expm_hermitian_generator"],
    "battery": ["QuantumState.full", "QuantumState.diagonal", "energy",
                "passive_state", "optimal_unitary", "ergotropy"],
    "protocol": ["evolve"],
    "cli": ["main", "load_problem", "load_schedule"],
}

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "ensemble.build_level_table.calls": ("count", "lower"),
    "ensemble.build_level_table.self_s": ("s", "lower"),
    "ensemble.build_level_table.rows": ("count", "lower"),
    "ensemble.build_level_table.cold_self_s": ("s", "lower"),
    "ensemble.passive_energy_per_copy.self_s": ("s", "lower"),
    "ensemble.passive_energy_per_copy.ns_per_row": ("ns", "lower"),
    "ensemble.curve.self_s": ("s", "lower"),
    "gibbs.match_entropy.calls": ("count", "lower"),
    "gibbs.match_entropy.self_s": ("s", "lower"),
    "gibbs.gibbs_state.calls": ("count", "lower"),
    "gibbs.gibbs_state.self_s": ("s", "lower"),
    "gibbs.gibbs_state.calls_per_match": ("calls/match", "lower"),
    "linalg.eig_hermitian.calls": ("count", "lower"),
    "linalg.eig_hermitian.self_s": ("s", "lower"),
    "linalg.eig_hermitian.ms_per_call": ("ms", "lower"),
    "linalg.eig_hermitian.distinct_frac": ("ratio", "higher"),
    "linalg.expm_hermitian_generator.calls": ("count", "lower"),
    "linalg.expm_hermitian_generator.self_s": ("s", "lower"),
    "protocol.evolve.calls": ("count", "lower"),
    "protocol.evolve.self_s": ("s", "lower"),
    "battery.QuantumState.full.self_s": ("s", "lower"),
    "battery.passive_state.self_s": ("s", "lower"),
    "battery.optimal_unitary.self_s": ("s", "lower"),
    "cli.load_problem.self_s": ("s", "lower"),
    "cli.load_schedule.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# metrics that must repeat exactly between passes and runs
COUNT_METRICS = [k for k in PER_LAYER
                 if k.endswith((".calls", ".rows", ".calls_per_match",
                                ".distinct_frac"))]


class TraceSetupError(RuntimeError):
    """A name listed in LAYERS does not resolve in the program."""


def resolve(layers=LAYERS):
    """Map 'module.name' to (owner, attribute, function) for every listed
    name, where owner is the module or class holding it. Raises
    TraceSetupError naming every entry that does not resolve."""
    found, missing = {}, []
    for module_name, names in layers.items():
        module = importlib.import_module(f"ergokit.{module_name}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            raw = None if holder is None else vars(holder).get(attr)
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            if not callable(func):
                missing.append(f"{module_name}.{name}")
                continue
            found[f"{module_name}.{name}"] = (holder, attr, func)
    if missing:
        raise TraceSetupError("traced names missing from ergokit: "
                              + ", ".join(missing))
    return found


# per-call details, recorded outside the timed interval of the span:
# rows merged, the input matrix (hashed later for distinct_frac), and the
# (n, d, rows) of each level table built
_ON_ARGS = {
    "ensemble.passive_energy_per_copy": lambda args: len(args[0]),
    "linalg.eig_hermitian": lambda args: np.array(args[0], dtype=complex),
}
_ON_RESULT = {
    "ensemble.build_level_table": lambda table: (table.n, table.dim, len(table)),
}


class Tracer:
    """In-memory span recorder. `op` is the id of the operation being run
    (-1 during set-up); spans inherit it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1

    def _wrap(self, name, func):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        on_args, on_result = _ON_ARGS.get(name), _ON_RESULT.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            extra = on_args(args) if on_args else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, extra]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result:
                span[5] = on_result(result)
            return result
        return traced

    def install(self, layers=LAYERS):
        """Replace every listed function, wherever ergokit refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ergokit" or n.startswith("ergokit.")]
        for name, (holder, attr, func) in resolve(layers).items():
            wrapper = self._wrap(name, func)
            if isinstance(vars(holder)[attr], classmethod):
                setattr(holder, attr, classmethod(wrapper))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, key, wrapper)

    def write(self, path, t_origin):
        """Spans as JSON lines: name, start and end (s after t_origin),
        parent span index (-1 for none), operation id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op, _ in self.spans:
                fh.write(json.dumps([name, t0 - t_origin, t1 - t_origin,
                                     parent, op]) + "\n")

    def summarize(self):
        """Per-layer numbers of the operations (op >= 0). Self time is a
        span's duration minus the time its child spans cover.
        build_level_table.cold_self_s also counts set-up: it is the self
        time of the first call per (n, d) in the process."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        rows = defaultdict(int)
        cold_s, seen = 0.0, set()
        digests = set()
        for i, (name, t0, t1, _, op, extra) in enumerate(spans):
            own = (t1 - t0) - covered[i]
            if name == "ensemble.build_level_table" and extra is not None:
                if extra[:2] not in seen:
                    seen.add(extra[:2])
                    cold_s += own
            if op < 0:
                continue
            calls[name] += 1
            self_s[name] += own
            if name == "ensemble.build_level_table" and extra is not None:
                rows[name] += extra[2]
            elif name == "ensemble.passive_energy_per_copy":
                rows[name] += extra
            elif name == "linalg.eig_hermitian":
                digests.add(hashlib.blake2b(extra.tobytes() + repr(
                    extra.shape).encode(), digest_size=16).digest())

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        out = {}
        for metric in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls[layer]
            elif stat == "self_s":
                out[metric] = self_s[layer]
        pe = "ensemble.passive_energy_per_copy"
        eig = "linalg.eig_hermitian"
        out["ensemble.build_level_table.rows"] = rows["ensemble.build_level_table"]
        out["ensemble.build_level_table.cold_self_s"] = cold_s
        out[pe + ".ns_per_row"] = ratio(self_s[pe], rows[pe], 1e9)
        out["gibbs.gibbs_state.calls_per_match"] = ratio(
            calls["gibbs.gibbs_state"], calls["gibbs.match_entropy"])
        out[eig + ".ms_per_call"] = ratio(self_s[eig], calls[eig], 1e3)
        out[eig + ".distinct_frac"] = ratio(len(digests), calls[eig])
        return out
