"""Layer spans recorded from outside the program.

install() rebinds each traced public function, in every triple_lab module
that holds a reference to it, to a wrapper that records a span while a task
is open. Methods are rebound on their class. uninstall() puts the originals
back. Outside an open task the wrappers call straight through, so the
benchmark's own checks leave no spans.

A span is (name, task id, parent span id, start, end). A span's self time is
its duration minus the time its child spans cover; calls run serially, so
the children of a span never overlap and their durations simply add up.
Counts are read from arguments and public result fields only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(pos, name):
    return lambda args, kwargs, out: {"rows": len(_arg(args, kwargs, pos, name))}


# metric prefix -> (owner, attribute, counts read from (args, kwargs, result))
TARGETS = {
    "simplex.solve_lp_maximize": ("triple_lab.simplex", "solve_lp_maximize",
                                  lambda a, k, out: {"pivots": out.iterations,
                                                     "rows": len(_arg(a, k, 2, "b"))}),
    "weights.associated_upper_lp": ("triple_lab.weights", "associated_upper_lp",
                                    lambda a, k, out: {"rounds": out.rounds}),
    "weights.build_associated_estimate": ("triple_lab.weights", "build_associated_estimate", None),
    "weights.evaluate": ("triple_lab.weights:AssociatedWeightEstimate", "evaluate",
                         lambda a, k, out: {"points": int(np.size(_arg(a, k, 1, "r")))}),
    "weights.boundary_l": ("triple_lab.weights", "boundary_l", None),
    "weights.doubling_check": ("triple_lab.weights", "doubling_check", None),
    "weights.condition_I_check": ("triple_lab.weights", "condition_I_check", None),
    "compop.consistency_matrix": ("triple_lab.compop", "consistency_matrix", None),
    "compop.theorem_verdict": ("triple_lab.compop", "theorem_verdict", None),
    "compop.criterion_sup_ratio": ("triple_lab.compop", "criterion_sup_ratio", None),
    "compop.map_apply_batch": ("triple_lab.compop", "map_apply_batch", _rows(1, "coords")),
    "mobius.mobius_map": ("triple_lab.mobius", "mobius_map", None),
    "mobius.mobius_apply": ("triple_lab.mobius", "mobius_apply", None),
    "mobius.mobius_apply_batch": ("triple_lab.mobius", "mobius_apply_batch", _rows(1, "coords")),
    "mobius.norm_identity_residual": ("triple_lab.mobius", "norm_identity_residual", None),
    "mobius.sphere_sup": ("triple_lab.mobius", "sphere_sup", None),
    "triples.triple_product": ("triple_lab.triples", "triple_product", None),
    "triples.triple_norm": ("triple_lab.triples", "triple_norm", None),
    "triples.triple_norm_batch": ("triple_lab.triples", "triple_norm_batch", _rows(1, "coords")),
    "triples.box_rep": ("triple_lab.triples", "box_rep", None),
    "triples.box_rep_batch": ("triple_lab.triples", "box_rep_batch", _rows(1, "xs")),
    "triples.quadratic_rep": ("triple_lab.triples", "quadratic_rep", None),
    "triples.bergman_rep": ("triple_lab.triples", "bergman_rep", None),
    "triples.bergman_sqrt": ("triple_lab.triples", "bergman_sqrt", None),
    "triples.sample_coords": ("triple_lab.triples", "sample_coords",
                              lambda a, k, out: {"rows": int(_arg(a, k, 1, "n"))}),
    "triples.op_norm_triple": ("triple_lab.triples", "op_norm_triple", None),
    "linalg.solve_linear": ("triple_lab.linalg", "solve_linear", None),
    "linalg.principal_sqrt": ("triple_lab.linalg", "principal_sqrt", None),
}


class Recorder:
    """Spans of one process, kept in memory; per-name totals kept as they close."""

    def __init__(self):
        self.spans = []
        self.calls = dict.fromkeys(TARGETS, 0)
        self.self_s = dict.fromkeys(TARGETS, 0.0)
        self.counts = {name: {} for name in TARGETS}
        self.top_s = 0.0  # time inside spans that have no parent
        self.task = None
        self._stack = []  # [span id, child seconds] per open span

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            frame = [len(self.spans), 0.0]
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                else:
                    self.top_s += dur
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                self.spans[frame[0]] = (name, self.task, parent, start, end)
            if count is not None:
                tally = self.counts[name]
                for key, n in count(args, kwargs, out).items():
                    tally[key] = tally.get(key, 0) + int(n)
            return out

        return traced


def _owner(path):
    module, _, cls = path.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def install(rec: Recorder) -> list:
    """Rebind every target; returns what uninstall() needs to undo it."""
    undo = []
    try:
        for name, (path, attr, count) in TARGETS.items():
            owner = _owner(path)
            orig = getattr(owner, attr)
            wrapper = rec.wrap(name, orig, count)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for key, m in list(sys.modules.items())
                           if m is not None and key.split(".")[0] == "triple_lab"]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
                        undo.append((holder, key, orig))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list) -> None:
    for holder, key, orig in reversed(undo):
        setattr(holder, key, orig)
