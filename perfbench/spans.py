"""Span recorder for the traced run.

The recorder rebinds module attributes where the calling code looks them
up (``game.simulate_spectrum``, ``spectra.sym_eigs``,
``reconstruct.all_labeled_trees`` ...), so the library itself stays
untouched.  Spans are kept in memory as small lists and written out once,
at the end of the run.  A span's self time is its duration minus the
durations of its direct child spans.  Every layer span sits inside one
operation span, so the self times of the layer spans plus the self time of
the operation spans (the benchmark's own glue, reported as
``trace.unattributed_s``) add up to the operations' wall time.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

OP = "op"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, op index, start, end]
        self.counts = Counter()
        self.bits_max = 0
        self._stack = []
        self._op = -1

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        if name == OP:
            self._op += 1
        rec = [name, self._stack[-1] if self._stack else -1, self._op,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def timed(self, name, fn, after=None):
        """fn wrapped in a span; after(result) records counters."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper

    def counted(self, name, fn):
        """fn wrapped so that each call bumps a counter, with no span."""
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_yields(self, name, gen_fn):
        """Generator function wrapped so that each yielded item is counted."""
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                self.counts[name] += 1
                yield item
        return wrapper

    def record_sample(self, sample):
        self.counts["spectra.working_bits.sum"] += sample.precision_bits
        self.bits_max = max(self.bits_max, sample.precision_bits)

    def self_times(self):
        """name -> (total seconds, self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, _, _, start, end) in enumerate(self.spans):
            acc = out[name]
            acc[0] += end - start
            acc[1] += end - start - child[i]
            acc[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, op, start, end in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "op": op,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "working_bits_max": self.bits_max}) + "\n")


@contextmanager
def installed(tracer):
    """Rebind the library's call sites to traced wrappers; restore on exit.

    A call site the library no longer has is skipped, so its layer reads 0
    instead of the traced run failing."""
    from graphspectra import game, polynomials, reconstruct, spectra

    t = tracer

    def sampled(name, fn):
        return t.timed(name, fn, after=t.record_sample)

    plan = [  # (where the caller looks it up, attribute, span or counter, wrapper)
        (spectra, "sym_eigs", "spectra.sym_eigs", t.timed),
        (spectra, "level_laplacian", "graphs.level_laplacian", t.timed),
        (spectra, "interpolate_spectral_poly",
         "polynomials.interpolate_spectral_poly", t.timed),
        (spectra, "simulate_spectrum", "spectra.simulate_spectrum", sampled),
        (spectra, "cluster_and_assign", "spectra.cluster_and_assign", t.timed),
        (spectra, "recover_spectral_poly", "spectra.recover_spectral_poly", t.timed),
        (game, "simulate_spectrum", "spectra.simulate_spectrum", sampled),
        (game, "cluster_and_assign", "spectra.cluster_and_assign", t.timed),
        (game, "recover_spectral_poly", "spectra.recover_spectral_poly", t.timed),
        (game, "solve_game", "game.solver", t.timed),
        (game.GameSession, "handle", "game.handle", t.timed),
        (polynomials, "spectral_polynomial", "polynomials.spectral_polynomial", t.timed),
        (polynomials, "charpoly_division_free", "polynomials.charpoly.calls", t.counted),
        (reconstruct, "decode_forest_family", "reconstruct.decode_forest_family", t.timed),
        (reconstruct, "realize_graph", "reconstruct.realize_graph", t.timed),
        (reconstruct, "enumerate_forests", "forests.enumerate_forests", t.timed),
        (reconstruct, "all_labeled_trees", "reconstruct.trees_examined",
         t.counted_yields),
    ]
    saved = []
    for obj, attr, name, wrap in plan:
        original = getattr(obj, attr, None)
        if original is None:
            continue
        saved.append((obj, attr, original))
        setattr(obj, attr, wrap(name, original))
    try:
        yield tracer
    finally:
        for obj, attr, original in saved:
            setattr(obj, attr, original)
