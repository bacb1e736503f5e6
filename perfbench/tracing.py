"""Span tracing installed from outside the package.

The tracer replaces public functions of the cipheropt modules with thin
wrappers that record one span per call: (name, start, end, parent, run id).
Nothing under src/ changes; `uninstall` puts every original back. Spans
stay in memory until `save` writes them out at the end of a run.

A span's self time is its duration minus the time its direct child spans
cover. The wrappers' own cost lands in the caller's self time, which is why
the traced run is separate from the run that measures end-to-end numbers.
"""
from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

from cipheropt import adversary, channel, cli, engine, graphs, objectives, theory

# Span names in report order. Each yields <name>.calls, .self_s, .us_per_call.
SPANS = (
    "graphs.graph_at", "graphs.neighbors", "graphs.certify",
    "mixing.columns", "mixing.column", "mixing.assemble",
    "objectives.gradient", "objectives.optimal_solution",
    "channel.seal", "channel.open", "channel.frame",
    "engine.run", "engine.iterate", "engine.residual",
    "adversary.capture_view", "adversary.infer", "adversary.sample", "adversary.eavesdropper",
    "theory.build_constants", "theory.certificate", "theory.verify_contraction",
    "theory.verify_lemma",
    "cli.command",
)

_INDEX = {name: i for i, name in enumerate(SPANS)}

# Counts recorded at the same boundaries: (name, unit).
COUNTS = (
    ("channel.bytes_sealed", "computed_bytes"),
    ("channel.tamper_rejects", "count"),
    ("engine.rounds", "count"),
    ("engine.messages", "count"),
    ("engine.degenerate", "count"),
    ("adversary.eavesdropper.messages", "count"),
    ("adversary.eavesdropper.windows", "count"),
    ("theory.dps", "digits"),
)


def _seal_bytes(counts, args, result):
    # computed from the payload length, not measured on the wire
    counts["channel.bytes_sealed"] += channel.HEADER_SIZE + 8 * len(args[1].data)


def _iterate_messages(counts, args, result):
    columns = args[1]
    counts["engine.messages"] += 3 * sum(len(col.entries) - 1 for col in columns.values())


def _run_rounds(counts, args, result):
    counts["engine.rounds"] += result.iterations


def _eavesdropper_counts(counts, args, result):
    counts["adversary.eavesdropper.messages"] += result.messages
    counts["adversary.eavesdropper.windows"] += result.windows_checked


def _dps(counts, args, result):
    counts["theory.dps"] = max(counts["theory.dps"], result.dps)


# (owner, attribute, span, count on result, (exception type, count on raise))
def _targets():
    return [
        (engine, "run", "engine.run", _run_rounds, None),
        (engine, "run_baseline", "engine.run", _run_rounds, None),
        (engine, "iterate", "engine.iterate", _iterate_messages,
         (engine.DegenerateStateError, "engine.degenerate")),
        (engine, "relative_residual", "engine.residual", None, None),
        (engine, "draw_weight_columns", "mixing.columns", None, None),
        (engine, "uniform_out_columns", "mixing.columns", None, None),
        (engine, "generate_weight_column", "mixing.column", None, None),
        (engine, "assemble_weight_matrix", "mixing.assemble", None, None),
        (engine, "graph_at", "graphs.graph_at", None, None),
        (engine, "optimal_solution", "objectives.optimal_solution", None, None),
        (engine, "encrypt", "channel.seal", _seal_bytes, None),
        (engine, "decrypt", "channel.open", None,
         (channel.TamperError, "channel.tamper_rejects")),
        (engine, "encode_payload", "channel.frame", None, None),
        (channel.CipherEnvelope, "to_bytes", "channel.frame", None, None),
        (graphs.DirectedGraph, "out_neighbors", "graphs.neighbors", None, None),
        (graphs.DirectedGraph, "in_neighbors", "graphs.neighbors", None, None),
        (graphs.DirectedGraph, "out_degree", "graphs.neighbors", None, None),
        (objectives.GlobalProblem, "gradient", "objectives.gradient", None, None),
        (graphs, "certify_uniform_connectivity", "graphs.certify", None, None),
        (adversary, "capture_view", "adversary.capture_view", None, None),
        (adversary, "infer_states_scenario_b", "adversary.infer", None, None),
        (adversary, "infer_scenario_c", "adversary.infer", None, None),
        (adversary, "attack_fixed_weight_baseline", "adversary.infer", None, None),
        (adversary, "sample_gradient_solutions", "adversary.sample", None, None),
        (adversary, "eavesdropper_report", "adversary.eavesdropper", _eavesdropper_counts, None),
        (theory, "build_constants", "theory.build_constants", _dps, None),
        (theory, "theorem1_certificate", "theory.certificate", None, None),
        (theory, "verify_contraction", "theory.verify_contraction", None, None),
        (theory, "verify_lemma_inequalities", "theory.verify_lemma", None, None),
    ] + [(cli.COMMANDS, name, "cli.command", None, None) for name in cli.COMMANDS]


class Tracer:
    """Records spans and counts while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index, run id)
        self.counts = Counter()
        self.run_id = 0
        self._stack = []
        self._originals = []
        self._saved = []     # per-collect arrays (name, start, end, parent, run)
        self._offset = 0

    def _wrap(self, span, fn, on_result, on_error):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None and isinstance(exc, on_error[0]):
                    counts[on_error[1]] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span, start, end, parent, self.run_id)
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return traced

    def install(self):
        for owner, attr, span, on_result, on_error in _targets():
            if isinstance(owner, dict):
                original = owner[attr]
                owner[attr] = self._wrap(span, original, on_result, on_error)
            else:
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(span, original, on_result, on_error))
            self._originals.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._originals.clear()

    def collect(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since the last collect.

        Called between passes, with no span open. The spans move into compact
        arrays that `save` writes out; the counts start again from zero.
        """
        rows = self.spans
        name = np.array([_INDEX[r[0]] for r in rows], dtype=np.int16)
        start = np.array([r[1] for r in rows])
        end = np.array([r[2] for r in rows])
        parent = np.array([r[3] for r in rows], dtype=np.int64)
        run = np.array([r[4] for r in rows], dtype=np.int32)
        del rows[:]
        self._saved.append((name, start, end, np.where(parent >= 0, parent + self._offset, -1),
                            run))
        self._offset += len(name)

        dur = end - start
        inside = parent >= 0
        child_time = np.bincount(parent[inside], weights=dur[inside], minlength=len(dur))
        calls = np.bincount(name, minlength=len(SPANS))
        self_s = np.bincount(name, weights=dur - child_time, minlength=len(SPANS))
        out = {}
        for i, span in enumerate(SPANS):
            n = int(calls[i])
            out[f"{span}.calls"] = n
            out[f"{span}.self_s"] = float(self_s[i])
            out[f"{span}.us_per_call"] = float(self_s[i]) / n * 1e6 if n else 0.0
        for count, _ in COUNTS:
            out[count] = int(self.counts[count])
        self.counts.clear()
        return out

    def save(self, path):
        """Write every collected span: name index into `names`, start, end, parent, run."""
        columns = [np.concatenate(c) for c in zip(*self._saved)]
        np.savez(path, names=np.array(SPANS),
                 **dict(zip(("name", "start", "end", "parent", "run"), columns)))


def per_layer_units() -> dict:
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.us_per_call"] = "us"
    units.update(dict(COUNTS))
    units["trace.overhead_ratio"] = "ratio"
    return units

