"""Random column-stochastic mixing weights.

Each agent i draws the column of A(k) that scales everything it sends out.
At k = 0 the out-weights are uniform on [-R, R] (a bounded stand-in for an
unbounded draw, which keeps the first message uninformative to a listener);
from k = 1 on they are uniform on [c0, (1 - c0)/d_out]. The diagonal entry
closes the column to an exact sum of 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .streams import check_positive, check_width


@dataclass(frozen=True)
class MixingParams:
    """c0: positive floor for the k >= 1 weights, must satisfy c0 < 1/m.
    k0_range: half-width R of the symmetric iteration-0 draw; 2R must be finite."""

    c0: float
    k0_range: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "c0", check_positive("c0", self.c0))
        object.__setattr__(self, "k0_range", check_width("k0_range", self.k0_range))

    def validate_for(self, m: int):
        if not (self.c0 < 1.0 / m):
            raise ValueError(f"c0={self.c0} must be < 1/m = {1.0 / m}")


@dataclass(frozen=True)
class WeightColumn:
    """Column i of A(k): weight per receiver, diagonal included."""

    owner: int
    k: int
    entries: dict


def _raw_uniforms(stream, n):
    # stream is either a Generator or a pre-drawn vector of U[0,1) values
    if isinstance(stream, np.ndarray):
        if stream.shape[0] < n:
            raise ValueError(f"need {n} raw uniforms, got {stream.shape[0]}")
        return stream[:n]
    return stream.random(n)


def generate_weight_column(i, out_neighbors, k, params: MixingParams, stream) -> WeightColumn:
    """Draw agent i's weight column for iteration k.

    out_neighbors are the receivers of i at iteration k (sorted internally so
    the draw-to-receiver pairing is canonical). stream supplies the raw
    uniforms: either a numpy Generator or an ndarray row of U[0,1) values.
    """
    receivers = sorted(out_neighbors)
    if i in receivers:
        raise ValueError(f"agent {i} cannot be its own out-neighbor")
    d_out = len(receivers)
    if k < 0:
        raise ValueError("iteration index must be >= 0")
    if not (params.c0 > 0.0) or (d_out > 0 and k >= 1 and params.c0 * (d_out + 1) >= 1.0):
        raise ValueError(
            f"c0={params.c0} leaves no room for {d_out} out-weights plus the diagonal"
        )

    entries = {}
    if d_out:
        u = _raw_uniforms(stream, d_out)
        if k == 0:
            r = params.k0_range
            weights = u * (2.0 * r) - r
        else:
            lo = params.c0
            hi = (1.0 - params.c0) / d_out
            weights = lo + u * (hi - lo)
        total = 0.0
        for l, w in zip(receivers, weights.tolist()):
            entries[l] = w
            total += w
        entries[i] = 1.0 - total
    else:
        entries[i] = 1.0
    return WeightColumn(owner=i, k=k, entries=entries)


def assemble_weight_matrix(columns, m: int) -> np.ndarray:
    """Stack per-agent columns into the m-by-m matrix A(k).

    Expects exactly one column per agent, all for the same iteration.
    """
    by_owner = {}
    ks = set()
    for col in columns:
        if col.owner in by_owner:
            raise ValueError(f"duplicate column for agent {col.owner}")
        by_owner[col.owner] = col
        ks.add(col.k)
    if set(by_owner) != set(range(1, m + 1)):
        missing = sorted(set(range(1, m + 1)) - set(by_owner))
        raise ValueError(f"missing columns for agents {missing}")
    if len(ks) != 1:
        raise ValueError(f"columns span several iterations: {sorted(ks)}")
    a = np.zeros((m, m))
    for i, col in by_owner.items():
        for l, w in col.entries.items():
            a[l - 1, i - 1] = w
    return a
