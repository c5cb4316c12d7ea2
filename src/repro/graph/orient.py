"""Edge-orientation helpers for originally-undirected datasets.

Table 1 of the paper marks Friendster, Orkut and CA-road with ``*``:
those datasets are undirected, and the authors "randomly assign a
direction for each edge with 50% probability for each direction".
:func:`orient_undirected` reproduces that preprocessing step;
:func:`symmetrize` does the opposite (used by WCC tests to compare the
directed WCC kernel against an explicit undirected graph).
"""

from __future__ import annotations

import numpy as np

from .build import dedup_edges, from_edge_array
from .csr import CSRGraph

__all__ = ["orient_undirected", "symmetrize"]


def orient_undirected(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int | None = None,
    *,
    mode: str = "independent",
    p_both: float | None = None,
    rng: np.random.Generator | int | None = None,
) -> CSRGraph:
    """Randomly orient undirected edges, per the paper's preprocessing.

    Table 1: "we randomly assign a direction for each edge with 50%
    probability for each direction".  Two readings are supported:

    * ``mode="independent"`` (default): each direction of each
      undirected edge is included independently with probability 1/2 —
      so 25 % of edges become reciprocal pairs, 25 % vanish.  This is
      the reading consistent with the published largest-SCC sizes: the
      sparse CA-road grid (average undirected degree ~2.8) retains a
      giant SCC of 59 % only if reciprocal edges exist.
    * ``mode="choose"``: each undirected edge becomes exactly one
      directed edge, direction chosen uniformly.

    ``p_both`` (only with ``mode="independent"``) overrides the
    reciprocal-pair probability: an edge becomes bidirectional with
    probability ``p_both``, one-way (direction uniform) with probability
    ``0.5``, and vanishes otherwise.  The default ``p_both=0.25`` is the
    exact independent-coin model; road-network surrogates tune it
    because a 2-D grid sits near its directed-percolation threshold,
    where the giant-SCC fraction is acutely sensitive to the reciprocal
    density (DESIGN.md §2).

    Duplicate undirected edges (either order) are collapsed first so an
    edge is oriented once.
    """
    rng = np.random.default_rng(rng)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    # Canonicalize each undirected edge as (min, max) then dedup.
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    lo, hi = dedup_edges(lo, hi, drop_self_loops=True)
    if mode == "choose":
        if p_both is not None:
            raise ValueError("p_both only applies to mode='independent'")
        flip = rng.random(lo.shape[0]) < 0.5
        out_src = np.where(flip, hi, lo)
        out_dst = np.where(flip, lo, hi)
    elif mode == "independent":
        if p_both is None:
            fwd = rng.random(lo.shape[0]) < 0.5
            bwd = rng.random(lo.shape[0]) < 0.5
            out_src = np.concatenate([lo[fwd], hi[bwd]])
            out_dst = np.concatenate([hi[fwd], lo[bwd]])
        else:
            if not (0.0 <= p_both <= 0.5):
                raise ValueError("p_both must be in [0, 0.5]")
            u = rng.random(lo.shape[0])
            both = u < p_both
            fwd = (u >= p_both) & (u < p_both + 0.25)
            bwd = (u >= p_both + 0.25) & (u < p_both + 0.5)
            out_src = np.concatenate([lo[both], hi[both], lo[fwd], hi[bwd]])
            out_dst = np.concatenate([hi[both], lo[both], hi[fwd], lo[bwd]])
    else:
        raise ValueError(f"unknown orientation mode {mode!r}")
    return from_edge_array(out_src, out_dst, num_nodes, dedup=True)


def symmetrize(g: CSRGraph) -> CSRGraph:
    """Return the undirected closure: for every ``u -> v`` add ``v -> u``."""
    src, dst = g.edge_array()
    both_src = np.concatenate([src, dst])
    both_dst = np.concatenate([dst, src])
    return from_edge_array(both_src, both_dst, g.num_nodes, dedup=True)
