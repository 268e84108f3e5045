"""Seeded synthetic multi-view graphs: a shared community backbone plus per-view unique structure."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_int, require_ints
from .graph import MultiViewNetwork, SparseAdjacency


@dataclass(frozen=True)
class SynthConfig:
    """Planted-community generator settings.

    Every view contains the same block-model backbone. On top of it each
    view receives unique_frac * |backbone| extra edges drawn under a
    view-specific shuffle of the community assignment, so the unique part is
    structured but unaligned with the true labels. To aim at an expected
    pairwise edge overlap o, set unique_frac = (1/o - 1)/2.
    """

    n: int
    communities: tuple
    views: int = 2
    p_in: float = 0.3
    p_out: float = 0.02
    unique_frac: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n", 2), ("views", 1), ("seed", 0)):
            require_int(name, getattr(self, name), low)
        require_ints("community sizes", self.communities, 1)
        if sum(self.communities) != self.n:
            raise ConfigError(f"community sizes must sum to n={self.n}")
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise ConfigError("need 0 <= p_out < p_in <= 1")
        if not 0.0 <= self.unique_frac < float("inf"):
            raise ConfigError(f"unique_frac must be finite and nonnegative, got {self.unique_frac}")


def generate(cfg: SynthConfig) -> MultiViewNetwork:
    """Sample a labeled multi-view network; identical seeds give identical edge sets."""
    rng = np.random.default_rng(cfg.seed)
    labels = np.repeat(np.arange(len(cfg.communities)), np.asarray(cfg.communities, dtype=int))
    iu, ju = np.triu_indices(cfg.n, k=1)
    same_block = labels[iu] == labels[ju]
    prob = np.where(same_block, cfg.p_in, cfg.p_out)
    backbone = rng.random(iu.size) < prob
    backbone_idx = np.flatnonzero(backbone)
    if backbone_idx.size == 0:
        raise ConfigError("the backbone came out empty; increase p_in or n")
    n_unique = int(round(cfg.unique_frac * backbone_idx.size))
    candidates = np.flatnonzero(~backbone)
    views = []
    for _ in range(cfg.views):
        perm = rng.permutation(cfg.n)
        shuffled = labels[perm]
        edge_idx = backbone_idx
        if n_unique > 0:
            w = np.where(shuffled[iu[candidates]] == shuffled[ju[candidates]], cfg.p_in, cfg.p_out)
            if np.count_nonzero(w) < n_unique:
                raise ConfigError("not enough candidate pairs for the requested unique fraction")
            pick = rng.choice(candidates.size, size=n_unique, replace=False, p=w / w.sum())
            edge_idx = np.sort(np.concatenate([backbone_idx, candidates[pick]]))
        pairs = np.stack([iu[edge_idx], ju[edge_idx]], axis=1)
        views.append(SparseAdjacency.from_edges(cfg.n, pairs))
    label_sets = [{str(int(c))} for c in labels]
    names = [str(i) for i in range(cfg.n)]
    return MultiViewNetwork(n=cfg.n, views=views, labels=label_sets, node_names=names)
