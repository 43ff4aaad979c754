"""Adaptive penalty factors and penalized action selection.

Three modes share one ledger.  Rectified: Z grows by the positive part of
each observed cost and is floored at the episode index, so the penalty price
never decays and unsafe-looking actions get priced out permanently.  Virtual
queue: the classical dual update max(Z + g, 0), which tracks the *signed*
cost sum and therefore lets negative costs cancel violations.  Off: Z = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .envs import _check_count

MODES = ("rectified", "virtual_queue", "off")


class PenaltyLedger:
    """Per-step penalty factors Z_h with the floor schedule eta_k = k."""

    def __init__(self, horizon: int, mode: str):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        _check_count("horizon", horizon)
        self.mode = mode
        self.z = np.ones(horizon) if mode == "rectified" else np.zeros(horizon)

    def end_episode(self, costs, k: int) -> None:
        """Apply episode k's observed costs g_1..g_H to every step's factor.

        Rectified: Z_h <- max(Z_h + max(g_h, 0), k).  Virtual queue:
        Z_h <- max(Z_h + g_h, 0).  Off: Z stays 0.
        """
        # A NaN, infinite, fractional or bool k would floor every Z_h with it.
        _check_count("episode index", k)
        g = np.asarray(costs, dtype=float)
        if g.shape != self.z.shape:
            raise ValueError(f"{g.size} costs for horizon {self.z.size}")
        if not (np.abs(g) <= 1.0).all():
            raise ValueError("observed cost outside [-1, 1]")
        if self.mode == "rectified":
            self.z[:] = np.maximum(self.z + np.maximum(g, 0.0), float(k))
        elif self.mode == "virtual_queue":
            self.z[:] = np.maximum(self.z + g, 0.0)


def penalized_argmax(q: np.ndarray, ghat: np.ndarray, z: float) -> np.ndarray:
    """argmax over the last axis of Q - z * max(ghat, 0): the action of every
    row of a (..., A) table.  Ties go to the lowest index.  z must be finite:
    a NaN would make every entry NaN and every action 0, and inf*0 is NaN."""
    if not math.isfinite(z):
        raise ValueError(f"penalty factor z={z} is not finite")
    if q.shape != ghat.shape:
        raise ValueError(f"Q shape {q.shape} != cost shape {ghat.shape}")
    if not q.shape or q.shape[-1] == 0:
        raise ValueError("empty action set")
    return (q - z * np.maximum(ghat, 0.0)).argmax(axis=-1)
