"""Probes the solver tests share: exact float comparison and LP call counts."""

import numpy as np

from jamgame import equilibria


def bits(values):
    """int64 view of float data, so that equality also tells signed zeros apart."""
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


def count_lp_calls(monkeypatch) -> list:
    """Record the shape of every maximin LP that ``equilibria`` solves from here on."""
    calls = []
    real = equilibria._maximin_lp

    def counted(blocks):
        calls.append(blocks.shape)
        return real(blocks)

    monkeypatch.setattr(equilibria, "_maximin_lp", counted)
    return calls
