"""Shared fixtures."""

import numpy as np
import pytest

from rydgauge import gauge


@pytest.fixture
def solves(monkeypatch):
    """Sizes of the cubic solves made through gauge.labeled_spectrum, one entry per call."""
    calls = []
    original = gauge.labeled_spectrum

    def counting(*args, **kwargs):
        calls.append(np.size(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(gauge, "labeled_spectrum", counting)
    return calls
