"""Fixtures shared by the test modules."""

from collections import Counter

import numpy as np
import pytest

DECOMPOSITIONS = ("eigh", "eigvalsh", "cholesky", "solve", "inv", "svd", "qr",
                  "slogdet", "det", "eig", "lstsq", "pinv")


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts of np.linalg decomposition calls; clear() before the call
    under test, since building inputs may use np.linalg too."""
    counts = Counter()
    for name in DECOMPOSITIONS:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts
