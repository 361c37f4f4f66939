import collections

import numpy as np
import pytest

from blockenc import encodings, numerics


class LinalgCalls(collections.Counter):
    """Call counts by function name; ``shapes`` lists (name, input shape) per call."""

    def __init__(self):
        super().__init__()
        self.shapes = []

    def clear(self):
        super().clear()
        self.shapes.clear()


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counter of the eigh, eigvalsh, svd and SVD spectral-norm calls made from here on."""
    calls = LinalgCalls()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            calls.shapes.append((name, np.shape(args[0])))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    for module in (numerics, encodings):
        monkeypatch.setattr(module, "spectral_norm",
                            counting("spectral_norm", module.spectral_norm))
    return calls
