import collections

import numpy as np
import pytest

from blockenc import encodings, numerics


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counter of the eigh, eigvalsh, svd and SVD spectral-norm calls made from here on."""
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    for module in (numerics, encodings):
        monkeypatch.setattr(module, "spectral_norm",
                            counting("spectral_norm", module.spectral_norm))
    return calls
