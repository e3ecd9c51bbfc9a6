"""The rounding rule for a mutual information, shared by every layer.

A leaf: it imports nothing from the package, so the Gaussian layer can use
the rule without loading the finite-alphabet probability module.
"""

from __future__ import annotations

import numpy as np

MI_CLAMP = 1e-10


def _clamp_mi(value):
    """Zero a mutual information in [-MI_CLAMP, 0): rounding noise.

    Anything further below is left visible so broken inputs fail loudly in
    tests.  Scalars and arrays alike.
    """
    if isinstance(value, np.ndarray):
        return np.where((value >= -MI_CLAMP) & (value < 0.0), 0.0, value)
    return 0.0 if -MI_CLAMP <= value < 0.0 else value
