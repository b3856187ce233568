"""Term-structure tests: multi-curve state validation."""

import numpy as np
import pytest

from mchjm import qe
from mchjm.curves import AnalyticCurve, MultiCurveState


def test_state_validation():
    c = AnalyticCurve(qe.nelson_siegel(0.02, 0.0, 0.0, 0.5))
    with pytest.raises(ValueError):
        MultiCurveState((c, c), np.array([0.1, 0.2]))
    with pytest.raises(TypeError, match="AnalyticCurve"):
        MultiCurveState((c, qe.nelson_siegel(0.02, 0.0, 0.0, 0.5)), np.array([0.1]))
