"""The JSON number test of the config schema."""

import numpy as np
import pytest

from volkovfp import schema


@pytest.mark.parametrize("value, verdict", [
    (True, False), (False, False), (1, True), (-7, True), (10 ** 400, False),
    (-10 ** 400, False), (1.0, True), (float("nan"), False), (float("inf"), False),
    (-float("inf"), False), (np.float64(2.5), True), (np.float64("nan"), False),
    (np.int64(3), True), (np.bool_(True), False), ("1", False), (None, False),
], ids=["true", "false", "int", "negative-int", "int-past-float", "negative-int-past-float",
        "float", "nan", "inf", "negative-inf", "np.float64", "np.float64-nan", "np.int64",
        "np.bool_", "text", "none"])
def test_exact_type_fast_path_keeps_every_verdict(value, verdict):
    """A float or an int skips the numbers-ABC checks; every value gets the
    verdict those checks give it."""
    assert schema._is_real_number(value) == verdict
    assert schema.is_number(value) == verdict
