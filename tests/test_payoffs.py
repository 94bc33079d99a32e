import numpy as np
import pytest

from krrdp.payoffs import PayoffSpec, payoff_batch


CALL = PayoffSpec(kind="max_call", strike=100.0)
PUT = PayoffSpec(kind="geo_basket_put", strike=100.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        PayoffSpec(kind="basket_call", strike=100.0)
    with pytest.raises(ValueError):
        PayoffSpec(kind="max_call", strike=0.0)


def test_max_call_hand_values():
    np.testing.assert_array_equal(payoff_batch(CALL, [[90.0, 110.0], [90.0, 95.0]]), [10.0, 0.0])
    assert payoff_batch(CALL, [[100.0]])[0] == 0.0


def test_geo_basket_put_hand_values():
    # geometric mean of (100, 81) with log-average: sqrt(8100) = 90
    out = payoff_batch(PUT, [[100.0, 81.0], [120.0, 120.0]])
    assert out[0] == pytest.approx(10.0, rel=1e-12)
    assert out[1] == 0.0


def test_payoff_batch_matches_scalar():
    rng = np.random.default_rng(0)
    X = rng.uniform(50, 150, size=(30, 3))
    call = [max(max(x) - 100.0, 0.0) for x in X]
    put = [max(100.0 - float(np.prod(x)) ** (1.0 / 3.0), 0.0) for x in X]
    for spec, scalar in ((CALL, call), (PUT, put)):
        batch = payoff_batch(spec, X)
        np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-12)
        assert np.all(batch >= 0)


def test_payoff_batch_rejects_1d_input():
    # [90, 110] is one 2-asset state or two 1-asset ones: only the (n, d) layout says which
    with pytest.raises(ValueError, match=r"\(n, d\)"):
        payoff_batch(PUT, np.array([90.0, 110.0]))
    assert payoff_batch(PUT, [[90.0, 110.0]])[0] == pytest.approx(0.501256, abs=1e-6)

