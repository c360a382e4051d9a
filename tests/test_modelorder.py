import json

import numpy as np
import pytest

import radarvitals as rv


def test_rd_all_equal_is_zero():
    lam = np.full(10, 3.5)
    np.testing.assert_array_equal(rv.relative_distances(lam, 10), np.zeros(9))


def test_rd_hand_case():
    lam = np.array([8.0, 8, 4, 4, 1, 1, 1, 1, 1, 1, 1, 1])
    rd = rv.relative_distances(lam, 12)
    np.testing.assert_allclose(rd, [0, 1, 0, 3, 0, 0, 0, 0, 0, 0, 0], atol=1e-14)


def test_rd_geometric_spectrum():
    for ratio in (1.5, 2.0, 7.3):
        lam = ratio ** -np.arange(12.0)
        rd = rv.relative_distances(lam, 12)
        np.testing.assert_allclose(rd, ratio - 1, rtol=1e-12)


def test_rd_validation():
    with pytest.raises(ValueError):
        rv.relative_distances(np.array([1.0]), 2)
    with pytest.raises(ValueError, match="descending"):
        rv.relative_distances(np.array([1.0, 2.0, 0.5]), 3)
    with pytest.raises(ValueError, match="positive"):
        rv.relative_distances(np.array([-1.0, -2.0]), 2)
    with pytest.raises(ValueError):
        rv.relative_distances(np.array([2.0, 1.0]), 5)


def test_rd_floors_nonpositive_tail():
    lam = np.array([4.0, 2.0, 0.0, 0.0])
    with pytest.warns(UserWarning, match="floored"):
        rd = rv.relative_distances(lam, 4)
    assert np.all(np.isfinite(rd))


@pytest.mark.parametrize("tail", [[-1e-17, -1e-17], [-1e-17, -1.0000000001e-17]])
def test_rd_accepts_sorted_negative_tail(tail):
    # round-off leaves a rank-deficient covariance with tails like these;
    # the sortedness tolerance must not tighten on negative entries
    lam = np.array([1.0, *tail])
    with pytest.warns(UserWarning, match="floored"):
        assert np.all(np.isfinite(rv.relative_distances(lam, 2)))
    with pytest.warns(UserWarning, match="floored"):
        assert rv.order_diagnostics(lam).beta == 1
    with pytest.raises(ValueError, match="descending"):
        rv.relative_distances(np.array([1.0, -1e-17, -0.5e-17]), 3)


def test_estimate_hand_case():
    lam = np.array([8.0, 8, 4, 4, 1, 1, 1, 1, 1, 1, 1, 1])
    diag = rv.order_diagnostics(lam, rv.ModelOrderConfig(alpha=3.0, d_cap=12))
    assert [c + 1 for c in diag.candidates] == [4, 2]
    assert diag.beta == 4
    assert diag.p_hat == 2


def test_estimate_flat_spectrum_gives_zero():
    lam = np.full(20, 2.0)
    assert rv.estimate_order(lam, rv.ModelOrderConfig(alpha=3.0)) == 0


def test_estimate_knee_shape():
    # four dominant pairs with a knee at index 8 and a slowly decaying tail
    lam = np.concatenate([[10.0, 10, 8, 8, 6, 6, 5, 5], 0.5 * 0.98 ** np.arange(22.0)])
    diag = rv.order_diagnostics(lam, rv.ModelOrderConfig(alpha=3.0, d_cap=30))
    assert diag.beta == 8
    assert diag.p_hat == 4


def test_zero_spectrum_estimates_zero():
    with pytest.warns(UserWarning, match="no positive"):
        assert rv.estimate_order(np.zeros(10)) == 0


def test_too_few_eigenvalues():
    with pytest.raises(ValueError):
        rv.estimate_order(np.array([1.0]))


def test_odd_cut_rounds_up():
    # single dominant eigenvalue: the cut at one keeps detection alive
    lam = np.concatenate([[50.0], np.full(19, 0.1)])
    assert rv.estimate_order(lam, rv.ModelOrderConfig(alpha=3.0)) == 1


def test_p_hat_capped():
    lam = np.concatenate([np.full(12, 10.0), np.full(28, 1e-4)])
    cfg = rv.ModelOrderConfig(alpha=3.0, p_max=4)
    assert rv.estimate_order(lam, cfg) <= 4


def test_scale_invariance_property():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(6, 40))
        lam = np.sort(rng.gamma(2.0, 1.0, n))[::-1] + 1e-6
        cfg = rv.ModelOrderConfig(alpha=float(rng.uniform(1.0, 5.0)),
                                  n_candidates=int(rng.integers(1, 7)))
        scale = float(rng.uniform(1e-6, 1e6))
        assert rv.estimate_order(lam, cfg) == rv.estimate_order(scale * lam, cfg)


def test_alpha_monotonicity_property():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(6, 40))
        lam = np.sort(rng.gamma(2.0, 1.0, n))[::-1] + 1e-6
        lo = float(rng.uniform(1.0, 4.0))
        hi = lo + float(rng.uniform(0.0, 4.0))
        p_lo = rv.estimate_order(lam, rv.ModelOrderConfig(alpha=lo))
        p_hi = rv.estimate_order(lam, rv.ModelOrderConfig(alpha=hi))
        assert p_lo >= p_hi


def test_config_validation():
    with pytest.raises(rv.ConfigError):
        rv.ModelOrderConfig(alpha=0.5)
    with pytest.raises(rv.ConfigError):
        rv.ModelOrderConfig(n_candidates=0)
    with pytest.raises(rv.ConfigError):
        rv.ModelOrderConfig(p_max=-1)


def test_candidate_tie_breaks_toward_larger_index():
    # two identical relative gaps: the larger index wins the candidate slot
    lam = np.array([9.0, 3.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    diag = rv.order_diagnostics(lam, rv.ModelOrderConfig(alpha=1.0, n_candidates=1))
    assert diag.candidates == [2]
    assert diag.beta == 3
    assert diag.p_hat == 2


@pytest.mark.parametrize("lam", [
    [10.0, 9.0, 1.0, 0.9, 0.1, 0.09, 0.01],
    [8.0, 8, 4, 4, 1, 1, 1, 1, 1, 1, 1, 1],
    [5.0, 5.0, 5.0, 5.0],  # no cut passes: beta is None
    [1.0, 0.5],
])
def test_order_diagnostics_fields_are_plain_json(lam):
    diag = rv.order_diagnostics(np.array(lam))
    fields = {k: v for k, v in vars(diag).items() if k not in ("lam", "rd")}
    assert json.loads(json.dumps(fields)) == fields
