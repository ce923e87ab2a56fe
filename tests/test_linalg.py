"""Packed symmetric vectors, Lyapunov solves, projection, stability."""
import math
import tracemalloc

import numpy as np
import pytest

from malspi import linalg
from malspi.examples import default_state_block
from malspi.linalg import (
    InstabilityError,
    lyapunov_solve,
    psd_project,
    smat,
    spectral_radius,
    stability_report,
    svec,
    svec_dim,
)
from malspi.verify import check_lyapunov_oracle, lyapunov_iteration_oracle


def random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return 0.5 * (m + m.T)


def test_svec_identity_2x2():
    np.testing.assert_allclose(svec(np.eye(2)), [1.0, 0.0, 1.0])


def test_svec_off_diagonal_scaling():
    m = np.array([[1.0, 2.0], [2.0, 3.0]])
    v = svec(m)
    np.testing.assert_allclose(v, [1.0, 2.0 * math.sqrt(2.0), 3.0])
    assert float(v @ v) == pytest.approx(18.0)


def test_svec_frobenius_isometry_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = random_symmetric(rng, 5)
        v = svec(m)
        assert abs(float(v @ v) - np.linalg.norm(m, "fro") ** 2) < 1e-12


def test_svec_inner_product_matches_frobenius_inner_product():
    rng = np.random.default_rng(1)
    a = random_symmetric(rng, 6)
    b = random_symmetric(rng, 6)
    assert float(svec(a) @ svec(b)) == pytest.approx(float(np.sum(a * b)), abs=1e-12)


def test_svec_rejects_nonsquare_and_asymmetric():
    with pytest.raises(ValueError):
        svec(np.ones((2, 3)))
    with pytest.raises(ValueError):
        svec(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_smat_round_trip():
    rng = np.random.default_rng(2)
    for n in (1, 3, 6, 20):
        m = random_symmetric(rng, n)
        np.testing.assert_allclose(smat(svec(m)), m, atol=1e-12)


def test_smat_basic_and_length_check():
    np.testing.assert_allclose(smat(np.array([1.0, 0.0, 1.0])), np.eye(2))
    with pytest.raises(ValueError):
        smat(np.ones(4))


def test_svec_dim():
    assert svec_dim(4) == 10


def test_lyapunov_zero_dynamics_returns_cost():
    y = np.array([[2.0, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(lyapunov_solve(np.zeros((2, 2)), y), y)


def test_lyapunov_scalar_geometric_series():
    p = lyapunov_solve(np.array([[0.5]]), np.array([[1.0]]))
    assert p[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_lyapunov_matches_fixed_point_iteration():
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.normal(size=(6, 6))
        x *= 0.75 / spectral_radius(x)
        y = random_symmetric(rng, 6)
        y = y @ y.T + np.eye(6)
        np.testing.assert_allclose(
            lyapunov_solve(x, y), lyapunov_iteration_oracle(x, y), atol=1e-9
        )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lyapunov_matches_kronecker_oracle_on_stress_set(seed):
    # Normal and non-normal X, 1 <= n <= 11, spectral radius up to 0.999.
    result = check_lyapunov_oracle(seed)
    assert result.passed, result.detail


def test_lyapunov_rejects_unstable_dynamics():
    with pytest.raises(InstabilityError) as err:
        lyapunov_solve(np.array([[1.2]]), np.array([[1.0]]))
    assert err.value.rho == pytest.approx(1.2)


def test_psd_project_fixed_point():
    m = np.diag([1.0, 2.0])
    np.testing.assert_allclose(psd_project(m, 0.5), m)


def test_psd_project_clamps_negative_eigenvalue():
    np.testing.assert_allclose(psd_project(np.diag([-1.0, 2.0]), 0.0), np.diag([0.0, 2.0]))


def test_psd_project_matches_eigen_clamp_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = random_symmetric(rng, 6)
        zeta = float(rng.uniform(0, 0.3))
        out = psd_project(m, zeta)
        eigvals, eigvecs = np.linalg.eigh(m)
        oracle = (eigvecs * np.maximum(eigvals, zeta)) @ eigvecs.T
        np.testing.assert_allclose(out, oracle, atol=1e-9)
        assert np.linalg.eigvalsh(out).min() >= zeta - 1e-10


def test_psd_project_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = random_symmetric(rng, 5)
        once = psd_project(m, 0.1)
        np.testing.assert_allclose(psd_project(once, 0.1), once, atol=1e-12)


def test_psd_project_rejects_negative_floor():
    with pytest.raises(ValueError):
        psd_project(np.eye(2), -1.0)


def test_stability_report_zero_matrix():
    report = stability_report(np.zeros((3, 3)))
    assert report.rho == 0.0
    assert report.tau == 1.0


def test_stability_report_normal_matrix():
    report = stability_report(np.diag([0.9, 0.5]))
    assert report.rho == pytest.approx(0.9)
    assert report.tau == pytest.approx(1.0)


def test_stability_report_small_spectral_radius_normal():
    # rho**k underflows long before k = 200; the normalized powers do not.
    report = stability_report(np.diag([0.01, 0.005]))
    assert report.rho == pytest.approx(0.01)
    assert report.tau == pytest.approx(1.0, rel=1e-12)


def test_stability_report_small_spectral_radius_jordan_block():
    # (X / rho)^k = [[1, 50 k], [0, 1]], largest at k = 200.
    report = stability_report(np.array([[0.02, 1.0], [0.0, 0.02]]))
    assert report.rho == pytest.approx(0.02)
    assert report.tau == pytest.approx(1e4, rel=1e-6)


def test_stability_report_matches_power_oracle():
    rng = np.random.default_rng(6)
    m = np.array(
        [[0.8, 1.0, 0.0, 0.0],
         [0.0, 0.8, 1.0, 0.0],
         [0.0, 0.0, 0.8, 1.0],
         [0.0, 0.0, 0.0, 0.8]]
    ) + 0.01 * rng.normal(size=(4, 4))
    report = stability_report(m)
    rho = spectral_radius(m)
    tau_oracle = 1.0
    power = np.eye(4)
    for k in range(1, 201):
        power = power @ m
        tau_oracle = max(tau_oracle, np.linalg.norm(power, 2) / rho**k)
    assert report.rho == pytest.approx(rho)
    assert report.tau == pytest.approx(tau_oracle, rel=1e-10)


def _stacked_tau(m, max_power):
    """tau from all powers of X / rho at once and one batched SVD."""
    normalized = m / spectral_radius(m)
    powers = np.empty((max_power,) + m.shape)
    powers[0] = normalized
    for k in range(1, max_power):
        np.matmul(powers[k - 1], normalized, out=powers[k])
    return max(1.0, float(np.max(np.linalg.svd(powers, compute_uv=False)[:, 0])))


W = 16


@pytest.mark.parametrize("n", [1, 6, 72])
@pytest.mark.parametrize("max_power", [1, W - 1, W, W + 1, 200])
@pytest.mark.parametrize("window", [1, W, None])
def test_stability_report_windows_match_stacked_powers_bitwise(monkeypatch, n, max_power, window):
    monkeypatch.setattr(linalg, "_MAX_POWER", max_power)
    if window is not None:
        monkeypatch.setattr(linalg, "_POWER_WINDOW_BYTES", window * 8 * n * n)
    rng = np.random.default_rng(1000 * n + max_power)
    m = rng.normal(size=(n, n)) / math.sqrt(n)
    report = stability_report(m)
    assert report.rho == spectral_radius(m)
    assert report.tau == _stacked_tau(m, max_power)


def test_stability_report_memory_does_not_grow_with_max_power():
    # all 200 powers of a 72 x 72 matrix take 8.3 MB
    m = np.random.default_rng(7).normal(size=(72, 72)) / math.sqrt(72)
    tracemalloc.start()
    try:
        stability_report(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * linalg._POWER_WINDOW_BYTES


def _permuted_block_diagonal(blocks, seed, *, keep_block_order=False):
    """The block-diagonal matrix of ``blocks`` with its indices moved to random places.

    ``keep_block_order`` interleaves the blocks but keeps each block's own
    index order, so equal blocks stay equal as submatrices.
    """
    n = sum(len(b) for b in blocks)
    m = np.zeros((n, n))
    place = np.random.default_rng(seed).permutation(n)
    start = 0
    for b in blocks:
        m[start:start + len(b), start:start + len(b)] = b
        if keep_block_order:
            place[start:start + len(b)].sort()
        start += len(b)
    out = np.empty_like(m)
    out[np.ix_(place, place)] = m
    return out


JORDAN = np.array([[0.02, 1.0], [0.0, 0.02]])
BLOCK_CASES = {
    # example2's leader closed loop under the zero policy
    "repeated_chain": [default_state_block(3)] * 24,
    # normalized by the global rho 0.9, the Jordan block decays yet holds the peak
    "unequal_radii": [np.diag([0.9, 0.3]), np.array([[0.5, 5.0], [0.0, 0.5]]),
                      np.array([[0.6, 0.1, 0.0, 0.0], [0.1, 0.6, 0.1, 0.0],
                                [0.0, 0.1, 0.6, 0.1], [0.0, 0.0, 0.1, 0.6]])],
    "zero_block": [np.zeros((1, 1)), default_state_block(3), np.array([[0.5, 2.0], [0.0, 0.4]])],
    # (X / rho)^k = [[1, 50 k], [0, 1]] peaks at k = 200
    "jordan_peak_at_200": [JORDAN, np.diag([0.01, -0.02]), JORDAN, 0.01 * default_state_block(3)],
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_stability_report_per_block_matches_dense_powers(case):
    m = _permuted_block_diagonal(BLOCK_CASES[case], seed=len(case))
    report = stability_report(m)
    assert report.rho == spectral_radius(m)
    assert report.tau == pytest.approx(_stacked_tau(m, 200), rel=1e-12, abs=0)
    if case == "jordan_peak_at_200":
        assert report.tau == pytest.approx(1e4, rel=1e-6)


def test_stability_report_certifies_identical_blocks_once(monkeypatch):
    shapes = []
    peak_power_norm = linalg._peak_power_norm

    def counted(normalized, max_power):
        shapes.append(normalized.shape)
        return peak_power_norm(normalized, max_power)

    monkeypatch.setattr(linalg, "_peak_power_norm", counted)
    for case, expected in [("repeated_chain", [(3, 3)]),
                           ("jordan_peak_at_200", [(1, 1), (1, 1), (2, 2), (3, 3)])]:
        shapes.clear()
        m = _permuted_block_diagonal(BLOCK_CASES[case], seed=0, keep_block_order=True)
        stability_report(m)
        assert sorted(shapes) == expected
