import warnings

import numpy as np
import pytest

from onigraph.centrality import ITERATION_LIMIT, eigenvector_centrality
from onigraph.errors import ConvergenceError, NumericError
from onigraph.structure import StructureParams, kept_edges
from onigraph.autodiff import Tensor


def dense_oracle(a):
    """Dominant eigenpair via full eigendecomposition."""
    eigvals, eigvecs = np.linalg.eig(a)
    i = int(np.argmax(np.abs(eigvals)))
    v = np.real(eigvecs[:, i])
    v = v / np.linalg.norm(v)
    if v.sum() < 0:
        v = -v
    return float(np.real(eigvals[i])), v


def test_all_ones_matrix():
    out = eigenvector_centrality(np.ones((3, 3)))
    np.testing.assert_allclose(out.scores, np.full(3, 1 / np.sqrt(3)), atol=1e-12)
    assert out.eigenvalue == pytest.approx(3.0, abs=1e-10)


def test_identity_fixes_start_vector():
    out = eigenvector_centrality(np.eye(4))
    np.testing.assert_allclose(out.scores, np.full(4, 0.5), atol=1e-15)
    assert out.eigenvalue == pytest.approx(1.0)
    assert out.iterations == 1


def test_two_cycle_from_uniform_start():
    out = eigenvector_centrality(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(out.scores, [0.7071067811865475] * 2, atol=1e-12)
    assert out.eigenvalue == pytest.approx(1.0)


def test_matches_dense_oracle_on_random_matrices():
    rng = np.random.default_rng(0)
    for trial in range(40):
        n = int(rng.integers(2, 65))
        a = rng.random((n, n))
        a[rng.random((n, n)) < 0.3] = 0.0
        np.fill_diagonal(a, np.diag(a) + 0.1)
        out = eigenvector_centrality(a)
        lam, v = dense_oracle(a)
        cos = abs(float(out.scores @ v))
        assert cos >= 1 - 1e-8, trial
        assert out.residual <= 1e-8 * np.linalg.norm(a, "fro"), trial
        assert out.eigenvalue == pytest.approx(lam, rel=1e-8)


def test_scaling_invariance():
    rng = np.random.default_rng(3)
    a = rng.random((10, 10))
    base = eigenvector_centrality(a)
    scaled = eigenvector_centrality(4.0 * a)
    np.testing.assert_allclose(scaled.scores, base.scores, atol=1e-8)
    assert scaled.eigenvalue == pytest.approx(4.0 * base.eigenvalue, rel=1e-8)


def test_learned_adjacency_centrality():
    rng = np.random.default_rng(5)
    params = StructureParams(
        static_features=Tensor(rng.normal(size=(12, 4))),
        w_from=Tensor(rng.normal(size=(4, 3))),
        w_to=Tensor(rng.normal(size=(4, 3))),
        max_edges=40,
    )
    edges, values = kept_edges(params)
    adj = edges.dense(values.data, self_loops=True)
    out = eigenvector_centrality(adj)
    assert np.all(out.scores >= 0.0)
    assert np.linalg.norm(out.scores) == pytest.approx(1.0, abs=1e-12)
    assert out.residual <= 1e-8 * np.linalg.norm(adj, "fro")


def test_equal_modulus_spectrum_raises_convergence_error():
    # directed 3-cycle with unequal weights: three eigenvalues share one
    # modulus, so the iterates cycle forever
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ConvergenceError, match=f"in {ITERATION_LIMIT} iterations"):
        eigenvector_centrality(a)


def test_negative_entries_rejected():
    with pytest.raises(NumericError):
        eigenvector_centrality(np.array([[0.0, -1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_rejected_before_iterating(bad):
    # a positive 50 x 50 matrix converges at once; iterating over one bad
    # entry instead runs out of iterations (ConvergenceError) and, for inf,
    # warns of overflow
    a = np.random.default_rng(9).random((50, 50)) + 0.1
    a[17, 4] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="finite"):
            eigenvector_centrality(a)
