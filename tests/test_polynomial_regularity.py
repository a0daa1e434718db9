"""The DT regularity search does polynomial work per box.

``check_rc`` evaluates ``A(p)`` only at the centres of each frontier of
boxes and on segments (the region's main diagonal, and a sign change of
``det A`` between two open centres), never on a tensor grid of the
region, so ``n_p = 6`` or ``8`` costs a few hundred boxes, not ``10^n_p``
points.
"""

import numpy as np
import pytest

from lpvssa import LpvSsa, check_rc
from lpvssa.core import AffineMatrixFunction


def shifted_plant(rng, n_p, n_x=4, shift=0.6, a_norm=0.9):
    """``A(p) = shift I + sum_i p_i A_i`` on ``[-1, 1]^n_p``, each ``||A_i||_2 = a_norm / (n_p + 1)``.

    With ``shift < a_norm`` Weyl's bound cannot certify the whole region
    (``sigma_min(A_0) <= shift + a_norm / (n_p + 1) < n_p a_norm / (n_p + 1)``
    for ``n_p >= 2``), so the root box opens and the search bisects.
    """
    A = []
    for _ in range(n_p + 1):
        Ai = rng.standard_normal((n_x, n_x))
        A.append(Ai * (a_norm / (n_p + 1) / np.linalg.norm(Ai, 2)))
    A[0] = A[0] + shift * np.eye(n_x)
    B = [rng.standard_normal((n_x, 1)) for _ in range(n_p + 1)]
    C = [rng.standard_normal((1, n_x)) for _ in range(n_p + 1)]
    D = [rng.standard_normal((1, 1)) for _ in range(n_p + 1)]
    return LpvSsa.from_matrices(A, B, C, D, (-np.ones(n_p), np.ones(n_p)), "dt")


@pytest.fixture
def evaluated(monkeypatch):
    """Sizes of the point sets passed to ``AffineMatrixFunction.at_points``, per function."""
    real = AffineMatrixFunction.at_points
    calls = []

    def spy(self, P):
        calls.append((self, np.asarray(P).reshape(-1, self.n_p).shape[0]))
        return real(self, P)

    monkeypatch.setattr(AffineMatrixFunction, "at_points", spy)
    return calls


class TestPolynomialWork:
    def test_no_call_evaluates_more_points_than_its_frontier(self, evaluated):
        sys = shifted_plant(np.random.default_rng(0), n_p=6)
        cert = check_rc(sys)
        assert cert.dt_invertibility == "certified" and cert.boxes > 1
        sizes = [k for f, k in evaluated if f is sys.A]
        assert sizes == [k for _, k in evaluated]  # only A is evaluated
        # the root box, the main diagonal's n_x + 1 interpolation nodes, then
        # one call per frontier: the centres of the boxes bisected from the
        # open boxes of the frontier before
        root, diagonal, frontiers = sizes[0], sizes[1], sizes[2:]
        assert root == 1 and diagonal == sys.n_x + 1
        assert sum(frontiers) + root == cert.boxes
        previous = root
        for size in frontiers:
            assert size <= 2 * previous
            previous = size

    @pytest.mark.parametrize("n_p", [7, 8])
    def test_many_scheduling_variables_get_a_verdict(self, n_p, evaluated):
        sys = shifted_plant(np.random.default_rng(0), n_p=n_p)
        cert = check_rc(sys)
        assert cert.dt_invertibility == "certified" and cert.holds
        assert 1 < cert.boxes and 0.0 < cert.sigma_min_bound
        assert max(k for _, k in evaluated) <= max(cert.boxes, sys.n_x + 1)
