"""The DT regularity search does polynomial work per box.

``check_rc`` evaluates ``A(p)`` only at the centres of each frontier of
boxes and at the singular points of the matrix pencil on a line (the
region's main diagonal, and the line through two open centres where
``det A`` changes sign), with one Newton step from them, never on a
tensor grid of the region, so ``n_p = 6`` or ``8`` costs a few hundred
boxes, not ``10^n_p`` points.
"""

import numpy as np
import pytest

from lpvssa import LpvSsa, analysis, check_rc
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
    def test_no_call_evaluates_more_points_than_its_frontier(self, evaluated, monkeypatch):
        real = analysis._segment_witness
        on_lines = set()

        def spy(*args):
            start = len(evaluated)
            witness = real(*args)
            on_lines.update(range(start, len(evaluated)))
            return witness

        monkeypatch.setattr(analysis, "_segment_witness", spy)
        sys = shifted_plant(np.random.default_rng(0), n_p=6)
        cert = check_rc(sys)
        assert cert.dt_invertibility == "certified" and cert.boxes > 1
        sizes = [k for f, k in evaluated if f is sys.A]
        assert sizes == [k for _, k in evaluated]  # only A is evaluated
        # the root box, then one call per frontier: the centres of the boxes
        # bisected from the open boxes of the frontier before; the main
        # diagonal evaluates its candidates, at most n_x (one per eigenvalue
        # of the pencil), then the points one Newton step away from them
        diagonal = [k for n, k in enumerate(sizes) if n in on_lines]
        root, *frontiers = [k for n, k in enumerate(sizes) if n not in on_lines]
        assert root == 1 and len(diagonal) <= 2 and all(k <= sys.n_x for k in diagonal)
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
