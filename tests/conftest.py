import numpy as np
import pytest

from lpvssa import LpvSsa, TimeDomain

DATA_DIR_NAME = "demos/data"


def make_worked_example() -> LpvSsa:
    """The 3-state DT worked example on P = [0, 1]."""
    A0 = [[1, -2, -2], [0, 2, 1], [-2, 1, 2]]
    A1 = [[1, -1, -1], [-1, 2, 0], [-1, 0, 2]]
    B0 = [[1], [-1], [-1]]
    B1 = [[2], [-2], [-2]]
    C0 = [[1, 0, 0]]
    C1 = [[0, 1, 1]]
    Z = [[0]]
    return LpvSsa.from_matrices([A0, A1], [B0, B1], [C0, C1], [Z, Z], ([0.0], [1.0]), "dt")


def make_worked_minimal() -> LpvSsa:
    """A 2-state minimal realization of the worked example."""
    A0 = [[1, -2], [-2, 3]]
    A1 = [[1, -1], [-2, 2]]
    B0 = [[1], [-2]]
    B1 = [[2], [-4]]
    C0 = [[1, 0]]
    C1 = [[0, 1]]
    Z = [[0]]
    return LpvSsa.from_matrices([A0, A1], [B0, B1], [C0, C1], [Z, Z], ([0.0], [1.0]), "dt")


def make_constant_2state() -> LpvSsa:
    """The 2-state system whose output is constant: x1 += p*x2, x2 -> 0."""
    A0 = [[1, 0], [0, 0]]
    A1 = [[0, 1], [0, 0]]
    B = [[0], [0]]
    C0 = [[1, 0]]
    C1 = [[0, 1]]
    Z = [[0]]
    return LpvSsa.from_matrices([A0, A1], [B, B], [C0, C1], [Z, Z], ([-1.0], [1.0]), "dt")


def make_constant_1state() -> LpvSsa:
    """The 1-state constant system z -> z, y = z with the same behavior."""
    return LpvSsa.from_matrices(
        [[[1]], [[0]]], [[[0]], [[0]]], [[[1]], [[0]]], [[[0]], [[0]]],
        ([-1.0], [1.0]), "dt",
    )


def make_singular_unobservable_block() -> LpvSsa:
    """DT ``A(p) = diag(0.5 + 0.1 p, 0)``, ``B = [1; 1]``, ``C = [1 0]`` on ``[-1, 1]``.

    ``A(p)`` is singular everywhere, but only through the unobservable
    second state: the 1-state observable reduction ``0.5 + 0.1 p`` is
    invertible on the whole region.
    """
    Z1 = np.zeros((1, 1))
    A0 = np.diag([0.5, 0.0])
    A1 = np.diag([0.1, 0.0])
    B0 = np.ones((2, 1))
    C0 = np.array([[1.0, 0.0]])
    return LpvSsa.from_matrices(
        [A0, A1], [B0, 0 * B0], [C0, 0 * C0], [Z1, Z1], ([-1.0], [1.0]), "dt"
    )


def make_weakly_coupled_ct() -> LpvSsa:
    """A CT system observable only through a 1e-6 coupling.

    ``A_0 = [[-0.2, 1e-6], [0, -0.2]]`` and ``C_0 = [1 0]``, every other
    coefficient zero, on ``[-1, 1]``.  The stacked window matrix ``C Phi`` on
    ``[0, 1]`` has singular values of about ``12.9`` and ``3.7e-6``, far
    apart but both above the ``1e-10`` relative floor; squared, as in a
    Gramian, the second falls below it.
    """
    Z = np.zeros((2, 2))
    A0 = np.array([[-0.2, 1e-6], [0.0, -0.2]])
    C0 = np.array([[1.0, 0.0]])
    B, D = np.zeros((2, 1)), np.zeros((1, 1))
    return LpvSsa.from_matrices([A0, Z], [B, B], [C0, 0 * C0], [D, D], ([-1.0], [1.0]), "ct")


def random_system(
    rng: np.random.Generator,
    *,
    n_x=None,
    n_p=None,
    n_u=None,
    n_y=None,
    domain=TimeDomain.DT,
    unobservable_dim=None,
    rc_shift=0.0,
) -> LpvSsa:
    """Random system with bounded state dynamics on the box [-1, 1]^n_p.

    Each A coefficient is scaled so that ||A(p)|| <= ~0.9 on the region,
    keeping 20-step trajectories O(1) for absolute-tolerance checks.
    ``unobservable_dim`` plants an unobservable block of that dimension
    behind a random orthogonal change of basis.  ``rc_shift`` adds a
    multiple of the identity to A_0, making A(p) provably invertible on
    the region when it exceeds the dynamics bound.
    """
    n_x = int(rng.integers(1, 6)) if n_x is None else n_x
    n_p = int(rng.integers(1, 3)) if n_p is None else n_p
    n_u = int(rng.integers(1, 3)) if n_u is None else n_u
    n_y = int(rng.integers(1, 3)) if n_y is None else n_y
    a_scale = 0.45 / ((n_p + 1) * max(np.sqrt(n_x), 1.0))

    def draw_A():
        return a_scale * rng.standard_normal((n_x, n_x))

    if unobservable_dim:
        o = n_x - unobservable_dim
        A, C = [], []
        for _ in range(n_p + 1):
            Ai = draw_A()
            Ai[:o, o:] = 0.0
            A.append(Ai)
            Ci = rng.standard_normal((n_y, n_x))
            Ci[:, o:] = 0.0
            C.append(Ci)
        Q, R = np.linalg.qr(rng.standard_normal((n_x, n_x)))
        Q = Q * np.sign(np.diag(R))
        A = [Q @ Ai @ Q.T for Ai in A]
        C = [Ci @ Q.T for Ci in C]
    else:
        A = [draw_A() for _ in range(n_p + 1)]
        C = [rng.standard_normal((n_y, n_x)) for _ in range(n_p + 1)]
    if rc_shift:
        A[0] = A[0] + rc_shift * np.eye(n_x)
    B = [rng.standard_normal((n_x, n_u)) for _ in range(n_p + 1)]
    D = [rng.standard_normal((n_y, n_u)) for _ in range(n_p + 1)]
    region = (-np.ones(n_p), np.ones(n_p))
    return LpvSsa.from_matrices(A, B, C, D, region, domain)


def random_invertible(rng: np.random.Generator, n: int, log_cond: float = 2.0):
    """Random invertible matrix with condition number about 10**log_cond."""
    if n == 0:
        return np.zeros((0, 0))
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sv = np.logspace(-log_cond / 2, log_cond / 2, n)
    return U @ np.diag(sv) @ V.T


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random orthogonal matrix (QR of a Gaussian draw, signs fixed by ``diag R``)."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def conjugate_system(sys: LpvSsa, T: np.ndarray) -> LpvSsa:
    """Change of state basis z = T x."""
    Tinv = np.linalg.inv(T) if T.size else T
    return LpvSsa.from_matrices(
        [T @ Ai @ Tinv for Ai in sys.A.coeffs],
        [T @ Bi for Bi in sys.B.coeffs],
        [Ci @ Tinv for Ci in sys.C.coeffs],
        list(sys.D.coeffs),
        sys.region,
        sys.domain,
    )


@pytest.fixture
def worked_example():
    return make_worked_example()


@pytest.fixture
def worked_minimal():
    return make_worked_minimal()


@pytest.fixture
def constant_2state():
    return make_constant_2state()


@pytest.fixture
def constant_1state():
    return make_constant_1state()


@pytest.fixture
def singular_unobservable_block():
    return make_singular_unobservable_block()


@pytest.fixture
def data_dir(request):
    return request.config.rootpath / DATA_DIR_NAME
