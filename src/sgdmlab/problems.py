"""Synthetic problem families with exact oracles.

Two families: random quadratic losses f_i(x) = x'A_i x/2 - b_i'x and
l2-regularized logistic regression. Each instance carries its minimizer,
Hessian, the normalized Gram matrix of per-sample gradients at the
minimizer, and smoothness constants, so optimizer trajectories and
confidence procedures can be checked against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rand import RngStream
from .spectrum import HessianSpectrum

__all__ = [
    "GenerationError",
    "QuadraticProblem",
    "LogisticProblem",
    "generate_quadratic",
    "generate_logistic",
]


@dataclass
class QuadraticProblem:
    """N random quadratic component losses with a shared exact minimizer.

    a_mats[i] is symmetric positive definite, and symmetric bit for bit,
    which `gather` checks on first use; x_star solves the first-order
    condition sum(A_i) x = sum(b_i). sigma_hat is the mean Hessian. mu/ell
    are the average extreme curvatures across component losses, the values
    the tuning rules (adaptive momentum, optimal hyperparameters) consume;
    the exact spectrum of sigma_hat is available via hessian_spectrum().
    sigma2 is the mean squared norm of per-sample gradients at x_star and
    omega the per-sample gradient Gram matrix normalized by N*sigma2 (so
    trace(omega) = 1).
    """

    a_mats: np.ndarray
    b_vecs: np.ndarray
    x_star: np.ndarray
    sigma_hat: np.ndarray
    mu: float
    ell: float
    sigma2: float
    omega: np.ndarray
    seed: int
    rho: float
    diag_shift: float

    family = "quadratic"

    @property
    def n_samples(self) -> int:
        return self.a_mats.shape[0]

    @property
    def dim(self) -> int:
        return self.a_mats.shape[1]

    def hessian_spectrum(self):
        return HessianSpectrum.from_matrix(self.sigma_hat)

    def tuning_spectrum(self):
        return HessianSpectrum.from_extremes(self.mu, self.ell)

    def per_sample_gradients(self, x: np.ndarray) -> np.ndarray:
        """Row i is component i's gradient at x, shape (N, d)."""
        return np.einsum("nij,j->ni", self.a_mats, x) - self.b_vecs

    def gather(self, indices: np.ndarray) -> tuple:
        """The batch's mean Hessian and mean linear term, shared by every
        iterate evaluated on this batch; a (C, B) block of C batches gives
        (C, d, d) and (C, d). Each entry is `.mean(axis=0)`'s arithmetic, an
        in-order sum over the batch rows divided by B. The Hessians are
        summed as packed upper triangles (each A_i is symmetric bit for bit)
        and unpacked C-contiguous. A block is taken batch row first, so one
        numpy inner loop adds row k of all C batches; at d = 1 numpy sums a
        batch's one-double rows pairwise, so each batch keeps its own axis.
        """
        if self._upper is None:
            self._pack()
        count = indices.shape[-1]
        if self.dim > 1:
            indices, axis = indices.T, 0
        else:
            axis = -2
        upper = np.add.reduce(self._upper.take(indices, 0), axis) / count
        return (upper.take(self._unpack, -1),
                np.add.reduce(self.b_vecs.take(indices, 0), axis) / count)

    @property
    def _gathered_per_sample(self) -> int:
        """Doubles `gather` reads per batch row: the packed triangle and b_i."""
        return self.dim * (self.dim + 1) // 2 + self.dim

    def _pack(self) -> None:
        """Build the (N, d(d+1)/2) upper triangles `gather` sums, on first
        use so that an instance that never gathers never holds them."""
        if not np.array_equal(self.a_mats, self.a_mats.transpose(0, 2, 1)):
            raise ValueError("a_mats must be bitwise symmetric to be gathered")
        rows, cols = np.triu_indices(self.dim)
        unpack = np.empty((self.dim, self.dim), dtype=np.intp)
        unpack[rows, cols] = unpack[cols, rows] = np.arange(rows.size)
        self._upper, self._unpack = np.ascontiguousarray(self.a_mats[:, rows, cols]), unpack

    def batch_gradient(self, batch: tuple, x: np.ndarray) -> np.ndarray:
        """Mini-batch gradient at x, or at each row of a (K, d) stack x, from
        a `gather` result; a stack row gets the bits of its 1-D gradient."""
        a_mean, b_mean = batch
        return np.matmul(a_mean, x[..., None])[..., 0] - b_mean

    def minibatch_gradient(self, x: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return self.batch_gradient(self.gather(indices), x)

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.sigma_hat @ x - self._b_mean

    def hessian_at(self, x: np.ndarray) -> np.ndarray:
        return self.sigma_hat

    def loss(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.sigma_hat @ x - self._b_mean @ x)

    def per_sample_loss(self, x: np.ndarray, i: int) -> float:
        return float(0.5 * x @ self.a_mats[i] @ x - self.b_vecs[i] @ x)

    def __post_init__(self):
        self._b_mean = self.b_vecs.mean(axis=0)
        self._upper = None


@dataclass
class LogisticProblem:
    """l2-regularized logistic regression on generated (features, labels).

    Per-sample loss: log(1 + exp(x'a_i)) - b_i x'a_i + nu ||x||^2 / 2 with
    labels b_i in {0, 1}. x_star is found by full-batch gradient descent to
    gradient norm <= 1e-10. sigma_at_star is the Hessian there; mu/ell its
    extreme eigenvalues (the tuning values for this family). lbar bounds the
    Hessian's Lipschitz modulus, lf the gradient's.
    """

    features: np.ndarray
    labels: np.ndarray
    nu: float
    x_star: np.ndarray
    sigma_at_star: np.ndarray
    mu: float
    ell: float
    sigma2: float
    omega: np.ndarray
    lbar: float
    lf: float
    seed: int

    family = "logistic"

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def hessian_spectrum(self):
        return HessianSpectrum.from_matrix(self.sigma_at_star)

    def tuning_spectrum(self):
        return HessianSpectrum.from_extremes(self.mu, self.ell)

    def per_sample_gradients(self, x: np.ndarray) -> np.ndarray:
        """Row i is sample i's gradient at x, shape (N, d)."""
        p = _sigmoid(self.features @ x)
        return (p - self.labels)[:, None] * self.features + self.nu * x

    def gather(self, indices: np.ndarray) -> tuple:
        """The batch's feature rows and labels; a (C, B) block of C batches
        gives (C, B, d) rows and (C, B) labels."""
        return self.features.take(indices, 0), self.labels.take(indices)

    @property
    def _gathered_per_sample(self) -> int:
        """Doubles `gather` reads per batch row: the feature row and label."""
        return self.dim + 1

    def batch_gradient(self, batch: tuple, x: np.ndarray) -> np.ndarray:
        """Mini-batch gradient at x, or at each row of a (K, d) stack x, from
        a `gather` result; a stack row gets the bits of its 1-D gradient."""
        features, labels = batch
        return _logistic_gradient(features, labels, self.nu, x)

    def minibatch_gradient(self, x: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return self.batch_gradient(self.gather(indices), x)

    def full_gradient(self, x: np.ndarray) -> np.ndarray:
        return _logistic_gradient(self.features, self.labels, self.nu, x)

    def hessian_at(self, x: np.ndarray) -> np.ndarray:
        return _logistic_hessian(self.features, self.nu, x)

    def loss(self, x: np.ndarray) -> float:
        return _logistic_loss(self.features, self.labels, self.nu, x)

    def per_sample_loss(self, x: np.ndarray, i: int) -> float:
        z = float(self.features[i] @ x)
        return math.log1p(math.exp(-abs(z))) + max(z, 0.0) - self.labels[i] * z + 0.5 * self.nu * float(x @ x)


ProblemInstance = QuadraticProblem | LogisticProblem


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _logistic_gradient(features, labels, nu, x):
    """Mean logistic gradient at x, or at each row of a (K, d) stack x:
    numpy makes the same gemv call per row of a stacked matmul as for a
    1-D x, so each row is bit-identical to that x's own gradient."""
    p = _sigmoid(np.matmul(features, x[..., None])[..., 0])
    return np.matmul(features.T, (p - labels)[..., None])[..., 0] / features.shape[0] + nu * x


def _logistic_loss(features, labels, nu, x) -> float:
    z = features @ x
    return float(np.mean(np.logaddexp(0.0, z) - labels * z) + 0.5 * nu * x @ x)


def _logistic_hessian(features, nu, x) -> np.ndarray:
    """Hessian of the mean logistic loss at x."""
    w = _sigmoid(features @ x)
    w = w * (1.0 - w)
    return (features * w[:, None]).T @ features / features.shape[0] + nu * np.eye(features.shape[1])


def gradient_gram(grads: np.ndarray) -> tuple[float, np.ndarray]:
    """(sigma2, omega) of an (N, d) per-sample gradient array: the mean
    squared gradient norm and the gradient Gram normalized by N*sigma2.
    Where every gradient is zero, so is omega."""
    sigma2 = float(np.mean(np.sum(grads * grads, axis=1)))
    if sigma2 == 0.0:
        return sigma2, np.zeros((grads.shape[1], grads.shape[1]))
    return sigma2, grads.T @ grads / (grads.shape[0] * sigma2)


def _resolve_stream(seed) -> tuple[RngStream, int]:
    if isinstance(seed, RngStream):
        return seed, seed.seed
    return RngStream(int(seed)), int(seed)


def generate_quadratic(
    n_samples: int, dim: int, rho: float, diag_shift: float, seed
) -> QuadraticProblem:
    """Random quadratic family A_i = rho V_i'V_i + diag_shift I, b_i ~ N(0, I).

    Rows of each V_i are standard normal d-vectors. The minimizer solves
    sum(A_i) x = sum(b_i). mu/ell are the means over i of the extreme
    eigenvalues of A_i.
    """
    if n_samples < dim:
        raise ValueError("n_samples must be >= dim")
    if not 0.0 < diag_shift < math.inf:
        raise ValueError("diag_shift must be positive and finite")
    if not 0.0 <= rho < math.inf:
        raise ValueError("rho must be >= 0 and finite")
    stream, seed_val = _resolve_stream(seed)
    v = stream.standard_normal((n_samples, dim, dim))
    a_mats = rho * np.einsum("nij,nik->njk", v, v) + diag_shift * np.eye(dim)
    b_vecs = stream.standard_normal((n_samples, dim))
    return _quadratic_statistics(a_mats, b_vecs, seed=seed_val, rho=float(rho),
                                 diag_shift=float(diag_shift))


def _quadratic_statistics(a_mats: np.ndarray, b_vecs: np.ndarray, seed: int, rho: float,
                          diag_shift: float) -> QuadraticProblem:
    """The QuadraticProblem on (a_mats, b_vecs) with every derived field; the
    noise statistics come from its own per-sample gradients at x_star."""
    try:
        x_star = np.linalg.solve(a_mats.sum(axis=0), b_vecs.sum(axis=0))
    except np.linalg.LinAlgError as exc:  # diag_shift > 0 makes this unreachable
        raise RuntimeError("singular mean Hessian") from exc
    per_sample_ev = np.linalg.eigvalsh(a_mats)
    problem = QuadraticProblem(
        a_mats=a_mats,
        b_vecs=b_vecs,
        x_star=x_star,
        sigma_hat=a_mats.mean(axis=0),
        mu=float(per_sample_ev[:, 0].mean()),
        ell=float(per_sample_ev[:, -1].mean()),
        sigma2=math.nan,
        omega=None,
        seed=seed,
        rho=rho,
        diag_shift=diag_shift,
    )
    problem.sigma2, problem.omega = gradient_gram(problem.per_sample_gradients(x_star))
    return problem


class GenerationError(RuntimeError):
    pass


def _minimize_full_batch(features, labels, nu, tol=1e-10, max_iters=100_000):
    """Gradient descent at the fixed step 1 / max(1, L) to gradient norm <= tol.

    The sigmoid's slope is at most 1/4, so L = nu + lambda_max(F'F) / (4n)
    bounds the curvature of the mean loss and a step of at most 1/L descends
    at every iterate. The Gram F'F is d x d, so L costs one small
    eigensolve. Any convergent step sequence yields the same minimizer by
    strict convexity.
    """
    n, d = features.shape
    curvature = nu + np.linalg.eigvalsh(features.T @ features)[-1] / (4.0 * n)
    step = 1.0 / max(1.0, curvature)
    x = np.zeros(d)
    for it in range(max_iters):
        g = _logistic_gradient(features, labels, nu, x)
        if math.sqrt(float(g @ g)) <= tol:
            return x, it
        x = x - step * g
    gn = float(np.linalg.norm(_logistic_gradient(features, labels, nu, x)))
    raise GenerationError(
        f"full-batch descent did not reach gradient norm {tol} in {max_iters} "
        f"iterations (final norm {gn:.3e})"
    )


def generate_logistic(
    n_samples: int, dim: int, x_true: np.ndarray, nu: float, seed
) -> LogisticProblem:
    """Logistic family: a_i ~ N(0, I), labels Bernoulli(sigmoid(x_true'a_i)).

    The smoothness constants follow the per-sample curvature bounds:
    lbar = (sqrt(3)/6) mean ||a||^3 + nu, lf = mean ||a||^2 + nu.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 0.0 <= nu < math.inf:
        raise ValueError("nu must be >= 0 and finite")
    x_true = np.asarray(x_true, dtype=float)
    if x_true.shape != (dim,):
        raise ValueError("x_true must have shape (dim,)")
    stream, seed_val = _resolve_stream(seed)
    features = stream.standard_normal((n_samples, dim))
    labels = stream.bernoulli(_sigmoid(features @ x_true))
    x_star, _ = _minimize_full_batch(features, labels, nu)
    return _logistic_statistics(features, labels, nu, x_star, seed=seed_val)


def _logistic_statistics(features: np.ndarray, labels: np.ndarray, nu: float,
                         x_star: np.ndarray, seed: int) -> LogisticProblem:
    """The LogisticProblem with every derived field; refuses an instance
    whose Hessian at x_star is not positive definite."""
    sigma_at_star = _logistic_hessian(features, nu, x_star)
    ev = np.linalg.eigvalsh(sigma_at_star)
    if ev[0] <= 0:
        raise GenerationError(
            f"Hessian at the minimizer is not positive definite (lambda_min={ev[0]:.3e}); "
            "increase nu or n_samples"
        )
    norms = np.linalg.norm(features, axis=1)
    problem = LogisticProblem(
        features=features,
        labels=labels,
        nu=float(nu),
        x_star=x_star,
        sigma_at_star=sigma_at_star,
        mu=float(ev[0]),
        ell=float(ev[-1]),
        sigma2=math.nan,
        omega=None,
        lbar=float(math.sqrt(3.0) / 6.0 * np.mean(norms**3) + nu),
        lf=float(np.mean(norms**2) + nu),
        seed=seed,
    )
    problem.sigma2, problem.omega = gradient_gram(problem.per_sample_gradients(x_star))
    return problem
