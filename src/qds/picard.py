"""Construction of the semigroup by the iterated integral equation.

The n-th iterate is

    tau_n(x) at time t = E(t)^+ x E(t)
        + integral_0^t E(t-s)^+ Phi(tau_{n-1}(x) at s) E(t-s) ds,

with E(t) = exp(tY) and Phi(x) = sum_k L_k^+ x L_k.  For PSD x the
iterates increase monotonically to the semigroup, which provides an
independent construction to validate the superoperator exponential.
Both exponentials, the d x d E(h) on the grid and the d^2 x d^2 one it is
compared with, come from :func:`qds._linalg.expm`.

The integral is evaluated by fourth-order composite quadrature on a
uniform grid: Simpson, with a 3/8 block for odd prefixes, and a single
trapezoid step for the first node (its O(h^3) error enters later nodes
with an O(h) weight).  As E(kh) = E(h)^k, the running sums
R_j = sum_{n<=j} c_n E((j-n)h)^+ phi_n E((j-n)h) obey
R_j = E(h)^+ R_{j-1} E(h) + c_j phi_j, and each node's integral is read
off them, so one level costs O(steps) small matrix products.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import dagger, expm, hermitize, spectral_norm
from .errors import ConvergenceError, StructuralError
from .models import DEFAULT_TOL, KIND_LINDBLAD
from .spectral import check_time, evolve_heisenberg

__all__ = ["PicardTrace", "PicardResult", "picard_iterate", "picard_limit"]


@dataclass(frozen=True)
class PicardTrace:
    """Iterates tau_0(x)..tau_n(x) at a fixed time."""

    iterates: tuple
    t: float
    quadrature_steps: int


@dataclass(frozen=True)
class PicardResult:
    """Converged value at time t and the iterates tau_0(x)..tau_n(x)
    that led to it (n = ``n_used``)."""

    value: np.ndarray
    iterates: tuple
    n_used: int
    last_gap: float
    integral_residual: float
    exp_mismatch: float


def _final_weights(steps, h):
    """Weights of the composite rule over [0, t_steps] for steps >= 8."""
    w = np.zeros(steps + 1)
    m = steps - 3 * (steps % 2)
    w[0] = w[m] = h / 3.0
    w[1:m:2] = 4.0 * h / 3.0
    w[2:m:2] = 2.0 * h / 3.0
    if m < steps:
        w[m:] += np.array([3.0, 9.0, 9.0, 3.0]) * h / 8.0
    return w


class _PicardGrid:
    def __init__(self, model, x, t, steps, tol):
        if model.kind != KIND_LINDBLAD:
            raise StructuralError("Picard scheme is continuous-time only")
        check_time(t)
        if not (isinstance(steps, (int, np.integer)) and steps >= 8):
            raise StructuralError("steps must be an integer >= 8")
        x = np.asarray(x, dtype=complex)
        if x.shape != (model.dim, model.dim):
            raise StructuralError("operand shape does not match the model")
        if spectral_norm(x - dagger(x)) > tol.alg_tol:
            raise StructuralError("Picard iteration expects a hermitian operand")

        self.model = model
        self.x = hermitize(x)
        self.t = float(t)
        self.steps = int(steps)
        self.h = self.t / self.steps
        self.jumps = list(model.lindblad_ops)

        d = model.dim
        e_step = expm(self.h * model.drift)
        cells = [np.eye(d, dtype=complex)]
        for _ in range(self.steps):
            cells.append(cells[-1] @ e_step)
        self.e = np.stack(cells)                      # e[k] = exp(k h Y)
        self.edag = np.conj(np.transpose(self.e, (0, 2, 1)))
        self.t0 = self.edag @ self.x @ self.e
        self.weights = _final_weights(self.steps, self.h)

    def phi(self, table):
        acc = np.zeros_like(table)
        for l in self.jumps:
            acc += dagger(l) @ table @ l
        return acc

    def carry(self, k, table):
        return self.edag[k] @ table @ self.e[k]

    def next_level(self, table):
        phi = self.phi(table)
        h = self.h
        # the running sums R_j, with c_n = h/3, then 4h/3 odd and 2h/3 even
        simpson = (2.0 * h / 3.0) * phi
        simpson[1::2] *= 2.0
        simpson[0] /= 2.0
        e, edag = self.e[1], self.edag[1]
        for j in range(1, self.steps + 1):
            simpson[j] += edag @ simpson[j - 1] @ e
        simpson -= (h / 3.0) * phi          # even j: Simpson over [0, t_j]
        out = self.t0 + simpson
        # odd j >= 3: Simpson to t_{j-3} carried on by E(3h), then 3/8
        odd = np.arange(3, self.steps + 1, 2)
        out[odd] = (self.t0[odd]
                    + self.carry(3, simpson[odd - 3]
                                 + (3.0 * h / 8.0) * phi[odd - 3])
                    + (9.0 * h / 8.0) * (self.carry(2, phi[odd - 2])
                                         + self.carry(1, phi[odd - 1]))
                    + (3.0 * h / 8.0) * phi[odd])
        out[1] = self.t0[1] + (h / 2.0) * (self.carry(1, phi[0]) + phi[1])
        return out

    def integral_residual(self, table):
        """Residual of the fixed-point integral equation at the final time,
        by direct quadrature: the check of :meth:`next_level`'s sums."""
        phi = self.phi(table)
        integral = np.einsum("n,nab->ab", self.weights,
                             self.edag[::-1] @ phi @ self.e[::-1])
        return spectral_norm(table[-1] - self.t0[-1] - integral)


def picard_iterate(model, x, t, n, steps=64, tol=DEFAULT_TOL):
    """Iterates tau_0(x)..tau_n(x) at time t on a ``steps``-interval grid.

    For PSD x the trace is monotone non-decreasing in operator order and
    bounded by ||x||.
    """
    if n < 0:
        raise StructuralError("n must be >= 0")
    grid = _PicardGrid(model, x, t, steps, tol)
    table = grid.t0
    iterates = [hermitize(table[-1])]
    for _ in range(int(n)):
        table = grid.next_level(table)
        iterates.append(hermitize(table[-1]))
    return PicardTrace(iterates=tuple(iterates), t=grid.t,
                       quadrature_steps=grid.steps)


def picard_limit(model, x, t, tol=DEFAULT_TOL, max_n=60, steps=256):
    """Fixed point of the integral equation at time t.

    Iterates until the level gap drops below ``conv_tol`` and the
    integral-equation residual below ten times it; reports the mismatch
    against the superoperator-exponential route alongside the value.
    """
    if not (isinstance(max_n, (int, np.integer)) and max_n >= 1):
        raise StructuralError("max_n must be an integer >= 1")
    grid = _PicardGrid(model, x, t, steps, tol)
    table = grid.t0
    iterates = [hermitize(table[-1])]
    gap = np.inf
    n_used = 0
    residual = np.inf
    for n in range(1, int(max_n) + 1):
        new = grid.next_level(table)
        gap = spectral_norm(new[-1] - table[-1])
        table = new
        iterates.append(hermitize(table[-1]))
        n_used = n
        if gap <= tol.conv_tol:
            residual = grid.integral_residual(table)
            if residual <= 10 * tol.conv_tol:
                break
    else:
        raise ConvergenceError(
            f"Picard iteration did not converge in {max_n} levels "
            f"(last gap {gap:.3g})")

    value = iterates[-1]
    mismatch = spectral_norm(value - evolve_heisenberg(model, x, t=t, tol=tol))
    return PicardResult(value=value, iterates=tuple(iterates), n_used=n_used,
                        last_gap=float(gap),
                        integral_residual=float(residual),
                        exp_mismatch=float(mismatch))
