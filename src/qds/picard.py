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
uniform grid (Simpson, with a 3/8 block for odd prefixes and a single
trapezoid step for the first node); level n-1 values are cached on the
grid and reused, so one level costs O(steps^2) small matrix products.
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


def _prefix_weights(steps, h):
    """Quadrature weights for the integrals over [0, t_j], j = 0..steps.

    Composite Simpson for even prefixes; Simpson plus a closing 3/8 block
    for odd ones; a single trapezoid for j = 1 (its O(h^3) local error
    enters later prefixes with an O(h) weight, preserving fourth order).
    """
    table = [np.zeros(1)]
    for j in range(1, steps + 1):
        w = np.zeros(j + 1)
        if j == 1:
            w[0] = w[1] = h / 2.0
        elif j % 2 == 0:
            w[0] = w[j] = h / 3.0
            w[1:j:2] = 4.0 * h / 3.0
            w[2:j:2] = 2.0 * h / 3.0
        else:
            m = j - 3
            if m > 0:
                w[0] = h / 3.0
                w[1:m:2] = 4.0 * h / 3.0
                w[2:m:2] = 2.0 * h / 3.0
                w[m] = h / 3.0
            w[m] += 3.0 * h / 8.0
            w[m + 1] += 9.0 * h / 8.0
            w[m + 2] += 9.0 * h / 8.0
            w[j] += 3.0 * h / 8.0
        table.append(w)
    return table


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
        self.t0 = np.einsum("nab,bc,ncd->nad", self.edag, self.x, self.e)
        self.weights = _prefix_weights(self.steps, self.h)

    def phi(self, table):
        acc = np.zeros_like(table)
        for l in self.jumps:
            acc += np.einsum("ab,nbc,cd->nad", dagger(l), table, l)
        return acc

    def next_level(self, table):
        phi = self.phi(table)
        out = np.empty_like(table)
        out[0] = self.t0[0]
        for j in range(1, self.steps + 1):
            integral = np.einsum("n,nab,nbc,ncd->ad", self.weights[j],
                                 self.edag[j::-1], phi[: j + 1], self.e[j::-1])
            out[j] = self.t0[j] + integral
        return out

    def integral_residual(self, table):
        """Residual of the fixed-point integral equation at the final time."""
        phi = self.phi(table)
        j = self.steps
        integral = np.einsum("n,nab,nbc,ncd->ad", self.weights[j],
                             self.edag[j::-1], phi, self.e[j::-1])
        return spectral_norm(table[j] - self.t0[j] - integral)


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
