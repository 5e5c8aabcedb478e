"""Non-intrusive reduced-order modeling by POD with interpolation.

Snapshots of a field at sampled parameter values are compressed to a
small orthonormal basis (one thin SVD of W^(1/2) S, with W the
quadrature weights), the modal coefficients are interpolated over the
parameter, and new parameter points are evaluated by expanding the
interpolated coefficients in the basis.

The parameter is one scalar (the pump flow rate), so both interpolants
are a few numpy lines over the sorted training parameters x_0 < ... <
x_{n-1}, and each evaluates all k modal coefficients in one call:

- ``linear``: piecewise linear. A query finds its interval with
  ``searchsorted``, and the coefficients are ``slope * (x - x_lo) + c_lo``
  with the interval's slope fixed at training time. This is
  ``scipy.interpolate.interp1d``'s arithmetic, so the numbers agree bit
  for bit. It does not extrapolate.
- ``rbf``: the 1D thin-plate spline, phi(r) = r^2 log r with phi(0) = 0,
  plus a degree-1 polynomial in (x - shift) / scale, where shift is the
  midpoint of the parameter range and scale its half-width. The
  (n + 2) x (n + 2) saddle-point system [[Phi, P], [P^T, 0]] is solved
  once for all modes. This is ``RBFInterpolator(kernel=
  "thin_plate_spline")`` up to the round-off of the solve; it
  extrapolates with the polynomial part.

Neither needs ``scipy.interpolate``, whose import also loads
``scipy.optimize`` and ``scipy.spatial``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (DegenerateInputError, ExtrapolationError,
                     InvalidArgumentError)

INTERPOLATION_KINDS = ("linear", "rbf")


@dataclass
class SnapshotSet:
    """Field snapshots as columns of S, one per parameter point.

    ``weight`` holds per-degree-of-freedom quadrature weights (cell
    volumes or face areas); when present all inner products are weighted
    so truncation optimality is in the discrete L2 norm.
    """

    S: np.ndarray                    # (N, N_s)
    params: np.ndarray               # (N_s,)
    field_name: str = "field"
    weight: Optional[np.ndarray] = None

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        self.params = np.asarray(self.params, dtype=float)
        if self.S.ndim != 2:
            raise InvalidArgumentError("snapshot matrix must be 2-D")
        if self.S.shape[1] != self.params.size:
            raise InvalidArgumentError("one parameter per snapshot column required")
        if self.S.size == 0:
            raise InvalidArgumentError("empty snapshot set")
        if not np.isfinite(self.S).all():
            raise InvalidArgumentError(
                f"snapshot matrix of {self.field_name!r} is not finite")
        if len(np.unique(self.params)) != self.params.size:
            raise InvalidArgumentError("parameters must be pairwise distinct")
        if self.weight is not None:
            self.weight = np.asarray(self.weight, dtype=float)
            if self.weight.shape != (self.S.shape[0],):
                raise InvalidArgumentError("one weight per degree of freedom required")
            if not (np.isfinite(self.weight).all() and (self.weight > 0).all()):
                raise InvalidArgumentError("weights must be positive and finite")


@dataclass
class PodBasis:
    modes: np.ndarray            # (N, k), W-orthonormal columns
    singular_values: np.ndarray  # (N_s,), descending, zero-padded
    energy_fraction: float
    weight: Optional[np.ndarray] = None

    @property
    def k(self):
        return self.modes.shape[1]

    def project(self, X):
        """Modal coefficients of columns of X: U_k^T W X."""
        X = np.asarray(X, dtype=float)
        if self.weight is not None:
            X = self.weight[:, None] * X if X.ndim > 1 else self.weight * X
        return self.modes.T @ X


def cumulative_energy(singular_values):
    """Normalized partial sums of squared singular values."""
    sv = np.asarray(singular_values, dtype=float)
    if sv.size == 0:
        raise InvalidArgumentError("empty singular value list")
    if np.any(sv < 0) or np.any(np.diff(sv) > 1e-12 * max(sv[0], 1.0)):
        raise InvalidArgumentError("singular values must be non-negative descending")
    en = np.cumsum(sv**2)
    if en[-1] == 0.0:
        raise DegenerateInputError("all singular values are zero")
    return en / en[-1]


def pod_basis(snapshots: SnapshotSet, energy_threshold=0.999):
    """POD basis from one thin SVD of W^(1/2) S.

    The modes are the leading left-singular vectors scaled back by
    W^(-1/2), so they are W-orthonormal. ``singular_values`` is padded
    with zeros to one value per snapshot. The basis keeps the smallest k
    whose cumulative energy reaches the threshold; at threshold 1 it keeps
    the numerical rank (singular values above 1e-12 of the largest), and
    never keeps a numerically null direction.
    """
    if not 0.0 < energy_threshold <= 1.0:
        raise InvalidArgumentError("energy threshold must be in (0, 1]")
    S = snapshots.S
    w = snapshots.weight
    sw = 1.0 if w is None else np.sqrt(w)[:, None]
    U, sv, _ = np.linalg.svd(sw * S, full_matrices=False)
    if sv[0] == 0.0:
        raise DegenerateInputError("all-zero snapshot matrix")
    sv = np.pad(sv, (0, S.shape[1] - sv.size))
    en = cumulative_energy(sv)
    rank = max(int(np.sum(sv > sv[0] * 1e-12)), 1)
    k = rank if energy_threshold >= 1.0 else min(
        int(np.searchsorted(en, energy_threshold - 1e-14) + 1), rank)
    U = U[:, :k] / sw
    # deterministic sign: largest-magnitude entry of each mode positive
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(k)])
    signs[signs == 0] = 1.0
    U *= signs
    return PodBasis(U, sv, float(en[k - 1]), weight=w)


@dataclass
class RomModel:
    """Trained per-field ROM: basis + interpolated modal coefficients."""

    basis: PodBasis
    coefficients: np.ndarray     # (k, N_s)
    params: np.ndarray           # (N_s,) sorted
    interpolation_kind: str
    field_name: str = "field"
    _interp: object = field(default=None, repr=False, compare=False)

    @property
    def param_box(self):
        return float(self.params.min()), float(self.params.max())

    def _interpolant(self):
        if self._interp is None:
            build = (_linear if self.interpolation_kind == "linear"
                     else _thin_plate)
            self._interp = build(self.params, self.coefficients)
        return self._interp

    def _check_box(self, pi):
        lo, hi = self.param_box
        if not lo <= pi <= hi:
            raise ExtrapolationError(
                f"parameter {pi} outside training box [{lo}, {hi}]")

    def coeffs_at(self, pi):
        """The (k,) modal coefficients at ``pi``; only ``rbf`` models
        extrapolate."""
        pi = _finite(pi)
        if self.interpolation_kind == "linear":
            self._check_box(pi)
        return self._interpolant()(pi)

    def predict(self, pi, allow_extrapolation=False):
        """The field at ``pi``. Outside the training box it is refused
        unless ``allow_extrapolation``: then ``rbf`` extrapolates and
        ``linear`` returns the field at the nearest box edge."""
        pi = _finite(pi)
        if not allow_extrapolation:
            self._check_box(pi)
        elif self.interpolation_kind == "linear":
            lo, hi = self.param_box
            pi = min(max(pi, lo), hi)
        return self.basis.modes @ self._interpolant()(pi)


def _finite(pi):
    pi = float(pi)
    if not math.isfinite(pi):
        raise InvalidArgumentError(f"parameter {pi} is not finite")
    return pi


def _linear(x, C):
    """Piecewise-linear interpolant of the columns of C (k, n) over the
    sorted x (n,), for a query inside [x_0, x_{n-1}]."""
    slope = np.diff(C, axis=1) / np.diff(x)
    last = len(x) - 1

    def at(pi):
        lo = min(max(int(np.searchsorted(x, pi)), 1), last) - 1
        return slope[:, lo] * (pi - x[lo]) + C[:, lo]
    return at


def _tps(r):
    """The thin-plate kernel r^2 log r, 0 at r = 0."""
    return r * r * np.log(r, out=np.zeros_like(r), where=r > 0.0)


def _thin_plate(x, C):
    """Thin-plate spline with a degree-1 polynomial tail through the
    columns of C (k, n) at the sorted x (n,)."""
    n = len(x)
    shift, scale = (x[0] + x[-1]) / 2.0, (x[-1] - x[0]) / 2.0
    P = np.column_stack([np.ones(n), (x - shift) / scale])
    A = np.zeros((n + 2, n + 2))
    A[:n, :n] = _tps(np.abs(x[:, None] - x))
    A[:n, n:] = P
    A[n:, :n] = P.T
    rhs = np.zeros((n + 2, C.shape[0]))
    rhs[:n] = C.T
    w = np.linalg.solve(A, rhs).T           # (k, n + 2)

    def at(pi):
        return w @ np.concatenate([_tps(np.abs(pi - x)),
                                   [1.0, (pi - shift) / scale]])
    return at


def train(snapshots: SnapshotSet, energy_threshold=0.999,
          interpolation_kind="linear"):
    """Build the basis, project the modal coefficients and fit the
    per-mode interpolants over the training parameters."""
    if interpolation_kind not in INTERPOLATION_KINDS:
        raise InvalidArgumentError(
            f"unknown interpolation kind {interpolation_kind!r}")
    if snapshots.params.size < 2:
        raise InvalidArgumentError("need at least 2 snapshots to interpolate")
    order = np.argsort(snapshots.params)
    S = snapshots.S[:, order]
    params = snapshots.params[order]
    basis = pod_basis(SnapshotSet(S, params, snapshots.field_name,
                                  snapshots.weight), energy_threshold)
    C = basis.project(S)
    return RomModel(basis, C, params, interpolation_kind,
                    snapshots.field_name)


def format_error_table(table, fields):
    """Render {parameter: {field: E%}} as an aligned text table, one row
    per parameter in ascending order and one column per name in
    ``fields``."""
    lines = ["parameter  " + "  ".join(f"{f:>10s}" for f in fields)]
    for pi in sorted(table):
        lines.append(f"{pi:9.4g}  "
                     + "  ".join(f"{table[pi][f]:9.3f}%" for f in fields))
    return "\n".join(lines)
