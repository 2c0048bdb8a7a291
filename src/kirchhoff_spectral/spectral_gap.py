"""Spectral-tail membership tests and the two-piece band decomposition.

Membership in the tail-smallness class asks, for each threshold rho_n, that
sum over lambda_k > rho_n of lambda_k^(4 alpha) u_k^2 exp(rho_n^beta
phi(lambda_k)) stays below rho_n.  The decomposition splits a datum into two
vectors supported on alternating eigenvalue bands [s_j, s_{j+1}), in one pass
over the edges: each edge is the least value on a factor-sqrt(2) ladder that
certifies the tail beyond it, and each band goes to its part as it closes
(a band without data is gap).  An edge that is not finite, or not above the
last, raises InsufficientDecayError.  Each part's thresholds are the right
endpoints of its own bands: beyond such an endpoint the part has no support
until the following band, which the greedy step bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDecayError, NormOverflowError, PreconditionError
from .functions import FunctionSpec, weight_values
from .norms import _weighted_sums, gevrey_norm
from .spectrum import SpectralVector, Spectrum, require_shared_spectrum

_SQRT2 = math.sqrt(2.0)
R_PROBE = 1.0  # radius of sum_decompose's weighted-class probe


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    margins: np.ndarray  # rho_n - tail_n, -inf where a tail overflowed
    tails: np.ndarray


def gm_membership(
    u: SpectralVector, phi: FunctionSpec, rhos, alpha: float, beta: float
) -> MembershipReport:
    """Check the per-threshold tail conditions for one component vector.

    ``rhos`` must be nonempty, positive, finite and increasing, and alpha and
    beta nonnegative: beta = 2 matches the strictly hyperbolic global theory,
    beta = 3 the weakly hyperbolic one.  A tail term that overflows the
    exponent cap with a nonzero component makes that tail infinite, hence the
    vector a non-member; no error is raised.
    """
    rhos = [float(rho) for rho in rhos]
    # written so that NaN fails: nonempty, positive, increasing, finite at the last
    if not (rhos and 0.0 < rhos[0] and rhos[-1] < math.inf
            and all(a < b for a, b in zip(rhos, rhos[1:]))):
        raise PreconditionError(
            "rho thresholds must be nonempty, positive, finite and increasing")
    if not (alpha >= 0.0 and beta >= 0.0):
        raise PreconditionError("alpha and beta must be nonnegative")
    lam = u.spectrum.lambdas
    rhos = np.asarray(rhos)
    phi_at = weight_values(phi, lam)
    with np.errstate(over="ignore"):  # an infinite weight makes an infinite tail
        # float64 scalar power: libm's pow, as Python's float power, but an
        # overflow gives +inf; the SIMD np.power can differ in the last bit
        scales = np.array([np.float64(rho) ** beta for rho in rhos])
        weight = np.where(lam > rhos[:, None], scales[:, None] * phi_at, -math.inf)
    tails, _ = _weighted_sums(u.components, lam, alpha, weight)
    return MembershipReport(
        member=bool(np.all(tails <= rhos)), margins=rhos - tails, tails=tails
    )


@dataclass(frozen=True)
class Decomposition:
    """Two spectral-gap pieces reconstructing a datum exactly.

    Components are copied, never recomputed, so bar + hat = original holds
    with no floating-point error and the two supports are disjoint.
    """

    spectrum: Spectrum
    u0_bar: SpectralVector
    u1_bar: SpectralVector
    u0_hat: SpectralVector
    u1_hat: SpectralVector
    s_values: tuple
    bar_bands: tuple
    hat_bands: tuple
    rho_bar: tuple
    rho_hat: tuple
    alpha: float
    beta: float
    phi: FunctionSpec

    def membership_reports(self):
        """Tail reports for all four part/exponent combinations."""
        out = {}
        pairs = (
            ("bar_u0", self.u0_bar, self.rho_bar, self.alpha + 0.5),
            ("bar_u1", self.u1_bar, self.rho_bar, self.alpha),
            ("hat_u0", self.u0_hat, self.rho_hat, self.alpha + 0.5),
            ("hat_u1", self.u1_hat, self.rho_hat, self.alpha),
        )
        for name, vec, rhos, alpha in pairs:
            out[name] = gm_membership(vec, self.phi, rhos, alpha, self.beta)
        return out

    def all_member(self) -> bool:
        return all(r.member for r in self.membership_reports().values())


def sum_decompose(
    u0: SpectralVector,
    u1: SpectralVector,
    phi: FunctionSpec,
    alpha: float,
    beta: float,
) -> Decomposition:
    """Split (u0, u1) into two spectral-gap pieces in the tail class.

    The datum must lie numerically in the weighted class: its weighted norms
    at the probe radius must evaluate without overflow (u0 at exponent
    alpha + 1/2, u1 at alpha), otherwise ``InsufficientDecayError``.

    Band edges s_0 < s_1 < ... grow on a factor-sqrt(2) ladder: given s_n,
    the next edge is the smallest ladder value such that the whole tail at
    or beyond it satisfies the membership inequality with threshold s_n, at
    both data exponents.  The u-part of each piece is then certified at
    exponent alpha + 1/2 and the u'-part at alpha, with thresholds the right
    endpoints of the piece's own bands.
    """
    spec = require_shared_spectrum(u0, u1)
    lam = spec.lambdas
    c0 = u0.components
    c1 = u1.components

    try:
        gevrey_norm(u0, phi, R_PROBE, alpha + 0.5)
        gevrey_norm(u1, phi, R_PROBE, alpha)
    except NormOverflowError as exc:
        raise InsufficientDecayError(
            f"datum is not in the weighted class at probe radius {R_PROBE:g}: {exc}"
        ) from exc

    support = (c0 != 0.0) | (c1 != 0.0)
    phi_at = weight_values(phi, lam)  # an infinite weight makes an infinite tail

    def tails_ok(rho: float, cut: float) -> bool:
        with np.errstate(over="ignore"):
            w = np.where(lam >= cut, np.float64(rho) ** beta * phi_at, -math.inf)
        (t0,), _ = _weighted_sums(c0, lam, alpha + 0.5, w)
        (t1,), _ = _weighted_sums(c1, lam, alpha, w)
        return t0 <= rho and t1 <= rho

    def climb(rho: float, value: float) -> float:
        # every edge is finite and above the last; 5e-324 * sqrt(2) is 5e-324
        up = value * _SQRT2
        if not value < up < math.inf:
            # a zero datum searches no band: only hat's fallback climbs
            raise InsufficientDecayError(
                f"band search diverged above threshold {rho:g} at exponent beta = {beta:g}"
                if s_values else f"the fallback threshold max(lambda_max, 1) * sqrt(2) = "
                                 f"{rho:g} * sqrt(2) leaves the float range")
        return up

    # the nonempty bands alternate bar, hat, bar, ...; a zero datum has no
    # support, hence no edges and no bands
    masks = np.zeros((2, spec.n), dtype=bool)
    bands = ([], [])
    supported = lam[support]  # nondecreasing, as lam
    s_values = [float(supported[0])] if supported.size else []
    while s_values and s_values[-1] <= supported[-1]:
        rho = s_values[-1]
        if rho == 0.0:
            # a zero eigenvalue carries data; close its band at the first
            # positive eigenvalue (no tail condition is consumed at rho = 0)
            positive = lam[lam > 0.0]
            edge = float(positive[0]) if positive.size else 1.0
        else:
            edge = climb(rho, rho)
            while not tails_ok(rho, edge):
                edge = climb(rho, edge)
        in_band = support & (lam >= rho) & (lam < edge)
        if in_band.any():
            side = len(bands[0]) - len(bands[1])  # 0 on bar's turn, 1 on hat's
            masks[side] |= in_band
            bands[side].append((rho, edge))
        s_values.append(edge)
    if s_values:
        # one trailing edge so the part owning the last band still has a
        # following greedy bound and both threshold lists clear the spectrum
        s_values.append(climb(s_values[-1], s_values[-1]))
    # without data the thresholds start at max(lambda_max, 1)
    last = s_values[-1] if s_values else max(spec.lambda_max, 1.0)

    def part(mask: np.ndarray, comp: np.ndarray) -> SpectralVector:
        out = np.zeros(spec.n)
        out[mask] = comp[mask]
        return SpectralVector(spec, out)

    rho_bar = tuple(hi for _, hi in bands[0]) or (last,)
    rho_hat = tuple(hi for _, hi in bands[1]) or (climb(last, last),)

    return Decomposition(
        spectrum=spec,
        u0_bar=part(masks[0], c0),
        u1_bar=part(masks[0], c1),
        u0_hat=part(masks[1], c0),
        u1_hat=part(masks[1], c1),
        s_values=tuple(s_values),
        bar_bands=tuple(bands[0]),
        hat_bands=tuple(bands[1]),
        rho_bar=rho_bar,
        rho_hat=rho_hat,
        alpha=alpha,
        beta=beta,
        phi=phi,
    )
