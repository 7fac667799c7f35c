"""Single-quadrature covariance reconstruction.

Each mode pair rotates in phase space at its own frequency,

    phi_m(t) = phi_m(0) cos(w_m t) + eta_m(0) sin(w_m t),
    eta_m(t) = eta_m(0) cos(w_m t) - phi_m(0) sin(w_m t),

so an equal-time two-point function of a single quadrature carries beat
notes at |w_m - w_n| and w_m + w_n whose amplitudes are linear in the
initial mode covariances.  Sampling one two-point function over time and
regressing those trigonometric amplitudes therefore recovers the full
initial momentum-space covariance (Q~, P~, R~).  This is the free-evolution
readout of Gluza et al., Commun. Phys. 3, 12 (2020).

The field-field model, with mode prefactor c / (K sqrt(w_m w_n)) and
sampled mode functions G, reads

    <phi_i phi_j>(t) = sum_mn pref * G_mi G_nj *
        [cos(w_m t) cos(w_n t) Q~_mn + sin(w_m t) sin(w_n t) P~_mn]
        + pref * (G_mi G_nj + G_ni G_mj) cos(w_m t) sin(w_n t) R~_mn,

and the momentum-momentum model swaps Q~ <-> P~, inverts the prefactor
and flips the sign of the R~ term (both follow directly from the rotation
above).  Because G has orthonormal rows, conjugating a measured sample
with G and the inverse prefactors recovers the mode-space observable
Y_mn(t) exactly, and the regression decouples into one least-squares
problem per mode pair.  With c_m = cos(w_m t) and s_m = sin(w_m t), pair
(m, n) of the field quadrature has the design columns

    c_m c_n, s_m s_n, c_m s_n, s_m c_n    for    Q~_mn, P~_mn, R~_mn, R~_nm;

its rows for (m, n) and (n, m) coincide, so it fits the symmetric part of
Y.  The momentum quadrature swaps c and s and flips the sign of R~.

`fit_covariance` solves the normal equations A^T A x = A^T y of every pair
at once, in the unknowns Q~_mn, P~_mn and (R~_mn +- R~_nm) / sqrt(2), with
columns c_m c_n, s_m s_n and (c_m s_n +- s_m c_n) / sqrt(2); this change of
unknowns is orthonormal and leaves cond(A) unchanged.  Each entry of A^T A
is an entry of one of six n x n time sums such as (C^2)^T C^2; A^T y
accumulates a batch of samples at a time.  On the diagonal and on pairs with
degenerate frequencies (w_m = w_n, generic on square grids) the
antisymmetric column vanishes: there is no beat note and R~_mn - R~_nm is
unidentifiable.  Its unknown is pinned to zero, which sets R~_mn = R~_nm
(exact on the diagonal): its row, column and right-hand side are zeroed and
its diagonal entry copies the symmetric part's, which lies within the
eigenvalue range of the rest and so keeps cond(A).  Degenerate off-diagonal
pairs are reported in `unidentifiable_pairs`; a pair whose A^T A has a
condition number of at least RANK_COND (cond(A) >= 1e6) is rank deficient.

G is a row permutation of K = Bx (x) By (see `geometry`), so the fit runs in
K's row order, mode (mx, my) at row mx ny + my and w = 0 on the rows of
modes G lacks; the gather back to mode order and D^-1 are applied once, to
the sums.  Its one transform is the half transform K M on M's row index,
By then Bx, one axis at a time (`_half`).  A sample M is exactly
symmetric, so Y~ = K M K^T = K (K M)^T takes two of them and a transpose
that the second reads in place (`_conjugate`).  Over a batch of times, the
right-hand sides sum_t c_k c_l Y~_kl, sum_t c_k s_l Y~_kl and
sum_t s_k s_l Y~_kl are contractions over t of Y~ c_l and Y~ s_l with c_k
and s_k: two Hadamard products per sample.  Y~(t) is symmetric to
round-off and is not symmetrised.

The residual compares each sample with the model Y of the fitted blocks,
folded once into D Q~ D, D P~ D and D R~ D in K's row order: K is
orthogonal, so |M - K^T Y K| = |Y~ - Y|, and the second pass transforms
each batch of samples as the first does, from one generator of phases and
Y~.  Y is built as c_k u + s_k v with u = Q c_l + R s_l and
v = P s_l + R^T c_l and is not transformed (`_model`).  Synthesis of a
state other than the thermal one builds the same model and takes it to
the pixel lattice as K^T Y K (`_pixel_observable`).

A sample is symmetric, so a series keeps only its upper triangle: one row
of n_pix (n_pix + 1) / 2 entries per time, in np.triu_indices(n_pix) order.
On the thermal mode state (diagonal, R~ = 0), synthesis writes the packed
entries (i, j) of every sample as the (n_times, n_modes) weights y(t)
times dg[:, i] dg[:, j]: one GEMM per block of pair columns and of times,
each block sized from _CHUNK_BYTES.  The fit unpacks one batch of samples
at a time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficiencyError
from .gaussian import CovarianceMatrix, MOMENTUM, _mode_prefactors
from .physics import DerivedParams

FIELD = "field"
MOMENTUM_QUADRATURE = "momentum"

DEGENERACY_RTOL = 1e-9
RANK_COND = 1e12         # cond(A^T A) at which a pair's design counts as rank deficient

# sampling rules of `suggested_times`
NYQUIST_FACTOR = 4.0     # dt <= pi / (NYQUIST_FACTOR * w_max)
SPAN_CYCLES = 2.0        # span in periods of the smallest nonzero frequency gap

_CHUNK_BYTES = 1 << 20    # bytes of samples, phases or GEMM operands per step


def _checked_times(times) -> np.ndarray:
    """Sample times as floats; raises unless they are finite and strictly increasing."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0):
        raise ValueError("sample times must be finite and strictly increasing")
    return times


def _finite_scale(block: np.ndarray) -> float:
    """Largest absolute entry; raises unless every entry is finite."""
    scale = max(block.max(), -block.min())   # NaN or inf anywhere shows here
    if not np.isfinite(scale):
        raise ValueError("two-point samples must be finite")
    return float(scale)


def _unpack_index(n_pix: int) -> np.ndarray:
    """Packed position of each entry (i, j) of an n_pix x n_pix sample, in
    row-major order."""
    index = np.empty((n_pix, n_pix), dtype=np.intp)
    iu = np.triu_indices(n_pix)
    index[iu] = index.T[iu] = np.arange(iu[0].size)
    return index.ravel()


def _rows(row_bytes: int) -> int:
    """Rows of `row_bytes` bytes in one step of _CHUNK_BYTES, at least one."""
    return max(1, _CHUNK_BYTES // max(1, row_bytes))


class TwoPointSeries:
    """Time-stamped equal-time two-point samples of one quadrature.

    Takes full samples, (n_times, n_pix, n_pix), each symmetric to 1e-12
    of the largest entry, and keeps only their upper triangles: `packed`
    holds one read-only row of n_pix (n_pix + 1) / 2 entries per time, in
    np.triu_indices(n_pix) order.  `samples` unpacks them into a new full
    array on each read.
    """

    def __init__(self, quadrature: str, times, samples):
        times = _checked_times(times)
        samples = np.asarray(samples, dtype=float)
        if quadrature not in (FIELD, MOMENTUM_QUADRATURE):
            raise ValueError(f"unknown quadrature {quadrature!r}")
        if (samples.ndim != 3 or samples.shape[0] != times.size
                or samples.shape[1] != samples.shape[2]):
            raise ValueError("one square sample matrix per time stamp required")
        # one sweep over chunks of samples for both the scale and the skew
        chunk = _rows(samples.itemsize * samples.shape[1] ** 2)
        scale = skew = 0.0
        for lo in range(0, times.size, chunk):
            block = samples[lo:lo + chunk]
            scale = max(scale, _finite_scale(block))
            skew = max(skew, float(np.max(np.abs(block - block.transpose(0, 2, 1)))))
        if skew > 1e-12 * scale:
            raise ValueError("two-point samples must be symmetric to 1e-12 relative")
        iu, ju = np.triu_indices(samples.shape[1])
        self._keep(quadrature, times, samples[:, iu, ju])

    @classmethod
    def _from_packed(cls, quadrature: str, times: np.ndarray,
                     packed: np.ndarray) -> "TwoPointSeries":
        """A series of checked times and packed rows, symmetric by
        construction, so only their finiteness is checked."""
        _finite_scale(packed)
        series = cls.__new__(cls)
        series._keep(quadrature, times, packed)
        return series

    def _keep(self, quadrature, times, packed):
        packed.setflags(write=False)
        self.quadrature, self.times, self.packed = quadrature, times, packed

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def n_pixels(self) -> int:
        return (math.isqrt(8 * self.packed.shape[1] + 1) - 1) // 2

    @property
    def samples(self) -> np.ndarray:
        """The full samples, (n_times, n_pix, n_pix), built anew on each read."""
        n = self.n_pixels
        return np.take(self.packed, _unpack_index(n), axis=1).reshape(self.n_times, n, n)


@dataclass
class ReconstructionResult:
    qt: np.ndarray                      # recovered Q~(0)
    pt: np.ndarray                      # recovered P~(0)
    rt: np.ndarray                      # recovered R~(0)
    residual_rms: float                 # pixel-space model residual
    condition: float                    # largest per-pair cond(A)
    unidentifiable_pairs: list = field(default_factory=list)

    def gamma(self) -> CovarianceMatrix:
        return CovarianceMatrix.from_blocks(self.qt, self.pt, self.rt, MOMENTUM)


def _phases(omegas: np.ndarray, times: np.ndarray, quadrature: str):
    """cos(w_m t) and sin(w_m t), (n_times, omegas.size), swapped for the
    momentum quadrature as `_model` takes them."""
    phase = np.outer(times, omegas)
    c, s = np.cos(phase), np.sin(phase)
    return (c, s) if quadrature == FIELD else (s, c)


def _kron(basis):
    """Each mode's row of K = Bx (x) By (``ModeBasis.kron``, G = K[kron]), and
    the frequencies in K's row order, w = 0 on the rows of modes G lacks."""
    omegas = np.zeros(basis.grid.n_pixels)
    omegas[basis.kron] = basis.omegas
    return basis.kron, omegas


def _folded(block, d: np.ndarray, basis):
    """D B D of a mode-space block B in K's row order, zero on the rows and
    columns of modes G lacks; None (B = 0) stays None."""
    if block is None:
        return None
    kron, n_pix = _kron(basis)[0], basis.grid.n_pixels
    out = np.zeros((n_pix, n_pix))
    out[np.ix_(kron, kron)] = d[:, None] * block * d
    return out


def _half(m: np.ndarray, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """(Bx (x) By) M for each M of a stack (..., n_pix, n), on M's row index
    (i, a): By on the (..., nx, ny, n) view, then Bx on the (..., nx, ny n)
    view.  A transposed M is read in place."""
    nx, ny, n = bx.shape[0], by.shape[0], m.shape[-1]
    lead = m.shape[:-2]
    return (bx @ (by @ m.reshape(*lead, nx, ny, n)).reshape(*lead, nx, ny * n)).reshape(m.shape)


def _conjugate(m: np.ndarray, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """K M K^T for each symmetric M of a stack, K = Bx (x) By, as K (K M)^T:
    two half transforms and a transpose that the second reads in place."""
    return _half(_half(m, bx, by).transpose(0, 2, 1), bx, by)


def _batch(n_pix: int) -> int:
    """Times in one batch of samples: their two phase rows and four
    n_pix x n_pix arrays fill one step of _CHUNK_BYTES."""
    return _rows(8 * n_pix * (2 + 4 * n_pix))


def _model(q, p, r, c, s) -> np.ndarray:
    """The model Y(t), (batch, n_pix, n_pix), at each time of a batch with
    phases c and s (`_phases`), from blocks folded with D in K's row order,
    r=None for R = 0.  Y = C Q C + S P S + C R S + S R^T C is built as
    c_k u_kl + s_k v_kl, with u = Q c_l + R s_l and v = P s_l + R^T c_l; the
    momentum model takes the swapped phases and -R."""
    u, v = q * c[:, None, :], p * s[:, None, :]
    if r is not None:
        u += r * s[:, None, :]
        v += r.T * c[:, None, :]
    u *= c[:, :, None]
    v *= s[:, :, None]
    u += v
    return u


def _pixel_observable(q, p, r, basis, times: np.ndarray, quadrature: str):
    """K^T Y(t) K at each time in turn for the `_model` Y of folded blocks."""
    if r is not None and quadrature != FIELD:
        r = -r
    bxt, byt = (b.T for b in basis.axes)
    omegas, batch = _kron(basis)[1], _batch(basis.grid.n_pixels)
    for lo in range(0, times.size, batch):
        c, s = _phases(omegas, times[lo:lo + batch], quadrature)
        yield from _conjugate(_model(q, p, r, c, s), bxt, byt)


def _available_memory() -> int:
    """MemAvailable where /proc/meminfo gives it, else physical memory."""
    try:
        with open("/proc/meminfo") as fh:
            info = dict(line.split(":", 1) for line in fh)
        return int(info["MemAvailable"].split()[0]) * 1024
    except (OSError, KeyError, ValueError):
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def synth_two_point(gamma0: CovarianceMatrix, basis, derived: DerivedParams,
                    times, quadrature: str = FIELD, noise_sigma: float = 0.0,
                    seed: int = 0) -> TwoPointSeries:
    """Exact two-point series of the chosen quadrature, plus optional
    i.i.d. Gaussian noise on each independent matrix entry.

    The t-th sample equals the corresponding block of the freely evolved
    covariance transformed to the pixel lattice; the noise is drawn for
    each sample's upper triangle, in np.triu_indices order.  Packed samples
    larger than available memory raise ValueError before anything is
    allocated.  They are all it counts: beyond them `fit_covariance`'s
    working set is O(n_pix^2) plus one step of _CHUNK_BYTES, at any number
    of times.
    """
    if gamma0.labelling != MOMENTUM:
        raise ValueError("synthesis starts from a momentum-space covariance")
    if gamma0.n != basis.n_modes:
        raise ValueError("covariance dimension does not match the basis")
    if quadrature not in (FIELD, MOMENTUM_QUADRATURE):
        raise ValueError(f"unknown quadrature {quadrature!r}")
    if not 0 <= noise_sigma < np.inf:
        raise ValueError(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    times = _checked_times(times)
    n_pix = basis.grid.n_pixels
    n_pairs = n_pix * (n_pix + 1) // 2
    need = times.size * n_pairs * 8
    if need > _available_memory():
        raise ValueError(f"{times.size} samples of {n_pix}x{n_pix} pixels need {need} bytes, "
                         "more than the available memory")
    d = _mode_prefactors(basis, derived)[quadrature != FIELD]
    packed = np.empty((times.size, n_pairs))
    iu, ju = np.triu_indices(n_pix)
    if gamma0.diagonals is not None:
        c, s = _phases(basis.omegas, times, quadrature)
        q, p = gamma0.diagonals
        y = c * q * c + s * p * s      # (n_times, n_modes): Y(t) = diag(y(t))
        del c, s                       # not held beside the samples
        dg = d[:, None] * basis.sampled
        # blocks of pair columns whose factor fills one step, and of times
        # whose rows of y fill one step (one block of all times peaked higher
        # by about the size of y)
        cols = rows = _rows(8 * basis.n_modes)
        for lo in range(0, n_pairs, cols):
            # entries (i, j) of every sample: sum_m y_m(t) dg[m, i] dg[m, j]
            w = dg[:, iu[lo:lo + cols]] * dg[:, ju[lo:lo + cols]]
            for t0 in range(0, times.size, rows):
                np.matmul(y[t0:t0 + rows], w, out=packed[t0:t0 + rows, lo:lo + cols])
    else:
        q, p, r = (_folded(m, d, basis) for m in (gamma0.q_block, gamma0.p_block, gamma0._r))
        for row, m in zip(packed, _pixel_observable(q, p, r, basis, times, quadrature)):
            row[:] = 0.5 * (m[iu, ju] + m[ju, iu])
    if noise_sigma > 0:
        # drawn a chunk of samples at a time: the same stream, in the same
        # order, as one draw of (n_times, n_pairs)
        rng = np.random.default_rng(seed)
        chunk = _rows(8 * n_pairs)
        for lo in range(0, times.size, chunk):
            block = packed[lo:lo + chunk]
            block += rng.normal(0.0, noise_sigma, block.shape)
    return TwoPointSeries._from_packed(quadrature, times, packed)


def suggested_times(basis) -> np.ndarray:
    """Uniform time grid satisfying the sampling rules:
    dt <= pi / (NYQUIST_FACTOR * w_max) and a total span of SPAN_CYCLES
    full periods of the smallest nonzero frequency gap."""
    omegas = np.sort(np.unique(basis.omegas))
    gaps = np.diff(omegas)
    gaps = gaps[gaps > DEGENERACY_RTOL * omegas[-1]]
    if gaps.size == 0:
        raise ValueError("basis has no resolvable frequency gaps")
    span = SPAN_CYCLES * 2.0 * np.pi / gaps.min()
    dt = np.pi / (NYQUIST_FACTOR * omegas[-1])
    return np.arange(int(np.ceil(span / dt)) + 1) * dt


def _solve_pairs(sums: np.ndarray, d_inv: np.ndarray, omegas: np.ndarray,
                 field_quadrature: bool):
    """(Q~, P~, R~, largest cond(A), unidentifiable pairs) from the nine
    mode-order sums (cc, ss, xx, c_s, c_x, x_s, b_cc, b_ss, b_cs) of
    `fit_covariance`, the right-hand sides not yet scaled by D^-1: the
    normal equations of every pair, solved in one batch of 4 x 4 systems."""
    n = omegas.size
    cc, ss, xx, c_s, c_x, x_s, b_cc, b_ss, b_cs = sums
    b_cc, b_ss, b_cs = (d_inv[:, None] * b * d_inv for b in (b_cc, b_ss, b_cs))
    # gram[m, n, i, j] = sum_t f_i f_j
    gram = np.stack([np.stack([cc, xx, c_x, c_x.T], -1),
                     np.stack([xx, ss, x_s, x_s.T], -1),
                     np.stack([c_x, x_s, c_s, xx], -1),
                     np.stack([c_x.T, x_s.T, xx, c_s.T], -1)], -2)
    rhs = np.stack([b_cc, b_ss, b_cs, b_cs.T], -1)

    iu, ju = np.triu_indices(n)
    tied = np.abs(omegas[iu] - omegas[ju]) <= DEGENERACY_RTOL * omegas[-1]
    off = tied & (iu != ju)
    unidentifiable = list(zip(iu[off].tolist(), ju[off].tolist()))

    # rot maps (Q~, P~, R~_mn, R~_nm) to (Q~, P~, (R~_mn +- R~_nm) / sqrt(2)) and back
    h = np.sqrt(0.5)
    rot = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, h, h], [0, 0, h, -h]])
    a, b = rot @ gram[iu, ju] @ rot, rhs[iu, ju] @ rot
    # a tied pair has no antisymmetric column: pin that unknown to zero
    a[tied, 3, :] = a[tied, :, 3] = b[tied, 3] = 0.0
    a[tied, 3, 3] = a[tied, 2, 2]
    worst = np.linalg.cond(a).max()
    if not worst < RANK_COND:
        raise RankDeficiencyError(
            f"design condition number {np.sqrt(worst):.3g} >= {np.sqrt(RANK_COND):.0g}; "
            "add time samples spanning the slowest beat period")
    sol = np.linalg.solve(a, b[..., None])[..., 0] @ rot
    if not field_quadrature:
        sol[:, 2:] *= -1.0

    qt, pt, rt = np.zeros((3, n, n))
    qt[iu, ju] = qt[ju, iu] = sol[:, 0]
    pt[iu, ju] = pt[ju, iu] = sol[:, 1]
    rt[iu, ju], rt[ju, iu] = sol[:, 2], sol[:, 3]
    return qt, pt, rt, float(np.sqrt(worst)), unidentifiable


def fit_covariance(series: TwoPointSeries, basis, derived: DerivedParams) -> ReconstructionResult:
    """Least-squares recovery of (Q~, P~, R~) at t=0 from a two-point series.

    The first pass reads the Gram sums a chunk of phases at a time, and the
    right-hand sides a batch of samples at a time, as contractions over t
    of Y~ = K (K M)^T times one phase (module docstring), all in K's row
    order.  They are gathered to mode order once and solved in one batch of
    4 x 4 systems (`_solve_pairs`); diagonal and degenerate pairs pin the
    antisymmetric part of R~ to zero (R~_mn = R~_nm).  `condition` is the
    largest cond(A) over all pairs.  Raises RankDeficiencyError if any
    pair's cond(A^T A) reaches RANK_COND.  Neither pass reads G; beyond
    the series the working set is O(n_pix^2) plus one step of _CHUNK_BYTES,
    a chunk of phases or a batch of samples, each released before the next.

    `residual_rms` takes a second pass: |M - K^T Y K| = |Y~ - Y| for the
    model Y of the fitted (Q~, P~, R~), K being orthogonal, with Y~ read
    as in the first pass: two half transforms of each sample and none of
    its model.  The one-pass identity |y - A x|^2 =
    y^T y - 2 x^T A^T y + x^T A^T A x, summed in the A^T y loop, cannot stand
    in for it: its terms cancel to round-off.  On the noiseless 10 x 10
    Dirichlet series it came out negative, -1.2e-27, a residual rms of
    4.9e-18 by magnitude where the two passes give 3.4e-26.
    """
    if series.n_pixels != basis.grid.n_pixels:
        raise ValueError("series pixel count does not match the basis grid")
    field_quadrature = series.quadrature == FIELD
    d, d_inv = _mode_prefactors(basis, derived)
    if not field_quadrature:   # swap D and D^-1 (and cos and sin); `_solve_pairs` negates R~
        d, d_inv = d_inv, d
    n_pix, times = series.n_pixels, series.times
    kron, kron_omegas = _kron(basis)
    bx, by = basis.axes
    unpack = _unpack_index(n_pix)
    batch = _batch(n_pix)

    def transformed():   # (c, s, Y~ = K M K^T) for each batch of samples M in turn
        for lo in range(0, times.size, batch):
            c, s = _phases(kron_omegas, times[lo:lo + batch], series.quadrature)
            yield c, s, _conjugate(np.take(series.packed[lo:lo + batch], unpack, axis=1)
                                   .reshape(-1, n_pix, n_pix), bx, by)

    # Gram sums such as (C^2)^T C^2 over the columns f = (c_m c_n, s_m s_n,
    # c_m s_n, s_m c_n), a chunk of times at a time, then right-hand sides
    # sum_t f_i Y~_kl(t), a batch of samples at a time, read as contractions
    # over t of Y~ c_l and Y~ s_l, all in K's row order
    sums = np.zeros((9, n_pix, n_pix))
    cc, ss, xx, c_s, c_x, x_s, b_cc, b_ss, b_cs = sums
    chunk = _rows(5 * 8 * n_pix)   # a chunk's five phase arrays fill one step
    for lo in range(0, times.size, chunk):
        c, s = _phases(kron_omegas, times[lo:lo + chunk], series.quadrature)
        c2, s2, cs = c * c, s * s, c * s
        del c, s
        cc += c2.T @ c2
        ss += s2.T @ s2
        xx += cs.T @ cs
        c_s += c2.T @ s2
        c_x += c2.T @ cs
        x_s += cs.T @ s2
        del c2, s2, cs   # not held beside the next chunk
    for c, s, y in transformed():
        z = y * c[:, None, :]
        y *= s[:, None, :]
        b_cc += np.einsum("tk,tkl->kl", c, z)
        b_cs += np.einsum("tk,tkl->kl", c, y)
        b_ss += np.einsum("tk,tkl->kl", s, y)
        del c, s, y, z   # not held beside the next batch
    # to mode order once, with D^-1 on the right-hand sides: the mode-space
    # observable is Y = D^-1 G M G^T D^-1 = D^-1 Y~[kron, kron] D^-1
    qt, pt, rt, condition, unidentifiable = _solve_pairs(
        sums[:, kron[:, None], kron], d_inv, basis.omegas, field_quadrature)

    # the residual, a second pass: |M - K^T Y K| = |Y~ - Y| for the model Y
    # of the fitted blocks, folded with D once in K's row order (the
    # momentum model negates R~)
    q, p, r = (_folded(m, d, basis) for m in (qt, pt, rt if field_quadrature else -rt))
    sq = 0.0
    for c, s, y in transformed():
        y -= _model(q, p, r, c, s)
        sq += float(np.vdot(y, y))
        del c, s, y
    return ReconstructionResult(qt=qt, pt=pt, rt=rt,
                                residual_rms=math.sqrt(sq / (times.size * n_pix ** 2)),
                                condition=condition, unidentifiable_pairs=unidentifiable)
