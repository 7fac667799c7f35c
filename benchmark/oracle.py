"""Independent reference values for the benchmark's output checks.

Nothing here imports ``thirdsound``.  The thermal state is rebuilt from
closed forms: the type-II sine (Dirichlet) and cosine (Neumann) bases on
cell centres, the thin-film dispersion
omega^2 = g_eff (1 + ell_c^2 k^2) k tanh(k h0), and Bose-Einstein
occupations.  At 0.3 K every mode holds ~1e7 quanta, so the state is
classical and the mutual information is

    I(A:B) = 1/2 sum_{M in {Q, P}} [ln det M_A + ln det M_B - ln det M_AB]

(Wolf, Verstraete, Hastings & Cirac, PRL 100, 070502 (2008)); it differs
from the exact symplectic value by O(n / nu_min^2), about 1e-12 nats here.
Every log-determinant is taken by Cholesky.
"""

from __future__ import annotations

import math

import numpy as np

HBAR = 1.054571817e-34  # J s, CODATA 2018
K_B = 1.380649e-23      # J / K

MI_TOL = 1e-8           # nats
RECON_RTOL = 1e-10      # relative to the largest occupation


class ClosedFormState:
    """Real-space Q and P blocks of the thermal film state on a grid.

    `cfg` holds the workload config's keys; `omega_power` raises the
    dispersion to that power, for the perturbed oracle of mutation_check."""

    def __init__(self, cfg: dict, omega_power: float = 1.0):
        self.nx, self.ny = int(cfg["grid.nx"]), int(cfg["grid.ny"])
        self.lx, self.ly = cfg["grid.lx"], cfg["grid.ly"]
        self.kind = cfg["boundary.kind"]
        h0, temperature = cfg["film.h0"], cfg["film.temperature"]
        g_eff = 3.0 * cfg["film.alpha_vdw"] / h0 ** 4
        c3 = math.sqrt(g_eff * h0)
        ell_c2 = cfg["film.sigma"] / (cfg["film.rho"] * g_eff)
        stiffness = HBAR * cfg["film.rho"] * c3 / (g_eff * cfg["film.m4"] ** 2)

        kx, bx = self._axis(self.nx, self.lx)
        ky, by = self._axis(self.ny, self.ly)
        k = np.hypot(kx[:, None], ky[None, :])
        keep = k > 0                      # the Neumann zero mode is dropped
        omega = np.ones_like(k)
        omega[keep] = np.sqrt(g_eff * (1.0 + ell_c2 * k[keep] ** 2) * k[keep]
                              * np.tanh(k[keep] * h0)) ** omega_power
        occupation = np.zeros_like(k)
        occupation[keep] = 1.0 / np.expm1(HBAR * omega[keep] / (K_B * temperature)) + 0.5
        self.keep = keep
        self.omega = omega                # (nx, ny) over (mx, my)
        self.occupation = occupation      # n_T(omega) + 1/2, 0 where dropped
        field_scale = c3 / (stiffness * omega)
        self.q = self._assemble(bx, by, field_scale * occupation)
        self.p = self._assemble(bx, by, occupation / field_scale)

    def _axis(self, n: int, length: float):
        centres = (np.arange(n) + 0.5) / n
        if self.kind == "dirichlet":
            m = np.arange(1, n + 1)
            basis = math.sqrt(2.0 / n) * np.sin(math.pi * np.outer(m, centres))
            basis[-1] /= math.sqrt(2.0)
        elif self.kind == "neumann":
            m = np.arange(n)
            basis = math.sqrt(2.0 / n) * np.cos(math.pi * np.outer(m, centres))
            basis[0] /= math.sqrt(2.0)
        else:
            raise ValueError(f"no closed form for boundary {self.kind!r}")
        return m * math.pi / length, basis

    def _assemble(self, bx, by, weights):
        # M[(i,a),(j,b)] = sum_{mx,my} w[mx,my] Bx[mx,i] Bx[mx,j] By[my,a] By[my,b]
        tx = bx[:, :, None] * bx[:, None, :]                     # (mx, i, j)
        ty = np.einsum("mn,na,nb->mab", weights, by, by)         # (mx, a, b)
        m4 = np.tensordot(tx, ty, axes=(0, 0))                   # (i, j, a, b)
        n = self.nx * self.ny
        return np.ascontiguousarray(m4.transpose(0, 2, 1, 3).reshape(n, n))

    def mutual_information(self, a: np.ndarray, b: np.ndarray) -> float:
        ab = np.concatenate([a, b])
        return 0.5 * sum(_logdet(m, a) + _logdet(m, b) - _logdet(m, ab)
                         for m in (self.q, self.p))

    def local_information(self, interior: np.ndarray) -> np.ndarray:
        """I(p : I \\ p) = 1/2 sum_M ln(M_pp (M_I^-1)_pp) for each p in I."""
        total = np.zeros(interior.size)
        for m in (self.q, self.p):
            block = m[np.ix_(interior, interior)]
            chol_inv = np.linalg.inv(np.linalg.cholesky(block))
            inverse_diag = np.sum(chol_inv ** 2, axis=0)
            total += np.log(np.diag(block) * inverse_diag)
        return 0.5 * total


def _logdet(m: np.ndarray, idx: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(m[np.ix_(idx, idx)])))))


# ---------------------------------------------------------------------------
# region shapes, rebuilt from their definitions

def block_indices(ny: int, x0: int, x1: int, y0: int, y1: int) -> np.ndarray:
    """Flat C-order indices of the pixel rectangle [x0, x1) x [y0, y1)."""
    ix, iy = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1), indexing="ij")
    return (ix * ny + iy).ravel()


def volume_sweep_pairs(nx: int, ny: int) -> dict:
    """Divider d: A = columns [0, d), B = columns [d + 1, nx)."""
    return {d: (block_indices(ny, 0, d, 0, ny), block_indices(ny, d + 1, nx, 0, ny))
            for d in range(1, nx - 1)}


def area_sweep_groups(state: ClosedFormState, volume: int) -> list:
    """Centred w x h rectangles of `volume` pixels, B the grid minus A's
    one-pixel Chebyshev ring; [(perimeter 2 (w dx + h dy), [(A, B), ...])]
    in increasing perimeter."""
    nx, ny = state.nx, state.ny
    dx, dy = state.lx / nx, state.ly / ny
    groups: dict = {}
    for w in range(1, volume + 1):
        h = volume // w
        if w * h != volume or w > nx or h > ny:
            continue
        x0, y0 = (nx - w) // 2, (ny - h) // 2
        mask = np.ones((nx, ny), dtype=bool)
        mask[max(x0 - 1, 0):x0 + w + 1, max(y0 - 1, 0):y0 + h + 1] = False
        if not mask.any():
            continue
        a = block_indices(ny, x0, x0 + w, y0, y0 + h)
        b = np.flatnonzero(mask.ravel())
        groups.setdefault(w + h, (2.0 * (w * dx + h * dy), []))[1].append((a, b))
    return [groups[key] for key in sorted(groups)]


def tile_grid(nx: int, ny: int, size: int):
    """The grid cut into size x size tiles: the centre tile (index
    (nx // size // 2, ny // size // 2)), its pixels, and
    {(tx, ty): pixels} for every tile sharing no edge or corner with it."""
    ntx, nty = nx // size, ny // size
    centre = (ntx // 2, nty // 2)

    def pixels(tx, ty):
        return block_indices(ny, tx * size, (tx + 1) * size, ty * size, (ty + 1) * size)

    tiles = {(tx, ty): pixels(tx, ty) for tx in range(ntx) for ty in range(nty)
             if max(abs(tx - centre[0]), abs(ty - centre[1])) > 1}
    return centre, pixels(*centre), tiles


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages, empty when it passes

def check_close(label: str, got, want, tol: float, rtol: float = 0.0) -> list:
    """|got - want| <= tol + rtol |want| everywhere."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != expected {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{label}: non-finite values"]
    excess = np.abs(got - want) - (tol + rtol * np.abs(want))
    if not got.size or np.max(excess) <= 0:
        return []
    worst = int(np.argmax(excess))
    return [f"{label}: {got.flat[worst]:.17g} against {want.flat[worst]:.17g} "
            f"(tolerance {tol:g} + {rtol:g} relative)"]


def check_reconstruction(state: ClosedFormState, mode_index, qt, pt, rt) -> list:
    """Q~ = P~ = diag(n_T(omega) + 1/2) and R~ = 0, in the program's mode order."""
    mx, my = np.asarray(mode_index).T
    want = np.diag(state.occupation[mx, my])
    tol = RECON_RTOL * float(np.max(want))
    return (check_close("Q~", qt, want, tol) + check_close("P~", pt, want, tol)
            + check_close("R~", rt, np.zeros_like(want), tol))


def check_times(state: ClosedFormState, times: np.ndarray) -> list:
    """Uniform grid from 0, dt <= pi / (4 omega_max), span of at least two
    periods of the smallest resolvable frequency gap, and no longer."""
    omegas = np.unique(state.omega[state.keep])
    gaps = np.diff(omegas)
    gaps = gaps[gaps > 1e-9 * omegas[-1]]
    span = 2.0 * 2.0 * math.pi / gaps.min()
    steps = np.diff(times)
    dt = steps[0] if steps.size else 0.0
    problems = []
    if times[0] != 0.0 or not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        problems.append("sample times are not a uniform grid from 0")
    if not 0.0 < dt <= math.pi / (4.0 * omegas[-1]) * (1 + 1e-12):
        problems.append(f"dt={dt:.3g} breaks the 4x Nyquist rule")
    if not span * (1 - 1e-12) <= times[-1] < span + dt:
        problems.append(f"span {times[-1]:.4g} s does not just cover {span:.4g} s")
    return problems
