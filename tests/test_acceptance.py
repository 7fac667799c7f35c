"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values (run with -s to watch live).

Criteria 6(a, c) and 8(a, b) encode reference orderings and spreads for
the thermal mutual-information sweeps and maps at the 20x20 / 5 mm / 0.3 K
operating point.  The covariance pipeline implemented here, which is
validated independently against Fock-space oracles, brute-force
re-implementations and exact mode-spectrum identities, gives the opposite
boundary-condition ordering (Neumann above Dirichlet), a Dirichlet map
whose edge ring lies below its centre, and map spreads above the 20x20
bound, so 6(a), 6(c), 8(a) and 8(b) fail (8(c), the 10x10 spread, passes).
They are kept at their stated thresholds deliberately rather than being
tuned to match this implementation; neither a Neumann zero mode kept in
the momentum block nor pixel-averaged detectors beyond Nyquist reverses
them.

Criterion 7(a) once asked for a maximum area-sweep MI of 550-2200 nats.
The pipeline gives 1.47 nats, about 750x below the 1.1e3-nat centre.
That window is out of reach for any 36-pixel region of this state:
cond(Q) = 401.6 caps I(A:B) at 36/2 ln cond(Q) = 107.9 nats, and the
window brackets the entropy S(A) = 665 nats of a 6x6 region and its
pure-state MI 2 S(A) instead.  7(a) therefore checks the magnitude against
an independent classical-limit log-determinant oracle.

See docs/acceptance-reference-criteria.md for the measurements and the
convention trials.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from thirdsound import (FilmParams, bose_einstein, derive_params,
                        dispersion_thin_film)
from thirdsound import fitting, gaussian as ga, reconstruct as rc, regions as rg
from thirdsound.geometry import BoundarySpec, Grid, build_basis, solve_wavenumbers_1d
from thirdsound.regions import RegionMask

from full_matrix import from_full_matrix

FILM = FilmParams(h0=80e-9, alpha_vdw=2.6e-24, temperature=0.3)
DERIVED = derive_params(FILM)
L = 5e-3


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {status}  {detail}")


def report_parts(num, name, parts):
    """parts: list of (label, ok, detail); prints each and asserts all."""
    for label, ok, detail in parts:
        print(f"criterion {num:02d} {name} [{label}]: "
              f"{'PASS' if ok else 'FAIL'}  {detail}")
    failed = [label for label, ok, _ in parts if not ok]
    assert not failed, f"criterion {num} failed sub-checks: {failed}"


def film_dispersion(k):
    return dispersion_thin_film(k, DERIVED, FILM.h0)


def thermal_real_state(grid, spec, temperature):
    basis = build_basis(grid, spec, film_dispersion)
    gm = ga.thermal_momentum_covariance(basis, temperature)
    return basis, ga.to_real_space(gm, basis, DERIVED)


@pytest.fixture(scope="module")
def paper_states():
    """20x20 thermal real-space states shared by the sweep criteria."""
    grid = Grid(L, L, 20, 20)
    out = {}
    for key, spec in (("dirichlet", BoundarySpec.dirichlet()),
                      ("neumann", BoundarySpec.neumann())):
        out[key] = thermal_real_state(grid, spec, 0.3)[1]
    return out


@pytest.fixture(scope="module")
def volume_sweeps(paper_states):
    return {key: rg.run_volume_sweep(state, buffer=1, include_cell_boundary=True)
            for key, state in paper_states.items()}


def test_criterion_01_derived_constants():
    start = time.time()
    d = derive_params(FilmParams(h0=80e-9, alpha_vdw=2.6e-24, temperature=0.3,
                                 rho=145.0, m4=6.6465e-27))
    ok_c3 = abs(d.c3 - 0.1234) <= 0.005
    ok_k = abs(d.luttinger_k - 2.21e14) / 2.21e14 <= 0.05
    elapsed = time.time() - start
    report(1, "derived-constants", ok_c3 and ok_k,
           f"c3={d.c3:.5g} m/s, K={d.luttinger_k:.5g} ({elapsed:.2f}s)")
    assert ok_c3 and ok_k and elapsed < 1.0


def test_criterion_02_momentum_product_state_mi():
    start = time.time()
    basis = build_basis(Grid(L, L, 20, 20), BoundarySpec.neumann(), film_dispersion)
    gm = ga.thermal_momentum_covariance(basis, 0.3)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(5):
        perm = rng.permutation(basis.n_modes)
        cut = rng.integers(5, basis.n_modes - 5)
        take = rng.integers(cut + 1, basis.n_modes)
        worst = max(worst, ga.mutual_information(gm, perm[:cut], perm[cut:take]))
    half = basis.n_modes // 2
    worst = max(worst, ga.mutual_information(gm, np.arange(half),
                                             np.arange(half, basis.n_modes)))
    elapsed = time.time() - start
    ok = worst <= 1e-10
    report(2, "momentum-product-mi", ok, f"max MI={worst:.3g} nats ({elapsed:.2f}s)")
    assert ok and elapsed < 1.0


def fock_thermal_probabilities(nbar, cutoff):
    k = np.arange(cutoff + 1)
    return (nbar / (1.0 + nbar)) ** k / (1.0 + nbar)


def test_criterion_03_fock_oracle_equivalence():
    start = time.time()
    parts = []
    for nbar in (0.5, 1.0, 5.0):
        p = fock_thermal_probabilities(nbar, 200)
        s_fock = float(-(p[p > 0] * np.log(p[p > 0])).sum())
        gamma = from_full_matrix(np.diag([nbar + 0.5] * 2), ga.MOMENTUM)
        s_gauss = ga.von_neumann_entropy(gamma)
        parts.append((f"single-mode n={nbar}", abs(s_gauss - s_fock) <= 1e-6,
                      f"|dS|={abs(s_gauss - s_fock):.2e}"))

    # two-mode thermal product
    p1, p2 = fock_thermal_probabilities(0.5, 120), fock_thermal_probabilities(5.0, 400)
    joint = np.outer(p1, p2).ravel()
    s_fock = float(-(joint[joint > 0] * np.log(joint[joint > 0])).sum())
    gamma = from_full_matrix(np.diag([1.0, 5.5, 1.0, 5.5]), ga.MOMENTUM)
    s_gauss = ga.von_neumann_entropy(gamma)
    parts.append(("two-mode thermal", abs(s_gauss - s_fock) <= 1e-6,
                  f"|dS|={abs(s_gauss - s_fock):.2e}"))

    # two-mode squeezed thermal: reduced single-mode state
    nbar, r, cutoff = 0.3, 0.4, 28
    ch, sh = math.cosh(r), math.sinh(r)
    s_mat = np.array([[ch, sh, 0, 0], [sh, ch, 0, 0],
                      [0, 0, ch, -sh], [0, 0, -sh, ch]])
    gamma = from_full_matrix(s_mat @ np.diag([nbar + 0.5] * 4) @ s_mat.T, ga.MOMENTUM)
    d = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    u = scipy.linalg.expm(r * (np.kron(a.T, a.T) - np.kron(a, a)))
    p = fock_thermal_probabilities(nbar, cutoff)
    rho = u @ np.diag(np.kron(p, p)) @ u.conj().T
    rho_1 = np.einsum("ikjk->ij", rho.reshape(d, d, d, d))
    evals = np.linalg.eigvalsh(rho_1)
    evals = evals[evals > 1e-14]
    s_red_fock = float(-(evals * np.log(evals)).sum())
    s_red = ga.von_neumann_entropy(ga.restrict(gamma, np.array([0])))
    parts.append(("squeezed-thermal reduced", abs(s_red - s_red_fock) <= 1e-6,
                  f"|dS|={abs(s_red - s_red_fock):.2e}"))
    elapsed = time.time() - start
    print(f"criterion 03 runtime {elapsed:.1f}s")
    report_parts(3, "fock-oracle", parts)
    assert elapsed < 30.0


def test_criterion_04_pure_state_identity():
    start = time.time()
    worst = 0.0
    cases = []
    grid12 = Grid(L, L, 12, 12)
    _, gamma = thermal_real_state(grid12, BoundarySpec.dirichlet(), 0.0)
    rng = np.random.default_rng(99)
    half = RegionMask.from_columns(grid12, 0, 6)
    square = RegionMask.from_rect(grid12, 4, 4, 5, 5)
    single = RegionMask.from_rect(grid12, 3, 11, 1, 1)   # flat pixel 47
    l_shape = RegionMask(grid12, RegionMask.from_rect(grid12, 1, 1, 6, 2).pixels
                         | RegionMask.from_rect(grid12, 1, 1, 2, 7).pixels)
    random_mask = RegionMask(grid12, rng.random((12, 12)) < 0.4)
    cases += [("dirichlet-12x12", gamma, m)
              for m in (half, square, single, l_shape, random_mask)]
    grid8 = Grid(L, L, 8, 8)
    _, gamma_r = thermal_real_state(grid8, BoundarySpec.robin(1.0 / L), 0.0)
    cases.append(("robin-8x8", gamma_r, RegionMask.from_columns(grid8, 0, 4)))

    for label, g, mask in cases:
        comp = RegionMask(mask.grid, ~mask.pixels)
        mi = ga.mutual_information(g, mask, comp)
        s_a = ga.von_neumann_entropy(ga.restrict(g, mask))
        worst = max(worst, abs(mi - 2.0 * s_a))
    elapsed = time.time() - start
    ok = worst <= 1e-8
    report(4, "pure-state-identity", ok,
           f"max |I(A:Ac) - 2 S(A)| = {worst:.2e} over {len(cases)} regions ({elapsed:.1f}s)")
    assert ok and elapsed < 60.0


def test_criterion_05_physicality_sweep():
    start = time.time()
    specs = [("dirichlet", BoundarySpec.dirichlet()),
             ("neumann", BoundarySpec.neumann()),
             ("robin-0.1", BoundarySpec.robin(0.1 / L)),
             ("robin-1", BoundarySpec.robin(1.0 / L)),
             ("robin-10", BoundarySpec.robin(10.0 / L))]
    worst = np.inf
    for name, spec in specs:
        for n in (8, 16, 20):
            for temperature in (0.0, 0.3):
                basis, gamma = thermal_real_state(Grid(L, L, n, n), spec, temperature)
                spectrum = ga.symplectic_spectrum(gamma)
                expected_nulls = basis.grid.n_pixels - basis.n_modes
                assert spectrum.n_null == expected_nulls, (name, n, temperature)
                worst = min(worst, spectrum.min)
    elapsed = time.time() - start
    ok = worst >= 0.5 - 1e-9
    report(5, "physicality-sweep", ok,
           f"min symplectic eigenvalue {worst:.12g} over 30 states ({elapsed:.1f}s)")
    assert ok and elapsed < 300.0


def test_criterion_06_volume_sweep_structure(volume_sweeps):
    mi_n = volume_sweeps["neumann"].mi_values
    mi_d = volume_sweeps["dirichlet"].mi_values
    # interior divider positions: drop the extreme divider on each side
    interior_n = mi_n[1:-1]
    interior_d = mi_d[1:-1]
    spread_n = (interior_n.max() - interior_n.min()) / interior_n.mean()
    spread_d = (interior_d.max() - interior_d.min()) / interior_d.mean()
    parts = [
        ("neumann volume-insensitive", spread_n < 0.10, f"spread={spread_n:.3f}"),
        ("dirichlet more volume-sensitive", spread_d > spread_n,
         f"dirichlet spread={spread_d:.3f}"),
        ("dirichlet exceeds neumann pointwise", bool(np.all(mi_d > mi_n)),
         f"mean D={mi_d.mean():.3g}, mean N={mi_n.mean():.3g} nats"),
    ]
    report_parts(6, "volume-sweep", parts)


def classical_mi_oracle(basis, temperature, pairs):
    """Classical-limit MI, 1/2 sum_{M in {Q, P}} ln(det M_A det M_B / det M_AB),
    with Q and P assembled straight from the sampled basis and the mode
    frequencies and every log-determinant taken by Cholesky.  It differs
    from the exact symplectic MI by O(n / nu_min^2)."""
    occupation = bose_einstein(basis.omegas, temperature) + 0.5
    field_scale = DERIVED.c3 / (DERIVED.luttinger_k * basis.omegas)
    g = basis.sampled
    blocks = [g.T @ (weights[:, None] * g)
              for weights in (field_scale * occupation, occupation / field_scale)]

    def logdet(m, idx):
        return 2.0 * np.log(np.diag(scipy.linalg.cholesky(m[np.ix_(idx, idx)]))).sum()

    values = []
    for a, b in pairs:
        ia, ib = a.indices(), b.indices()
        iab = np.concatenate([ia, ib])
        values.append(0.5 * sum(logdet(m, ia) + logdet(m, ib) - logdet(m, iab)
                                for m in blocks))
    return np.array(values)


def test_criterion_07_area_sweep_anchor(paper_states):
    start = time.time()
    gamma = paper_states["dirichlet"]
    included = rg.run_area_sweep(gamma, 36, include_cell_boundary=True)
    excluded = rg.run_area_sweep(gamma, 36, include_cell_boundary=False)
    max_mi = included.mi_values.max()
    monotone = bool(np.all(np.diff(excluded.mi_values) >= -1e-6))
    elapsed = time.time() - start
    print(f"criterion 07 runtime {elapsed:.1f}s")

    # average congruent shapes per perimeter exactly as the sweep does
    oracle = classical_mi_oracle(gamma.basis, 0.3,
                                 [(p.pair.a, p.pair.b) for p in included.raw_points])
    perimeters = np.array([p.abscissa for p in included.raw_points])
    oracle_max = max(oracle[perimeters == x].mean() for x in included.abscissae)
    parts = [
        ("max MI matches the log-det oracle to 1e-8 nats",
         abs(max_mi - oracle_max) <= 1e-8,
         f"max MI={max_mi:.6g}, oracle={oracle_max:.6g}, "
         f"|diff|={abs(max_mi - oracle_max):.1e} nats"),
        ("boundary-excluded sweep monotone", monotone,
         f"MI={np.round(excluded.mi_values, 4)}"),
    ]
    report_parts(7, "area-sweep", parts)
    assert elapsed < 1200.0


def _map_stats(field):
    interior = field[1:-1, 1:-1]
    edge = np.concatenate([interior[0, :], interior[-1, :],
                           interior[1:-1, 0], interior[1:-1, -1]])
    centre_slice = interior[interior.shape[0] // 2 - 1: interior.shape[0] // 2 + 1,
                            interior.shape[1] // 2 - 1: interior.shape[1] // 2 + 1]
    spread = (interior.max() - interior.min()) / interior.mean()
    return float(edge.mean()), float(centre_slice.mean()), float(spread)


def test_criterion_08_mi_map_structure(paper_states):
    start = time.time()
    maps = {key: rg.mi_map(state) for key, state in paper_states.items()}
    edge_d, centre_d, spread_d = _map_stats(maps["dirichlet"])
    _, _, spread_n = _map_stats(maps["neumann"])
    elapsed_20 = time.time() - start

    start_ci = time.time()
    grid10 = Grid(L, L, 10, 10)
    spread_ci = {}
    for key, spec in (("dirichlet", BoundarySpec.dirichlet()),
                      ("neumann", BoundarySpec.neumann())):
        _, gamma = thermal_real_state(grid10, spec, 0.3)
        spread_ci[key] = _map_stats(rg.mi_map(gamma))[2]
    elapsed_10 = time.time() - start_ci
    print(f"criterion 08 runtime: 20x20 {elapsed_20:.0f}s, 10x10 {elapsed_10:.1f}s")

    parts = [
        ("dirichlet edge ring exceeds centre", edge_d > centre_d,
         f"edge={edge_d:.4g}, centre={centre_d:.4g} nats"),
        ("neumann spread at least 2x smaller (20x20)", spread_n <= spread_d / 2.0,
         f"neumann={spread_n:.3f}, dirichlet={spread_d:.3f}"),
        ("neumann spread at least 2x smaller (10x10)",
         spread_ci["neumann"] <= spread_ci["dirichlet"] / 2.0,
         f"neumann={spread_ci['neumann']:.3f}, dirichlet={spread_ci['dirichlet']:.3f}"),
    ]
    report_parts(8, "mi-map", parts)
    assert elapsed_20 < 1800.0 and elapsed_10 < 180.0


def test_criterion_09_reconstruction_round_trip():
    start = time.time()
    basis = build_basis(Grid(L, L, 6, 6), BoundarySpec.dirichlet(), film_dispersion)
    g0 = ga.thermal_momentum_covariance(basis, 0.3)
    times = rc.suggested_times(basis)
    clean = rc.synth_two_point(g0, basis, DERIVED, times)
    fit = rc.fit_covariance(clean, basis, DERIVED)
    err_clean = (np.linalg.norm(fit.gamma().data - g0.data)
                 / np.linalg.norm(g0.data))

    scale = float(np.mean(np.abs(clean.samples)))
    errs = []
    for seed in range(10):
        noisy = rc.synth_two_point(g0, basis, DERIVED, times,
                                   noise_sigma=1e-3 * scale, seed=seed)
        noisy_fit = rc.fit_covariance(noisy, basis, DERIVED)
        errs.append(np.linalg.norm(noisy_fit.gamma().data - g0.data)
                    / np.linalg.norm(g0.data))
    err_noisy = float(np.mean(errs))
    elapsed = time.time() - start
    parts = [
        ("noiseless round trip < 1e-6", err_clean < 1e-6, f"error={err_clean:.2e}"),
        ("0.1% noise recovers within 5%", err_noisy < 0.05,
         f"mean error={err_noisy:.2e} over 10 seeds"),
    ]
    print(f"criterion 09 runtime {elapsed:.1f}s ({len(times)} samples)")
    report_parts(9, "reconstruction", parts)
    assert elapsed < 600.0


def test_criterion_10_calabrese_fit(volume_sweeps):
    rng = np.random.default_rng(17)
    f = np.linspace(0.05, 0.95, 18)
    y = fitting.calabrese_model(f, 400, 2.0, 1.0, 0.5) + rng.normal(0, 1e-6, f.size)
    fit = fitting.fit_calabrese_curve(f, y, 400)
    planted_ok = (abs(fit.kappa1 - 2.0) <= 1e-3 and abs(fit.kappa2 - 1.0) <= 1e-2
                  and abs(fit.kappa3 - 0.5) <= 1e-3)

    sweep = volume_sweeps["neumann"]
    sweep_fit = fitting.calabrese_fit(sweep)
    rel_rms = sweep_fit.rms / sweep.mi_values.mean()
    parts = [
        ("planted parameters recovered", planted_ok,
         f"kappa=({fit.kappa1:.5g}, {fit.kappa2:.5g}, {fit.kappa3:.5g})"),
        ("neumann sweep fit RMS <= 5% of mean MI", rel_rms <= 0.05,
         f"rms/mean={rel_rms:.4f}"),
    ]
    report_parts(10, "calabrese-fit", parts)


def test_criterion_11_robin_limits():
    start = time.time()
    count = 8
    neumann = solve_wavenumbers_1d(BoundarySpec.neumann(), L, count)
    dirichlet = solve_wavenumbers_1d(BoundarySpec.dirichlet(), L, count)
    soft = solve_wavenumbers_1d(BoundarySpec.robin(1e-6 / L), L, count)
    hard = solve_wavenumbers_1d(BoundarySpec.robin(1e6 / L), L, count)
    # branch m interpolates from the Neumann wavenumber (m-1) pi/L to the
    # Dirichlet wavenumber m pi/L; branch 1 descends into the Neumann zero
    # mode, where a relative comparison is undefined
    err_n = np.max(np.abs(soft[1:] / neumann[1:] - 1.0))
    err_d = np.max(np.abs(hard / dirichlet - 1.0))
    elapsed = time.time() - start
    ok = err_n <= 1e-5 and err_d <= 1e-5
    report(11, "robin-limits", ok,
           f"neumann rel err={err_n:.2e}, dirichlet rel err={err_d:.2e} ({elapsed:.2f}s)")
    assert ok and elapsed < 1.0
