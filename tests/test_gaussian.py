import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from thirdsound import FilmParams, HBAR, K_B, bose_einstein, derive_params
from thirdsound import gaussian as ga
from thirdsound.errors import UnphysicalCovarianceError
from thirdsound.geometry import BoundarySpec, Grid, ModeBasis, build_basis
from thirdsound.physics import dispersion_thin_film
from thirdsound.regions import RegionMask, mi_map, run_area_sweep, run_volume_sweep

from full_matrix import from_full_matrix

FILM = FilmParams(h0=80e-9, alpha_vdw=2.6e-24, temperature=0.3)
DERIVED = derive_params(FILM)


def film_basis(nx, ny, spec=None, lx=5e-3, ly=5e-3):
    grid = Grid(lx, ly, nx, ny)
    return build_basis(grid, spec or BoundarySpec.dirichlet(),
                       lambda k: dispersion_thin_film(k, DERIVED, FILM.h0))


def diagonal_covariance(nus, labelling=ga.MOMENTUM):
    nus = np.asarray(nus, dtype=float)
    return from_full_matrix(np.diag(np.concatenate([nus, nus])), labelling)


def squeezed(gamma, seed):
    """A copy of a mode-space state after a random symplectic map, so that
    R~ is nonzero and no block is diagonal."""
    n = gamma.n
    rng = np.random.default_rng(seed)
    h = rng.normal(scale=0.3, size=(2 * n, 2 * n))
    h = 0.5 * (h + h.T)
    omega = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    s = scipy.linalg.expm(omega @ h)          # symplectic for symmetric h
    return from_full_matrix(s @ gamma.data @ s.T, ga.MOMENTUM, basis=gamma.basis)


def thermal_fock_entropy(nbar, cutoff=200):
    k = np.arange(cutoff + 1)
    p = (nbar / (1.0 + nbar)) ** k / (1.0 + nbar)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def random_physical_two_mode(seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(4, 4))
    h = 0.5 * (h + h.T)
    omega = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    s = scipy.linalg.expm(omega @ h)          # symplectic for symmetric h
    nus = 0.5 + rng.uniform(0.0, 3.0, size=2)
    return from_full_matrix(s @ np.diag(np.tile(nus, 2)) @ s.T, ga.MOMENTUM), nus


@pytest.fixture
def built(monkeypatch):
    """The weights of every ModeBasis.to_pixels call, in order."""
    weights = []
    to_pixels = ModeBasis.to_pixels

    def spy(self, w):
        weights.append(w)
        return to_pixels(self, w)

    monkeypatch.setattr(ModeBasis, "to_pixels", spy)
    return weights


class TestThermalConstruction:
    def test_vacuum(self):
        basis = film_basis(4, 4)
        g = ga.thermal_momentum_covariance(basis, 0.0)
        assert np.allclose(g.data, 0.5 * np.eye(2 * basis.n_modes))

    def test_half_occupation_point(self):
        # hbar w/(kB T) = ln 2 gives n = 1, diagonal value 1.5
        basis = film_basis(2, 2)
        t = HBAR * basis.omegas[0] / (K_B * math.log(2.0))
        g = ga.thermal_momentum_covariance(basis, t)
        assert g.data[0, 0] == pytest.approx(1.5, rel=1e-12)

    def test_paper_scale_occupations(self):
        basis = film_basis(20, 20, BoundarySpec.neumann())
        g = ga.thermal_momentum_covariance(basis, 0.3)
        assert g.n == 399
        assert g.data.max() == pytest.approx(5.06e8 + 0.5, rel=1e-2)
        assert np.all(g.r_block == 0.0)


class TestRealSpaceTransform:
    def test_vacuum_stays_vacuum(self):
        basis = film_basis(6, 6)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.0), basis, DERIVED)
        spectrum = ga.symplectic_spectrum(gr)
        assert np.max(np.abs(spectrum.values - 0.5)) < 1e-9

    def test_thermal_physical_and_symmetric(self):
        basis = film_basis(6, 6, BoundarySpec.robin(200.0))
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        assert np.allclose(gr.data, gr.data.T)
        assert ga.symplectic_spectrum(gr).min >= 0.5 - 1e-9

    @pytest.mark.parametrize("state", ["thermal", "squeezed"])
    @pytest.mark.parametrize("spec", [BoundarySpec.dirichlet(), BoundarySpec.neumann(),
                                      BoundarySpec.robin(200.0)], ids=lambda s: s.kind.value)
    def test_per_axis_matches_dense_reference(self, spec, state):
        # non-square grid on a non-square cell, so the two axes differ
        basis = film_basis(5, 4, spec, ly=3.7e-3)
        gm = ga.thermal_momentum_covariance(basis, 0.3)
        if state == "squeezed":
            gm = squeezed(gm, seed=11)
            assert np.max(np.abs(gm.r_block)) > 0.01 * np.max(np.abs(gm.q_block))
        gr = ga.to_real_space(gm, basis, DERIVED)
        g = basis.sampled
        d_phi = np.sqrt(DERIVED.c3 / (DERIVED.luttinger_k * basis.omegas))
        d_eta = 1.0 / d_phi
        pairs = ((gr.q_block, gm.q_block, d_phi, d_phi), (gr.p_block, gm.p_block, d_eta, d_eta),
                 (gr.r_block, gm.r_block, d_phi, d_eta))
        for got, mode_block, left, right in pairs:
            want = g.T @ np.diag(left) @ mode_block @ np.diag(right) @ g
            scale = max(np.max(np.abs(want)), 1e-300)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert (state == "thermal") == (not gr.r_block.any())

    # the unaveraged product is asymmetric in the last bits on square grids
    @pytest.mark.parametrize("shape", [(5, 4), (7, 7)], ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("spec", [BoundarySpec.dirichlet(), BoundarySpec.neumann(),
                                      BoundarySpec.robin(200.0)], ids=lambda s: s.kind.value)
    def test_thermal_blocks_exactly_symmetric(self, spec, shape):
        basis = film_basis(*shape, spec, ly=3.7e-3)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        g = basis.sampled
        d_phi = np.sqrt(DERIVED.c3 / (DERIVED.luttinger_k * basis.omegas))
        occupations = bose_einstein(basis.omegas, 0.3) + 0.5
        for block, weights in ((gr.q_block, d_phi ** 2), (gr.p_block, d_phi ** -2)):
            assert np.array_equal(block, block.T)
            assert np.all(np.isfinite(block)) and not block.flags.writeable
            want = g.T @ np.diag(weights * occupations) @ g
            assert np.max(np.abs(block - want)) <= 1e-12 * np.max(np.abs(want))

    def test_nu_floor_set_when_stored(self, monkeypatch):
        # the floor is set by _store; nothing is assigned to the state after it
        basis = film_basis(4, 3)
        gm = ga.thermal_momentum_covariance(basis, 0.3)
        events = []
        setattr_, store = ga.CovarianceMatrix.__setattr__, ga.CovarianceMatrix._store

        def spy_setattr(self, name, value):
            events.append((id(self), name))
            setattr_(self, name, value)

        def spy_store(self, *args):
            out = store(self, *args)
            events.append((id(out), "stored"))
            return out

        monkeypatch.setattr(ga.CovarianceMatrix, "__setattr__", spy_setattr)
        monkeypatch.setattr(ga.CovarianceMatrix, "_store", spy_store)
        gr = ga.to_real_space(gm, basis, DERIVED)
        mine = [name for key, name in events if key == id(gr)]
        assert mine[-1] == "stored" and mine.count("stored") == 1
        assert "nu_floor" in mine and gr.nu_floor > 1.0

    def test_neumann_structural_nulls_tracked(self):
        basis = film_basis(6, 6, BoundarySpec.neumann())
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        assert gr.structural_nulls == 1
        spectrum = ga.symplectic_spectrum(gr)
        assert spectrum.n_null == 1
        # the non-null real-space spectrum is exactly the mode spectrum
        expected = np.sort(bose_einstein(basis.omegas, 0.3) + 0.5)
        assert np.allclose(np.sort(spectrum.values), expected, rtol=1e-9)

    def test_more_modes_than_pixels_rejected(self):
        # a basis listing the 9 modes of a 3x3 Dirichlet lattice twice would
        # leave 9 - 18 = -9 structural nulls
        basis = film_basis(3, 3)
        doubled = ModeBasis(basis.grid, basis.boundary, basis.modes + basis.modes, basis.axes)
        assert np.array_equal(doubled.sampled, np.vstack([basis.sampled, basis.sampled]))
        gm = ga.thermal_momentum_covariance(doubled, 0.3)
        with pytest.raises(ValueError, match="more than"):
            ga.to_real_space(gm, doubled, DERIVED)
        with pytest.raises(ValueError, match="more than"):
            from_full_matrix(0.5 * np.eye(18), ga.REAL, basis=doubled)

    def test_undeclared_null_in_full_rank_state_raises(self):
        # fill the Neumann state's null (the uniform vector u) in Q: the
        # basis still leaves one structural null, which Q now carries
        basis = film_basis(6, 6, BoundarySpec.neumann())
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        n = gr.n
        u = np.full(n, 1.0 / math.sqrt(n))
        data = gr.data.copy()
        data[:n, :n] += 1e-3 * np.max(np.abs(gr.q_block)) * np.outer(u, u)
        filled = from_full_matrix(data, ga.REAL, basis=basis)
        assert filled.structural_nulls == 1
        with pytest.raises(UnphysicalCovarianceError, match="structural nulls"):
            ga.symplectic_spectrum(filled)

    def test_nulls_derived_for_whole_lattice_only(self):
        basis = film_basis(6, 6, BoundarySpec.neumann())
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        assert ga.restrict(gr, np.arange(gr.n)).structural_nulls == 1
        assert ga.restrict(gr, np.arange(gr.n - 1)).structural_nulls == 0
        assert ga.thermal_momentum_covariance(basis, 0.3).structural_nulls == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        data = 0.5 * np.eye(4)
        data[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            from_full_matrix(data, ga.MOMENTUM)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0)])
    @pytest.mark.parametrize("block", ["Q", "P", "R"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_rejected(self, bad, block, entry):
        blocks = {"Q": np.diag([1.0, 2.0]), "P": np.diag([1.0, 2.0]), "R": np.zeros((2, 2))}
        blocks[block][entry] = bad
        with pytest.raises(ValueError, match=f"block {block} has non-finite"):
            ga.CovarianceMatrix.from_blocks(blocks["Q"], blocks["P"], blocks["R"], ga.MOMENTUM)

    @pytest.mark.parametrize("block", ["Q", "P"])
    def test_asymmetric_block_rejected(self, block):
        basis = film_basis(4, 3)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        q, p = gr.q_block.copy(), gr.p_block.copy()
        skewed = q if block == "Q" else p
        # an asymmetry of 0.5e-12 of the largest entry is within the 1e-12 bound
        skewed[0, 1] += 0.5e-12 * np.max(np.abs(skewed))
        ga.CovarianceMatrix.from_blocks(q, p, None, ga.REAL, basis=basis)
        skewed[0, 1] += 1e-11 * np.max(np.abs(skewed))
        with pytest.raises(ValueError, match=f"block {block} is not symmetric"):
            ga.CovarianceMatrix.from_blocks(q, p, None, ga.REAL, basis=basis)

    def test_thermal_state_stores_no_r_block(self):
        basis = film_basis(4, 3, BoundarySpec.neumann())
        gm = ga.thermal_momentum_covariance(basis, 0.3)
        gr = ga.to_real_space(gm, basis, DERIVED)
        for gamma in (gm, gr, ga.restrict(gr, np.arange(5))):
            assert gamma._r is None
            assert not gamma.r_block.any()
            n = gamma.n
            assert np.array_equal(gamma.data[:n, :n], gamma.q_block)
            assert np.array_equal(gamma.data[n:, n:], gamma.p_block)


class TestChecksRunWhereStatesEnter:
    """The public constructor, ``from_blocks``, checks a covariance; states
    built from a checked one (partial traces, the thermal mode state) are
    stored as built."""

    @pytest.fixture
    def checked(self, monkeypatch):
        names = []
        symmetrised = ga._symmetrised

        def counted(block, name):
            names.append(name)
            return symmetrised(block, name)

        monkeypatch.setattr(ga, "_symmetrised", counted)
        return names

    @staticmethod
    def real_state(state):
        basis = film_basis(4, 3, BoundarySpec.neumann())
        gm = ga.thermal_momentum_covariance(basis, 0.3)
        return ga.to_real_space(gm if state == "thermal" else squeezed(gm, seed=5), basis, DERIVED)

    def test_thermal_mode_state_not_rechecked(self, checked):
        gm = ga.thermal_momentum_covariance(film_basis(4, 3), 0.3)
        assert checked == []
        assert not gm.q_block.flags.writeable and not gm.p_block.flags.writeable
        assert np.array_equal(gm.q_block, np.diag(np.diagonal(gm.q_block)))

    @pytest.mark.parametrize("state", ["thermal", "squeezed"])
    def test_from_blocks_checks_q_and_p_once(self, checked, state):
        blocks = ["covariance block Q", "covariance block P"]
        # to_real_space stores a thermal state as built; a squeezed one is
        # checked where it enters, and again by to_real_space's from_blocks
        gr = self.real_state(state)
        assert checked == ([] if state == "thermal" else blocks + blocks)
        del checked[:]
        r = None if state == "thermal" else gr.r_block
        ga.CovarianceMatrix.from_blocks(gr.q_block, gr.p_block, r, ga.REAL, basis=gr.basis)
        assert checked == blocks

    @pytest.mark.parametrize("state", ["thermal", "constructed", "squeezed"])
    def test_route_follows_mode_shape(self, checked, built, state):
        # the thermal mode state keeps its mode weights and gets a floor; any
        # other, a diagonal one from from_blocks among them, keeps dense
        # blocks and goes through dense G products and the checks of from_blocks
        basis = film_basis(4, 3, BoundarySpec.neumann())
        thermal = ga.thermal_momentum_covariance(basis, 0.3)
        gm = {"thermal": thermal, "squeezed": squeezed(thermal, seed=5),
              "constructed": ga.CovarianceMatrix.from_blocks(
                  thermal.q_block, thermal.p_block, None, ga.MOMENTUM, basis=basis)}[state]
        assert (gm.diagonals is not None) == (state == "thermal")
        del checked[:]
        gr = ga.to_real_space(gm, basis, DERIVED)
        weights = state == "thermal"
        assert built == []   # Q and P wait for their first whole read
        assert checked == ([] if weights else ["covariance block Q", "covariance block P"])
        assert (gr.nu_floor is not None) == weights
        if state == "constructed":
            want = ga.to_real_space(thermal, basis, DERIVED)
            for got, block in ((gr.q_block, want.q_block), (gr.p_block, want.p_block)):
                assert np.max(np.abs(got - block)) <= 1e-12 * np.max(np.abs(block))

    @pytest.mark.parametrize("state", ["thermal", "squeezed"])
    def test_restrict_not_rechecked(self, checked, state):
        gr = self.real_state(state)
        del checked[:]
        ga.restrict(gr, np.array([5, 0, 9]))
        ga.mutual_information(gr, np.array([0, 1]), np.array([4, 7]))
        assert checked == []

    @pytest.mark.parametrize("state", ["thermal", "squeezed"])
    def test_restrict_stores_read_only_gathers(self, state):
        # a thermal state's unbuilt Q and P are read from their channel
        # stacks, to round-off of the built slice; once built, every set is
        # sliced
        gr = self.real_state(state)
        idx = np.array([5, 0, 9, 2])
        first = ga.restrict(gr, idx)
        cut = np.ix_(np.sort(idx), np.sort(idx))
        parents = [gr.q_block, gr.p_block]
        sub = ga.restrict(gr, idx)
        blocks = [(sub.q_block, parents[0]), (sub.p_block, parents[1])]
        if state == "thermal":
            assert gr._r is None and sub._r is None and first._r is None
            for got, parent in zip((first.q_block, first.p_block), parents):
                assert np.max(np.abs(got - parent[cut])) <= 1e-14 * np.max(np.abs(parent))
                assert not got.flags.writeable
        else:
            blocks.append((sub._r, gr._r))
        for got, parent in blocks:
            assert got.tobytes() == parent[cut].tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0] = 1.0


class TestStateStorage:
    """A thermal state holds its mode weights as vectors.  On the pixel
    lattice each n_pixels^2 block is built from them on its first whole read,
    which no protocol makes."""

    @staticmethod
    def square_arrays(gamma, n):
        return [name for name, value in vars(gamma).items()
                if isinstance(value, np.ndarray) and value.size >= n * n]

    def test_thermal_mode_state_holds_no_square_array(self):
        basis = film_basis(5, 4, BoundarySpec.neumann())
        gm = ga.thermal_momentum_covariance(basis, 0.3)
        assert self.square_arrays(gm, basis.n_modes) == []
        assert gm.diagonals[0] is gm.diagonals[1]   # Q~ = P~, one vector
        assert np.array_equal(gm.q_block, np.diag(bose_einstein(basis.omegas, 0.3) + 0.5))

    @pytest.mark.parametrize("spec", [BoundarySpec.dirichlet(), BoundarySpec.neumann(),
                                      BoundarySpec.robin(200.0)], ids=lambda s: s.kind.value)
    def test_certified_mi_never_builds_p(self, monkeypatch, spec):
        basis = film_basis(8, 6, spec)
        gm = ga.thermal_momentum_covariance(basis, 0.3)
        weights = []
        to_pixels = ModeBasis.to_pixels

        def spy(self, w):
            weights.append(w)
            return to_pixels(self, w)

        monkeypatch.setattr(ModeBasis, "to_pixels", spy)
        gr = ga.to_real_space(gm, basis, DERIVED)
        assert weights == [] and self.square_arrays(gr, gr.n) == []
        pairs = [(np.arange(5), np.arange(7, 20)), (np.arange(30, 48), np.arange(3))]
        routes = [ga.mutual_information_batch(gr, pairs)[1], run_volume_sweep(gr).route,
                  run_area_sweep(gr, 6).route]
        mi_map(gr)
        assert {route.name for route in routes} == {"classical"}
        # every set is gathered, read from the channels or read in closed form
        assert self.square_arrays(gr, gr.n) == [] and weights == []

        d_eta = ga._mode_prefactors(basis, DERIVED)[1]
        b = d_eta * gm.diagonals[1] * d_eta
        assert gr.p_block.tobytes() == to_pixels(basis, b).tobytes()
        assert len(weights) == 1 and weights[0] is gr._weights[ga.P]   # once, on the first read
        assert gr.data[gr.n:, gr.n:].tobytes() == gr.p_block.tobytes()
        assert len(weights) == 2 and weights[1] is gr._weights[ga.Q]   # data builds Q, keeps P

    def test_to_real_space_holds_no_block(self):
        # the state keeps its mode weights alone, and its channel stacks wait
        # for their first read: an eager Q or P would add a whole n_pixels^2 block
        basis = film_basis(24, 24)
        gm = ga.thermal_momentum_covariance(basis, 0.3)
        tracemalloc.start()
        try:
            gr = ga.to_real_space(gm, basis, DERIVED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert self.square_arrays(gr, gr.n) == []
        assert peak <= 0.1 * basis.grid.n_pixels ** 2 * 8


def tiles(grid, size=3):
    """The centre size x size tile's pixels and those of every tile that
    shares no edge or corner with it."""
    ntx, nty = grid.nx // size, grid.ny // size
    cx, cy = ntx // 2, nty // 2

    def tile(tx, ty):
        return RegionMask.from_rect(grid, tx * size, ty * size, size, size).indices()

    return tile(cx, cy), [tile(tx, ty) for tx in range(ntx) for ty in range(nty)
                          if max(abs(tx - cx), abs(ty - cy)) > 1]


class TestQGather:
    """Certified MI on small pixel sets reads Q_S from Q's channel stack and
    never builds Q."""

    @pytest.mark.parametrize("shape", [(24, 24), (17, 9)], ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("spec", [BoundarySpec.dirichlet(), BoundarySpec.neumann(),
                                      BoundarySpec.robin(200.0)], ids=lambda s: s.kind.value)
    def test_tile_mi_never_builds_q(self, built, spec, shape):
        basis = film_basis(*shape, spec)
        gm = ga.thermal_momentum_covariance(basis, 0.3)
        dense = ga.to_real_space(gm, basis, DERIVED)
        dense.q_block   # built first: every set is sliced from the block
        gr = ga.to_real_space(gm, basis, DERIVED)
        centre, others = tiles(basis.grid)
        assert ga.entropy_route(gr, centre.size, 2 * centre.size).name == "classical"
        del built[:]
        tracemalloc.start()
        try:
            got = [ga.mutual_information(gr, centre, b) for b in others]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == [] and gr._q is None
        assert peak < 0.25 * basis.grid.n_pixels ** 2 * 8
        want = [ga.mutual_information(dense, centre, b) for b in others]
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


class TestChannelGather:
    """A certified state reads each proper pixel set of Q, P and X from the
    block's channel stack, Q's and P's symmetrised, and holds one stack per
    block, each built on its first read."""

    @pytest.mark.parametrize("shape", [(24, 24), (17, 9)], ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("spec", [BoundarySpec.dirichlet(), BoundarySpec.neumann(),
                                      BoundarySpec.robin(200.0)], ids=lambda s: s.kind.value)
    def test_gather_matches_built_block(self, built, spec, shape):
        basis = film_basis(*shape, spec)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        rng = np.random.default_rng(11)
        centre, others = tiles(basis.grid)
        sets = [np.sort(rng.choice(gr.n, size, replace=False)) for size in (1, 4, 12, 30)]
        sets += [np.union1d(centre, other) for other in others[:3]]
        # Q and P through _on, symmetrised; X, read by _LogDets alone, from its stack
        reads = {ga.Q: lambda idx: gr._on(ga.Q, idx), ga.P: lambda idx: gr._on(ga.P, idx),
                 ga.X: lambda idx: basis.pixel_block(gr._stack(ga.X), idx, idx)}
        for k, read in reads.items():
            gathered = [read(idx) for idx in sets]
            assert built == [] and gr._q is None and gr._p is None   # every set gathered
            block = basis.to_pixels(gr._weights[k])
            scale = np.max(np.abs(block))
            for idx, got in zip(sets, gathered):
                assert k == ga.X or np.array_equal(got, got.T)
                assert np.max(np.abs(got - block[np.ix_(idx, idx)])) <= 1e-14 * scale
            del built[:]
        for idx in sets:
            sub = ga.restrict(gr, idx)
            for got in (sub.q_block, sub.p_block):
                assert not got.flags.writeable
            assert sub.q_block.tobytes() == gr._on(ga.Q, idx).tobytes()
            assert sub.p_block.tobytes() == gr._on(ga.P, idx).tobytes()
        # a restriction to every pixel is the one read that builds Q and P, once each
        whole = ga.restrict(gr, np.arange(gr.n))
        assert [w is gr._weights[k] for w, k in zip(built, (ga.Q, ga.P))] == [True, True]
        assert len(built) == 2 and whole._q is gr._q and whole._p is gr._p

    def test_one_stack_per_block(self, monkeypatch):
        basis = film_basis(24, 24)
        weights = []
        channels = ModeBasis.channels
        monkeypatch.setattr(ModeBasis, "channels",
                            lambda self, w: weights.append(w) or channels(self, w))
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        centre, others = tiles(basis.grid)
        for other in others:
            ga.mutual_information(gr, centre, other)
        routes = [run_volume_sweep(gr).route, run_area_sweep(gr, 36).route]
        mi_map(gr)
        assert {route.name for route in routes} == {"classical"}
        # Q's stack from the first tile, X's from the area sweep's complements;
        # P is never read
        counts = {k: sum(w is gr._weights[k] for w in weights) for k in (ga.Q, ga.P, ga.X)}
        assert counts == {ga.Q: 1, ga.P: 0, ga.X: 1} and len(weights) == 2
        assert not hasattr(ModeBasis, "axis_rows")
        # each stack waits for its first read: the map reads X's alone, the
        # full volume sweep Q's alone
        gm = ga.thermal_momentum_covariance(basis, 0.3)
        for protocol, read in ((mi_map, ga.X), (run_volume_sweep, ga.Q)):
            del weights[:]
            gr = ga.to_real_space(gm, basis, DERIVED)
            assert weights == []
            protocol(gr)
            assert len(weights) == 1 and weights[0] is gr._weights[read]


class TestRestrictGathers:
    """``restrict`` reads Q_S and P_S as every proper pixel set is read:
    gathered from the block's channel stack, with no block built."""

    @pytest.mark.parametrize("spec", [BoundarySpec.dirichlet(), BoundarySpec.neumann(),
                                      BoundarySpec.robin(200.0)], ids=lambda s: s.kind.value)
    def test_small_restriction_builds_no_block(self, built, spec):
        basis = film_basis(24, 24, spec)
        gm = ga.thermal_momentum_covariance(basis, 0.3)
        gr = ga.to_real_space(gm, basis, DERIVED)
        idx = RegionMask.from_rect(basis.grid, 10, 10, 3, 3).indices()
        tracemalloc.start()
        try:
            got = ga.von_neumann_entropy(ga.restrict(gr, idx))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == []
        assert peak < 0.25 * basis.grid.n_pixels ** 2 * 8
        dense = ga.to_real_space(gm, basis, DERIVED)
        dense.q_block, dense.p_block   # built first: the set is sliced from them
        assert got == pytest.approx(ga.von_neumann_entropy(ga.restrict(dense, idx)), abs=1e-12)


class TestSymplecticSpectrum:
    def test_vacuum_identity(self):
        g = diagonal_covariance(np.full(5, 0.5))
        assert np.allclose(ga.symplectic_spectrum(g).values, 0.5)

    def test_single_mode_geometric_mean(self):
        data = np.diag([2.0, 0.5])
        g = from_full_matrix(data, ga.MOMENTUM)
        assert ga.symplectic_spectrum(g).values[0] == pytest.approx(1.0, rel=1e-12)

    def test_two_routes_agree_on_random_states(self):
        for seed in range(8):
            g, nus = random_physical_two_mode(seed)
            primary = ga.symplectic_spectrum(g).values
            # oracle: sqrt of positive eigenvalues of -(Omega Gamma)^2
            omega = np.block([[np.zeros((2, 2)), np.eye(2)],
                              [-np.eye(2), np.zeros((2, 2))]])
            m = omega @ g.data
            alt = np.sqrt(np.linalg.eigvals(-m @ m).real)
            alt = np.sort(alt)[::2][::-1]   # collapse duplicate pairs
            assert np.allclose(np.sort(primary), np.sort(alt), atol=1e-10, rtol=1e-10)
            assert np.allclose(np.sort(primary), np.sort(nus), rtol=1e-9)

    def test_unphysical_raises(self):
        with pytest.raises(UnphysicalCovarianceError):
            ga.symplectic_spectrum(diagonal_covariance([0.25, 0.6]))

    @pytest.mark.parametrize("r", [0.0, 0.1])
    def test_not_positive_definite_raises(self, r):
        # Q has a negative eigenvalue; R = 0 and R != 0 take different routes
        data = np.array([[1.0, 2.0, r, 0.0], [2.0, 1.0, 0.0, 0.0],
                         [r, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(UnphysicalCovarianceError, match="positive definite"):
            ga.symplectic_spectrum(from_full_matrix(data, ga.MOMENTUM))

    def test_roundoff_clamped(self):
        g = diagonal_covariance([0.5 - 5e-10])
        assert ga.symplectic_spectrum(g).values[0] == 0.5
        assert ga.von_neumann_entropy(g) == 0.0


class TestEntropy:
    def test_vacuum_zero(self):
        assert ga.von_neumann_entropy(diagonal_covariance(np.full(4, 0.5))) == 0.0

    def test_analytic_point(self):
        s = ga.von_neumann_entropy(diagonal_covariance([1.5]))
        assert s == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("nbar", [0.5, 1.0, 5.0])
    def test_thermal_against_fock_oracle(self, nbar):
        s = ga.von_neumann_entropy(diagonal_covariance([nbar + 0.5]))
        assert s == pytest.approx(thermal_fock_entropy(nbar), abs=1e-8)

    def test_additivity_block_diagonal(self):
        g1 = diagonal_covariance([1.5, 2.5])
        g2 = diagonal_covariance([0.5, 7.0])
        combined = diagonal_covariance([1.5, 2.5, 0.5, 7.0])
        s = ga.von_neumann_entropy(combined)
        assert s == pytest.approx(ga.von_neumann_entropy(g1) + ga.von_neumann_entropy(g2),
                                  abs=1e-10)

    def test_invariance_under_orthogonal_rotation(self):
        basis = film_basis(4, 4)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        rng = np.random.default_rng(3)
        o = np.linalg.qr(rng.normal(size=(16, 16)))[0]
        rot = np.block([[o, np.zeros((16, 16))], [np.zeros((16, 16)), o]])
        g2 = from_full_matrix(rot @ gr.data @ rot.T, ga.REAL)
        assert ga.von_neumann_entropy(g2) == pytest.approx(ga.von_neumann_entropy(gr),
                                                           abs=1e-9 * ga.von_neumann_entropy(gr))

    def test_large_occupation_stable(self):
        # stable formula: f(nu) ~ ln(nu) + 1 for huge nu, no cancellation
        s = ga.von_neumann_entropy(diagonal_covariance([1e12]))
        assert s == pytest.approx(math.log(1e12) + 1.0, rel=1e-12)


class TestTwoModeSqueezedThermal:
    def test_gaussian_matches_fock_oracle(self):
        nbar, r, cutoff = 0.3, 0.4, 24
        ch, sh = math.cosh(r), math.sinh(r)
        s_mat = np.array([[ch, sh, 0, 0], [sh, ch, 0, 0],
                          [0, 0, ch, -sh], [0, 0, -sh, ch]])
        gamma0 = np.diag([nbar + 0.5] * 4)
        g = from_full_matrix(s_mat @ gamma0 @ s_mat.T, ga.MOMENTUM)

        # Fock oracle: rho = U (rho_th x rho_th) U+, U = exp(r (a+b+ - a b))
        d = cutoff + 1
        a = np.diag(np.sqrt(np.arange(1, d)), 1)
        kron = np.kron
        gen = r * (kron(a.T, a.T) - kron(a, a))
        u = scipy.linalg.expm(gen)
        k = np.arange(d)
        p = (nbar / (1 + nbar)) ** k / (1 + nbar)
        rho = u @ np.diag(kron(p, p)) @ u.conj().T

        # global entropy (invariant under the squeeze) through a correlated matrix
        s_global = ga.von_neumann_entropy(g)
        assert s_global == pytest.approx(2 * thermal_fock_entropy(nbar), abs=1e-6)

        # reduced single-mode state: partial trace over mode 2
        rho_1 = np.einsum("ikjk->ij", rho.reshape(d, d, d, d))
        evals = np.linalg.eigvalsh(rho_1)
        evals = evals[evals > 1e-14]
        s_reduced_fock = float(-(evals * np.log(evals)).sum())
        s_reduced = ga.von_neumann_entropy(ga.restrict(g, np.array([0])))
        assert s_reduced == pytest.approx(s_reduced_fock, abs=1e-6)


class TestRestrict:
    def setup_method(self):
        self.basis = film_basis(4, 4)
        self.grid = self.basis.grid
        gm = ga.thermal_momentum_covariance(self.basis, 0.3)
        self.gr = ga.to_real_space(gm, self.basis, DERIVED)

    def test_full_mask_identity(self):
        sub = ga.restrict(self.gr, RegionMask.full(self.grid))
        assert np.array_equal(sub.data, self.gr.data)

    def test_single_pixel_block(self):
        gathered = ga.restrict(self.gr, np.array([5]))   # Q and P still unbuilt
        n = self.gr.n
        expected = np.array([[self.gr.data[5, 5], self.gr.data[5, n + 5]],
                             [self.gr.data[n + 5, 5], self.gr.data[n + 5, n + 5]]])
        assert gathered.data[0, 1] == gathered.data[1, 0] == expected[0, 1] == 0.0
        for i, block in enumerate((self.gr.q_block, self.gr.p_block)):
            assert abs(gathered.data[i, i] - expected[i, i]) <= 1e-14 * np.max(np.abs(block))
        sub = ga.restrict(self.gr, np.array([5]))   # sliced from the built blocks
        assert np.array_equal(sub.data, expected)

    def test_union_contains_marginals_as_principal_blocks(self):
        ia, ib = np.array([1, 4, 9]), np.array([2, 7])
        union = ga.restrict(self.gr, np.concatenate([ia, ib]))
        sub_a = ga.restrict(self.gr, ia)
        merged = np.sort(np.concatenate([ia, ib]))
        pos = np.searchsorted(merged, ia)
        rows = np.concatenate([pos, len(merged) + pos])
        assert np.array_equal(union.data[np.ix_(rows, rows)], sub_a.data)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ga.restrict(self.gr, np.array([], dtype=int))

    def test_momentum_mask_rejected(self):
        gm = ga.thermal_momentum_covariance(self.basis, 0.3)
        with pytest.raises(ValueError):
            ga.restrict(gm, RegionMask.full(self.grid))

    def test_mask_from_another_grid_rejected(self):
        # a 2x2 corner of a 4x4 grid is pixels 0, 1, 4 and 5 there, not on 6x6
        basis = film_basis(6, 6)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        corner = RegionMask.from_rect(self.grid, 0, 0, 2, 2)
        with pytest.raises(ValueError, match="grid"):
            ga.restrict(gr, corner)
        with pytest.raises(ValueError, match="grid"):
            ga.mutual_information(gr, corner, np.array([20, 21]))

    @pytest.mark.parametrize("selection", [[2.5], np.array([3.0, 4.0]), np.array([True, False])],
                             ids=["float-list", "float-array", "bool-array"])
    def test_non_integer_indices_rejected(self, selection):
        # [2.5] would be truncated to pixel 2, [True, False] read as pixels {1, 0}
        with pytest.raises(ValueError, match="integer"):
            ga.restrict(self.gr, selection)
        with pytest.raises(ValueError, match="integer"):
            ga.mutual_information(self.gr, selection, np.array([9, 10]))


class TestMutualInformation:
    def test_momentum_product_state_zero(self):
        basis = film_basis(6, 6, BoundarySpec.neumann())
        gm = ga.thermal_momentum_covariance(basis, 0.3)
        rng = np.random.default_rng(7)
        perm = rng.permutation(basis.n_modes)
        assert ga.mutual_information(gm, perm[:10], perm[10:30]) <= 1e-10

    def test_pure_state_identity(self):
        basis = film_basis(6, 6)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.0), basis, DERIVED)
        a = RegionMask.from_columns(basis.grid, 0, 3)
        a_c = RegionMask(basis.grid, ~a.pixels)
        mi = ga.mutual_information(gr, a, a_c)
        assert mi == pytest.approx(2.0 * ga.von_neumann_entropy(ga.restrict(gr, a)), abs=1e-8)

    def test_against_independent_oracle(self):
        # independent route: assemble blocks by hand, nu = sqrt(eig(Q P))
        basis = film_basis(4, 4)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        q, p = gr.q_block, gr.p_block

        def oracle_entropy(idx):
            qs, ps = q[np.ix_(idx, idx)], p[np.ix_(idx, idx)]
            nus = np.sqrt(np.abs(np.linalg.eigvals(qs @ ps)))
            return sum((v + 0.5) * math.log(v + 0.5) - (v - 0.5) * math.log(v - 0.5)
                       for v in nus if v > 0.5 + 1e-15)

        ia = RegionMask.from_columns(basis.grid, 0, 2).indices()
        ib = RegionMask.from_columns(basis.grid, 2, 4).indices()
        oracle = (oracle_entropy(ia) + oracle_entropy(ib)
                  - oracle_entropy(np.concatenate([ia, ib])))
        assert ga.mutual_information(gr, ia, ib) == pytest.approx(oracle, abs=1e-5)

    def test_empty_batch_rejected(self):
        basis = film_basis(4, 4)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        with pytest.raises(ValueError, match="batch is empty"):
            ga.mutual_information_batch(gr, [])

    def test_overlap_rejected(self):
        basis = film_basis(4, 4)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        for a, b in (([0, 1], [1, 2]), (np.arange(8), np.arange(4, 12))):   # whole columns too
            with pytest.raises(ValueError, match="overlap"):
                ga.mutual_information(gr, np.array(a), np.array(b))

    def test_symmetry(self):
        basis = film_basis(5, 5)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        ia, ib = np.arange(0, 8), np.arange(12, 20)
        assert ga.mutual_information(gr, ia, ib) == pytest.approx(
            ga.mutual_information(gr, ib, ia), abs=1e-10)

    def test_monotone_under_region_growth(self):
        basis = film_basis(6, 6)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(basis, 0.3), basis, DERIVED)
        b = RegionMask.from_columns(basis.grid, 4, 6)
        previous = 0.0
        for width in (1, 2, 3):
            a = RegionMask.from_columns(basis.grid, 0, width)
            mi = ga.mutual_information(gr, a, b)
            assert mi >= previous - 1e-8
            previous = mi


class TestClassicalRegime:
    def test_sweep_mi_temperature_independent_and_p_block_scalar(self):
        # every mode is deep in the Rayleigh-Jeans regime at 0.3 K and still
        # at 30 uK, so real-space MI is set by the lattice Green's function
        # alone; a complete Dirichlet basis makes P a multiple of I
        basis = film_basis(10, 10)
        hot, cold = (ga.to_real_space(ga.thermal_momentum_covariance(basis, t), basis, DERIVED)
                     for t in (0.3, 30e-6))
        p = hot.p_block
        assert np.max(np.abs(p - p[0, 0] * np.eye(basis.grid.n_pixels))) <= 1e-12 * p[0, 0]
        mi_hot = run_volume_sweep(hot).mi_values
        mi_cold = run_volume_sweep(cold).mi_values
        assert mi_hot.min() > 0.1
        assert np.max(np.abs(mi_hot - mi_cold)) <= 1e-6


def exact_entropy(gamma):
    return math.fsum(ga._entropy_terms(ga.symplectic_spectrum(gamma).values))


class TestCertifiedClassicalRoute:
    """The certified floor bounds every exact symplectic eigenvalue of a
    restricted thermal state from below, and the per-mode constant bounds
    the log-det route's error."""

    SPECS = [BoundarySpec.dirichlet(), BoundarySpec.neumann(), BoundarySpec.robin(200.0)]

    @staticmethod
    def thermal(spec, temperature, nx=8, ny=8):
        basis = film_basis(nx, ny, spec)
        return ga.to_real_space(ga.thermal_momentum_covariance(basis, temperature),
                                basis, DERIVED)

    @staticmethod
    def floors(sub):
        """The certified floors, ascending: nu_floor, except that on a
        Neumann basis the lowest is nu_floor (1 - |S|/N)."""
        out = np.full(sub.n, sub.nu_floor)
        n_pixels = sub.basis.grid.n_pixels
        if sub.basis.n_modes < n_pixels:
            out[0] *= 1.0 - sub.n / n_pixels
        return out

    @pytest.mark.parametrize("temperature", [0.3, 1e-4])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_floor_is_a_lower_bound(self, spec, temperature):
        gr = self.thermal(spec, temperature)
        n = gr.n
        rng = np.random.default_rng(17)
        interior = RegionMask.from_columns(gr.basis.grid, 1, 7, 1, 7).indices()
        sets = [interior] + [np.delete(np.arange(n), p) for p in (0, 27, 36, n - 1)]
        sets += [rng.choice(n, size=m, replace=False) for m in (1, 2, 9, 25, 40, 56, 62)]
        for idx in sets:
            sub = ga.restrict(gr, idx)
            floors = self.floors(sub)
            exact = ga.symplectic_spectrum(sub).values
            # Q and P carry round-off of ~1e-16 of their largest entry
            assert np.all(exact >= floors * (1.0 - 1e-9)), (spec.kind, idx.size)
            bound = (ga.MODE_ERROR * np.sum(floors ** -2.0) + 0.5 * sub.n * math.log1p(sub.p_spread)
                     if floors[0] >= 1 else math.inf)
            assert ga.entropy_error_bound(sub) == pytest.approx(bound, rel=1e-12)
            assert ga.entropy_error_bound(gr, idx.size) == ga.entropy_error_bound(sub)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_p_spread_enters_bound_and_route(self, spec):
        # at 0.1 mK b = d_eta^2 (n + 1/2) spreads by ~3e-10, so P's closed-form
        # share may err by 1/2 |S| ln(1 + delta), a third of each bound
        gr = self.thermal(spec, 1e-4)
        omegas = gr.basis.omegas
        b = DERIVED.luttinger_k * omegas / DERIVED.c3 * (bose_einstein(omegas, 1e-4) + 0.5)
        delta = b.max() / b.min() - 1.0
        assert delta > 1e-10 and gr.p_spread == pytest.approx(delta, rel=1e-5)
        for size in (1, 9, 40):
            sub = ga.restrict(gr, np.arange(size))
            assert sub.p_spread == gr.p_spread
            log_dets = ga.MODE_ERROR * np.sum(self.floors(sub) ** -2.0)
            share = 0.5 * size * math.log1p(delta)
            assert share > 0.2 * log_dets
            assert ga.entropy_error_bound(sub) == pytest.approx(log_dets + share, rel=1e-6)
            assert ga.entropy_route(gr, 1, size).error_bound == ga.entropy_error_bound(sub)

    def test_p_spread_alone_denies_classical_route(self, monkeypatch):
        # a diagonal mode state whose P~ spreads by 1e-8 keeps a floor of ~1e7,
        # which alone would certify every set; its spread certifies none.  It
        # is stored as vectors, as thermal_momentum_covariance stores its own
        gm = ga.thermal_momentum_covariance(film_basis(6, 6), 0.3)
        q, p = gm.diagonals
        tilt = 1.0 + 1e-8 * np.linspace(0.0, 1.0, gm.n)
        gm = ga.CovarianceMatrix.__new__(ga.CovarianceMatrix)._store(
            q, p * tilt, None, ga.MOMENTUM, gm.basis)
        gr = ga.to_real_space(gm, gm.basis, DERIVED)
        assert gr.nu_floor > 1e6 and 0.9e-8 < gr.p_spread < 1.1e-8
        assert ga.MODE_ERROR * gr.n / gr.nu_floor ** 2 < 1e-12
        calls = self.count_spectra(monkeypatch)
        sweep = run_volume_sweep(gr)
        assert sweep.route.name == "exact" and calls
        for point in sweep.raw_points:
            a, b = point.pair.a.indices(), point.pair.b.indices()
            want = sum(exact_entropy(ga.restrict(gr, s)) * sign
                       for s, sign in ((a, 1), (b, 1), (np.union1d(a, b), -1)))
            assert point.mi == pytest.approx(want, abs=1e-10)

    @staticmethod
    def principal_rows(m, r, tol=0.0):
        """An index list S with r[S][:, S] equal to m, entry for entry within
        tol, or None."""
        diag = np.diagonal(r)

        def extend(rows):
            i = len(rows)
            if i == m.shape[0]:
                return rows
            hits = np.flatnonzero((np.abs(diag - m[i, i]) <= tol)
                                  & np.all(np.abs(r[:, rows] - m[i, :i]) <= tol, axis=1))
            return next((found for h in hits if (found := extend(rows + [h])) is not None), None)

        return extend([])

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_batch_factors_q_alone(self, spec, monkeypatch):
        # nothing is inverted; each whole-column set, and no other, takes a
        # stack of its columns' blocks of the channel Grams C_my; every
        # other factor of a classical batch is of a principal submatrix of Q
        # (small sets), of the closed-form inverse W = X + u u^T / c of
        # M = Q + c u u^T (u terms on Neumann only), read through complements
        # on the whole lattice, or of the box inverse Z = (M_B)^-1 that
        # eliminating the ring from W leaves on the lattice less one pixel;
        # on Neumann each complement's submatrix is bordered by w = c Z u_B
        # (u on the whole lattice).  Neither box's log-det takes a factor of
        # the box.
        gr = self.thermal(spec, 0.3, 7, 5)
        n, q = gr.n, gr.q_block
        neumann = spec.kind.value == "neumann"
        c = gr._weights[ga.Q].sum() / n
        x = gr.basis.to_pixels(gr._weights[ga.X])   # read from X's stack, to round-off
        w_lattice = x + (1 / n) / c if neumann else x   # as _LogDets forms it
        w_tol = 1e-13 * np.max(np.abs(w_lattice))
        m_box = (q + c / n if neumann else q)[1:, 1:]   # M on the lattice less pixel 0
        z_box = np.linalg.inv(m_box)
        w_box = c * z_box.sum(axis=1) / math.sqrt(n)
        tol = 1e-10 * np.max(np.abs(z_box))
        bx, ny = gr.basis.axes[0], gr.basis.grid.ny
        grams = np.zeros((ny, bx.shape[0], bx.shape[0]))   # C_my, one mode at a time
        for weight, (mx, my) in zip(gr._weights[ga.Q], zip(*np.divmod(gr.basis.kron, ny))):
            grams[my] += weight * np.outer(bx[mx], bx[mx])
        reading, factored = [], []
        reduced, cholesky = ga._LogDets.reduced, ga._cholesky
        monkeypatch.setattr(ga._LogDets, "reduced",
                            lambda self, idx: reading.append(idx) or reduced(self, idx))
        monkeypatch.setattr(ga, "_cholesky",
                            lambda m: factored.append((len(reading), m)) or cholesky(m))
        monkeypatch.setattr(np.linalg, "inv", self.refused)
        for box in (np.arange(n), np.arange(1, n)):   # the whole box only on the second
            pairs = [(box[:k], box[k + 1:]) for k in range(1, box.size - 1)]
            pairs += [(box[k:k + 1], np.delete(box, k)) for k in range(box.size) if box[0]]
            mis, route = ga.mutual_information_batch(gr, pairs)
            assert route.name == "classical" and np.all(mis > 0)
        assert max(m.shape[-1] for _, m in factored) <= n // 2 + 1
        stacks = {read: m for read, m in factored if m.ndim == 3}
        assert len(stacks) == 18   # 6 A and 6 B on the whole box, 6 B on the other
        for read, idx in enumerate(reading, 1):
            cols = np.unique(idx // ny)
            if idx.size < cols.size * ny:   # not every pixel of the columns it touches
                assert read not in stacks
                continue
            want = grams[:, cols[:, None], cols]
            assert np.max(np.abs(stacks.pop(read) - want)) <= 1e-12 * np.max(grams)
        assert stacks == {}
        through = 0
        for _, m in factored:
            if m.ndim == 3:
                continue
            if self.principal_rows(m, q) is not None:
                continue
            through += 1
            if self.principal_rows(m, w_lattice, w_tol) is not None:   # W_RR, or W_DD unbordered
                continue
            block, border = (m[:-1, :-1], m[-1, :-1]) if neumann else (m, None)
            if self.principal_rows(block, w_lattice, w_tol) is not None:
                assert neumann and np.all(border == 1 / math.sqrt(n)), m.shape
                continue
            rows = self.principal_rows(block, z_box, tol)
            assert rows, m.shape
            if neumann:
                assert np.max(np.abs(border - w_box[rows])) <= 1e-10 * np.max(np.abs(w_box))
        assert through >= n - 3

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_complement_read_keeps_no_box_square(self, spec):
        # the ring is eliminated into a thin |R| x |B| factor: after reading a
        # large set of the 80-pixel interior through its complement, no array
        # the log-dets keep has |B|^2 entries, and the value is Q_S's log-det
        gr = self.thermal(spec, 0.3, 12, 10)
        box = RegionMask.from_columns(gr.basis.grid, 1, 11, 1, 9).indices()
        logdets = ga._LogDets(gr, box)
        c, flat = logdets.c, (gr.basis.n_modes < gr.n) / gr.n
        for idx in (np.delete(box, 17), box[:60], box):
            want = (0.5 * math.log1p(-idx.size * flat)
                    + 0.5 * np.linalg.slogdet(gr.q_block[np.ix_(idx, idx)] / c)[1])
            assert logdets.reduced(idx) == pytest.approx(want, abs=1e-10)
        kept = {k: v.size for k, v in vars(logdets).items() if isinstance(v, np.ndarray)}
        assert max(kept.values()) < box.size ** 2, kept

    @staticmethod
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    def test_neumann_lattice_minus_one_pixel(self):
        # the uniform vector is nearly inside this set, so one nu falls ~160x
        # below the mode spectrum; interlacing from the whole lattice gives 0
        gr = self.thermal(BoundarySpec.neumann(), 0.3, 16, 16)
        sub = ga.restrict(gr, np.delete(np.arange(gr.n), 8 * 16 + 8))
        exact = ga.symplectic_spectrum(sub).values
        floors = self.floors(sub)
        assert exact[0] < 1e-2 * gr.nu_floor
        assert floors[0] == pytest.approx(gr.nu_floor / 256, rel=1e-12)
        assert exact[0] >= floors[0] and np.all(exact[1:] >= floors[1:] * (1.0 - 1e-9))
        assert ga.entropy_error_bound(sub) <= ga.CLASSICAL_TOL
        assert self.floors(gr)[0] == 0.0 and ga.entropy_error_bound(gr) == math.inf

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_truncated_basis_not_certified(self, spec):
        # the bound assumes G lacks at most the flat Neumann mode
        basis = film_basis(6, 6, spec)
        cut = ModeBasis(basis.grid, basis.boundary, basis.modes[:-1], basis.axes)
        gr = ga.to_real_space(ga.thermal_momentum_covariance(cut, 0.3), cut, DERIVED)
        assert gr.nu_floor is None
        assert ga.entropy_error_bound(ga.restrict(gr, np.arange(10))) == math.inf

    def test_mode_error_constant(self):
        nus = np.geomspace(1.0, 1e4, 20001)
        gap = np.log(nus) + 1.0 - ga._entropy_terms(nus)
        assert np.all(gap > 0.0)
        assert np.max(gap * nus ** 2) <= 1.09 / 24 <= ga.MODE_ERROR

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_classical_entropy_within_bound(self, spec):
        gr = self.thermal(spec, 0.3)
        for idx in (np.arange(5), np.arange(10, 50), np.arange(gr.n - 1)):
            sub = ga.restrict(gr, idx)
            bound = ga.entropy_error_bound(sub)
            assert bound <= ga.CLASSICAL_TOL
            assert abs(ga.von_neumann_entropy(sub) - exact_entropy(sub)) <= 1e-10

    @staticmethod
    def count_spectra(monkeypatch):
        calls = []
        spectrum = ga.symplectic_spectrum
        monkeypatch.setattr(ga, "symplectic_spectrum", lambda g: calls.append(g.n) or spectrum(g))
        return calls

    def test_restriction_of_certified_state_keeps_its_mi(self, monkeypatch):
        # a restriction keeps the certificate but not the mode weights the
        # log-det batches read, so its entropies are taken one set at a time
        gr = self.thermal(BoundarySpec.dirichlet(), 0.3)
        sub = ga.restrict(gr, np.arange(20))
        assert sub.nu_floor is not None and sub._weights is None
        calls = self.count_spectra(monkeypatch)
        a, b = np.arange(3), np.arange(5, 9)
        mi, route = ga.mutual_information_batch(sub, [(a, b)])
        assert route.name == "classical" and calls == []
        assert mi[0] == pytest.approx(ga.mutual_information(gr, a, b), abs=1e-12)

    def test_certified_state_takes_log_dets(self, monkeypatch):
        gr = self.thermal(BoundarySpec.dirichlet(), 0.3)
        calls = self.count_spectra(monkeypatch)
        ga.von_neumann_entropy(ga.restrict(gr, np.arange(20)))
        ga.mutual_information(gr, np.arange(8), np.arange(16, 40))
        assert calls == []

    @pytest.mark.parametrize("state", ["zero-temperature", "public-constructor", "squeezed",
                                       "momentum", "neumann-lattice"])
    def test_uncertified_state_takes_exact_route(self, monkeypatch, state):
        spec = BoundarySpec.neumann() if state == "neumann-lattice" else BoundarySpec.dirichlet()
        gr = self.thermal(spec, 0.0 if state == "zero-temperature" else 0.3)
        if state == "public-constructor":
            gr = from_full_matrix(gr.data, ga.REAL, basis=gr.basis)
        elif state in ("squeezed", "momentum"):
            gm = ga.thermal_momentum_covariance(gr.basis, 0.3)
            gr = gm if state == "momentum" else ga.to_real_space(squeezed(gm, seed=2),
                                                                 gr.basis, DERIVED)
        assert (gr.nu_floor is None) == (state not in ("zero-temperature", "neumann-lattice"))
        calls = self.count_spectra(monkeypatch)
        s = ga.von_neumann_entropy(gr)
        assert calls == [gr.n]
        assert s == exact_entropy(gr)
