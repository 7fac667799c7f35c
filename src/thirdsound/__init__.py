"""Mutual-information area laws in thin-film superfluid helium simulators.

The package covers the full desk-scale pipeline: material constants and
dispersion (physics), Helmholtz mode bases with Dirichlet/Neumann/Robin
boundaries (geometry), thermal covariance matrices with symplectic entropy
and mutual information (gaussian), subsystem sweeps and local-information
maps (regions), single-quadrature covariance reconstruction (reconstruct),
finite-size fits (fitting) and a batch CLI (cli).
"""

__version__ = "0.1.0"

from .errors import (ConfigError, NumericalError, RankDeficiencyError,
                     ThirdSoundError, UnphysicalCovarianceError,
                     UnstableRobinError)
from .physics import (FilmParams, DerivedParams, bose_einstein, derive_params,
                      dispersion_thin_film, quantum_regime_report, HBAR, K_B)
from .geometry import (BoundaryKind, BoundarySpec, Grid, Mode, ModeBasis,
                       build_basis, solve_wavenumbers_1d)
from .gaussian import (CovarianceMatrix, SymplecticSpectrum,
                       mutual_information, restrict, symplectic_spectrum,
                       thermal_momentum_covariance, to_real_space,
                       von_neumann_entropy)
from .regions import (RegionMask, RegionStats, SweepResult, area_sweep,
                      mi_map, run_area_sweep, run_volume_sweep, volume_sweep)
from .reconstruct import (ReconstructionResult, TwoPointSeries, fit_covariance,
                          suggested_times, synth_two_point)
from .fitting import (AreaLawFit, CalabreseFit, area_law_fit, calabrese_fit,
                      fit_calabrese_curve)
