"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes (see cli.exit_code_for):
config problems exit 2, numerical failures exit 3, and covariance
matrices violating the uncertainty bound exit 4.
"""


class ThirdSoundError(Exception):
    """Base class for all package errors."""


class ConfigError(ThirdSoundError):
    """Malformed or incomplete run configuration."""


class NumericalError(ThirdSoundError):
    """A numerical routine failed (non-convergence, rank deficiency, ...)."""


class UnstableRobinError(NumericalError):
    """Robin boundary parameter admits a bound mode with k^2 < 0."""


class RankDeficiencyError(NumericalError):
    """Least-squares system is underdetermined beyond declared degeneracies."""


class UnphysicalCovarianceError(ThirdSoundError):
    """Symplectic eigenvalue below the uncertainty bound 1/2."""
