"""Exception types shared across the package."""


class KoopmankitError(Exception):
    """Base class for package-specific failures."""


class BlowUp(KoopmankitError):
    """Trajectory norm exceeded the divergence guard during simulation."""

    def __init__(self, t, norm, limit):
        self.t = t
        self.norm = norm
        self.limit = limit
        super().__init__(
            f"state norm {norm:.3e} exceeded {limit:.1e} at t={t:g}; "
            "trajectory is diverging"
        )


class NotStabilizable(KoopmankitError):
    """No stabilizing solution exists for the requested Riccati problem.

    ``modes`` carries the offending eigenvalues when a PBH test identified
    specific uncontrollable unstable modes; it is empty when the failure was
    detected structurally (no n-dimensional stable Hamiltonian subspace).
    """

    def __init__(self, message, modes=(), observables=()):
        self.modes = tuple(modes)
        self.observables = tuple(observables)
        super().__init__(message)


class DegenerateSpectrum(KoopmankitError):
    """An operation required a simple, well-separated eigenvalue and did not find one."""


class NumericsError(KoopmankitError):
    """A dense linear-algebra routine failed to converge or produced no usable result."""


class TrajectoryError(ValueError):
    """A trajectory unfit for a data set; ``index`` is its place in the input list."""

    def __init__(self, index, reason):
        self.index = index
        self.reason = reason
        super().__init__(f"trajectory {index}: {reason}")
