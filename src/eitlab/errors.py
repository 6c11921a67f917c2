"""Exception types shared across the package."""


class EitlabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(EitlabError):
    """Operands live on grids with different node counts or lengths."""


class NonZeroMean(EitlabError):
    """Integration requested for a function outside the zero-mean subspace."""


class NoSpectralGap(EitlabError):
    """Singular values show no clean rank cutoff; discretization under-resolved."""


class CertificateFailed(EitlabError):
    """Completed trace violates the conjugate Cauchy-Riemann identity."""

    trace: int = 0  # column of the worst trace in the certified block


class TooCloseToContour(EitlabError):
    """Target lies inside a quadrature exclusion band or the winding certificate."""


class UnivalenceViolated(EitlabError):
    """Polynomial map fails the sufficient injectivity condition."""


class InterpolationUnderresolved(EitlabError):
    """Fourier tail of a reparametrization is too large for the grid."""


class SingularInterior(EitlabError):
    """Interior stiffness block is not invertible."""


class NonManifoldMesh(EitlabError):
    """Mesh violates manifold or boundary-loop requirements."""


class DerivativeVanishes(EitlabError):
    """Tangential derivative of the chart trace vanishes at the anchor."""


class WindowCollapse(EitlabError):
    """Chart window shrank below the minimum usable size."""


class OutOfChart(EitlabError):
    """Point falls outside the domain of a boundary chart."""


class EmptyCloud(EitlabError):
    """Point-cloud metric requested on an empty cloud."""


class ConfigInvalid(EitlabError):
    """Experiment configuration failed validation."""


class AllChartsFailed(EitlabError):
    """No anchor admitted a valid boundary chart."""
