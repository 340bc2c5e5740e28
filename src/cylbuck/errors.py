"""Exception types shared across the package."""


class CylbuckError(Exception):
    """Base class for all numerical/validation failures raised by cylbuck."""


class NoRoot(CylbuckError):
    """No real root: the trivial branch's (1+a)^2 = 1 + nu*lambda*(2-lambda) is <= 0."""


class NonConvergence(CylbuckError):
    """A LAPACK eigensolve of the oracle (eigvalsh or the Korn ratios' dsyevr) did not converge."""


class SingularSystem(CylbuckError):
    """Quadratic minimization hit a (near-)singular 2x2 Hessian."""


class WindowTooSmall(CylbuckError):
    """A result reaches the sweep window's boundary: the sweep's minimizer on
    it, mode's harmonics past it, or a Koiter band (``koiter_circle``) whose
    outer circle reaches past it."""


class AssemblyDegenerate(CylbuckError):
    """A form the oracle factors (a mode's stiffness, e2 or grad2) is not positive definite."""


class ZeroDenominator(CylbuckError):
    """Destabilizing form vanishes on the whole mode space (nothing to buckle)."""


class EmptySet(CylbuckError):
    """No integer wave numbers found within the requested tolerance."""


class QuadratureUnderResolved(CylbuckError):
    """Self-check against a refined rule exceeded tolerance; raise resolution."""


class OutputTooLarge(CylbuckError):
    """A command's output would exceed its memory budget, or a window scan its
    budget of pairs; it is refused before anything is allocated or walked."""


class BoundViolated(CylbuckError):
    """A measured bound that pruned a scan does not hold on its input."""
