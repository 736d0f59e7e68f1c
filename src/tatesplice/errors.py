"""Exception types shared across the package."""


class TateSpliceError(Exception):
    """Base class for all package-specific errors."""


class PolynomialSyntaxError(TateSpliceError):
    """Malformed polynomial text; carries the byte offset of the defect."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class UnknownVariableError(PolynomialSyntaxError):
    def __init__(self, name, offset):
        super().__init__(f"unknown variable {name!r}", offset)
        self.name = name


class NegativeExponentError(PolynomialSyntaxError):
    def __init__(self, offset):
        super().__init__("negative exponent", offset)


class ContextMismatchError(TateSpliceError):
    """Operands live over different variable contexts or fields."""


class InhomogeneousInputError(TateSpliceError):
    """An operation that requires homogeneous input received a mixed-degree polynomial."""


class NotInIdealError(TateSpliceError):
    """Membership certificate failed: the element has a nonzero normal form."""


class DegreeMismatchError(TateSpliceError):
    """A matrix entry is not homogeneous of the degree forced by the twists."""


class NotAComplexError(TateSpliceError):
    """d squared is nonzero; carries the offending position and a witness entry."""

    def __init__(self, position, row, col, witness):
        super().__init__(
            f"d^2 != 0 at position {position}: entry ({row},{col}) = {witness}"
        )
        self.position = position
        self.row = row
        self.col = col
        self.witness = witness


class NotChainMapError(TateSpliceError):
    """A square of the would-be chain map fails to commute; carries a witness."""

    def __init__(self, position, row, col, witness):
        super().__init__(
            f"square at position {position} does not commute: "
            f"entry ({row},{col}) = {witness}"
        )
        self.position = position
        self.row = row
        self.col = col
        self.witness = witness


class WindowEdgeError(TateSpliceError):
    """Homology requested at a window edge where a differential is missing."""


class NoSolutionError(TateSpliceError):
    """A homotopy/lifting linear system is inconsistent (or the window is too short)."""


class LiftIdentityError(TateSpliceError):
    """The identity g = sum(a_i * f_i) behind a homotopy or lift matrix fails."""


class ContainmentError(TateSpliceError):
    """The ideal (g) is not contained in (f)."""


class NotRegularError(TateSpliceError):
    """A sequence required to be regular is not."""


class AcyclicityError(TateSpliceError):
    """A homology group that must vanish does not; carries position and degree."""

    def __init__(self, position, degree, dim):
        super().__init__(
            f"H_{position} has dimension {dim} in internal degree {degree}"
        )
        self.position = position
        self.degree = degree
        self.dim = dim


class H0IsoError(TateSpliceError):
    """The induced map on degree-zero homology is not an isomorphism."""

    def __init__(self, degree, detail):
        super().__init__(f"H0 comparison fails in internal degree {degree}: {detail}")
        self.degree = degree


class WindowTooSmallError(TateSpliceError):
    """The materialized window does not contain the positions required."""


class LiftError(TateSpliceError):
    """Degreewise lifting of a comparison map failed (window too short)."""


class DocumentError(TateSpliceError):
    """A persisted output document lacks, or malforms, a section that
    verification reads."""


class SelfCheckError(TateSpliceError):
    """An internal consistency check failed, so the result cannot be trusted."""
