"""Exception types shared across the package, and the exit codes: the
command line prints `label: message` of an error as one stderr line and exits
with its `exit_code`, which a subclass inherits unless it overrides it. A
MemoryError, which is not a package error, exits with EXIT_MEMORY."""

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_IO = 4
EXIT_MEMORY = 5


class TateSpliceError(Exception):
    """Base class for all package-specific errors."""

    exit_code = EXIT_CERTIFICATE
    label = "certificate failure"


class InvalidInstanceError(TateSpliceError):
    """Base class for instances that fail validation."""

    exit_code = EXIT_VALIDATION
    label = "validation error"


class PolynomialSyntaxError(TateSpliceError):
    """Malformed polynomial text; carries the byte offset of the defect."""

    exit_code = EXIT_IO
    label = "parse error"

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


class InhomogeneousInputError(InvalidInstanceError):
    """An operation that requires homogeneous input received a mixed-degree polynomial."""


class NotInIdealError(InvalidInstanceError):
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


class LiftIdentityError(InvalidInstanceError):
    """The identity g = sum(a_i * f_i) behind a homotopy or lift matrix fails."""


class ContainmentError(InvalidInstanceError):
    """The ideal (g) is not contained in (f)."""


class NotRegularError(InvalidInstanceError):
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
    """A file cannot be read, or a persisted output document lacks, or
    malforms, a section that verification reads."""

    exit_code = EXIT_IO
    label = "error"


class SelfCheckError(TateSpliceError):
    """An internal consistency check failed, so the result cannot be trusted."""
