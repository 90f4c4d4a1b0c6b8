"""Exception types shared across the toolkit, and the CLI exit code of each.

The command line prints `error: <message>` for every diffalg error and exits
with the class's `exit_code`:

    1  any diffalg error not listed below (e.g. leaders that are not an
       antichain, an --order-bound over its cap, ExponentOverflow,
       DegreeTooLarge: a gcd whose remainder sequence needs a
       pseudo-division of more than `field.MAX_PRS_STEPS` steps, or one
       that multiplies in more than `field.MAX_BITS` bits of leading
       coefficients, or a power of a value at a point whose integers may
       pass the same `field.MAX_BITS`)
    2  ParseError, DivisionByZero
    3  PointNotOnVariety
    4  UnsupportedForPartial, OrderlyRequired

The CLI itself also exits 2 on a usage error or a file it cannot read, and
1 on a result with an integer of more digits than the interpreter prints.
"""


class DiffAlgError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class DivisionByZero(DiffAlgError):
    """Division by a zero field element or zero operator."""

    exit_code = 2


class ExponentOverflow(DiffAlgError):
    """An exponent of 2^31 or more in a field variable other than the first,
    past its digit of a packed monomial (see `field`)."""

    def __init__(self):
        super().__init__("exponent over 2147483647 in a field variable "
                         "other than the first")


class DegreeTooLarge(DiffAlgError):
    """A gcd needs a pseudo-division of more than `field.MAX_PRS_STEPS`
    steps, one of degree D by degree E taking at most D - E + 1, or one
    whose steps multiply the remainder by more than `field.MAX_BITS` bits
    of the divisor's leading coefficient."""

    def __init__(self, degree, divisor, cap,
                 what="steps of pseudo-division"):
        super().__init__(f"gcd needs more than {cap} {what} (degree "
                         f"{degree} by degree {divisor} in one field "
                         f"variable)")


class BadDerivation(DiffAlgError):
    """Derivation index outside the configured range."""


class ConfigMismatch(DiffAlgError):
    """Operands built over different field configurations or ranks."""


class UnsupportedForPartial(DiffAlgError):
    """Operation requires a single derivation (m = 1)."""

    exit_code = 4


class ZeroElement(DiffAlgError):
    """The zero module element has no leader."""


class NotAntichain(DiffAlgError):
    """Exponent vectors are not pairwise incomparable."""


class OrderlyRequired(DiffAlgError):
    """Dimension computations require an orderly ranking."""

    exit_code = 4


class PointNotOnVariety(DiffAlgError):
    """A supplied point does not annihilate every equation: equation
    `equation_index` takes the value `value`, printed as `printed`."""

    exit_code = 3

    def __init__(self, equation_index, value, printed):
        self.equation_index = equation_index
        self.value = value
        super().__init__(
            f"equation #{equation_index} does not vanish at the point "
            f"(value {printed})"
        )


class ParseError(DiffAlgError):
    """Syntax error in an input file or expression."""

    exit_code = 2

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
