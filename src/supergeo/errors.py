"""Exception types shared across the package.

Every error supergeo raises on purpose is a :class:`SupergeoError`, so one
``except SupergeoError`` catches them all.  An argument outside an
operation's domain (duplicate generator names, a name that is no identifier,
a ragged entry grid, an unknown Killing mode) raises
:class:`InvalidArgument`, which is also a ``ValueError`` for callers that
catch that.

The package's numbers are Python ints (never bools) and ``Fraction``s; a
sympy value comes in through ``GeneratorPool.scalar`` alone, which lifts an
even ``Expr``.  ``scalar`` raises :class:`InexactCoefficient` for any
other value (``scalar(0.5)``, ``scalar("a")``, a ``QQ`` element), and so do
a ``Chart`` box bound and a ``body_at`` point that is no int or
``Fraction``.  An arithmetic operand of an unsupported type is not an error
of the package: ``Superfunction``'s operators return ``NotImplemented`` for
anything but a superfunction, an int or a ``Fraction``, so ``x + "a"``,
``"a" + x``, ``x * 0.5``, ``x - True``, ``x + sympy.Rational(1, 2)``,
``x ** 0.5`` and ``x ** True`` raise Python's ``TypeError``.

The module also holds :class:`_Record`, the base of the package's plain
records (a signature, a volume density, the Killing, Noether and
stress-energy reports, a scenario and its report): each record names its
fields in ``__slots__`` and sets them in its own ``__init__``, and the base
gives it a field-wise ``==``, a ``Name(field=value, ...)`` repr and no hash.
Every exact certificate is a :class:`Check`, and ``Check.first`` words its failure.
"""


class _Record:
    """A record whose fields are the ``__slots__`` of its class: equal to a
    record of the same class with equal fields, unhashable, and shown as
    ``Name(field=value, ...)`` in slot order."""

    __slots__ = ()
    __hash__ = None

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Check(_Record):
    """An exact certificate: its failures are the ``(label, residual)`` pairs
    with a nonzero residual, in order; it passes when there is none, and
    :attr:`first` is the one text of a failure."""

    __slots__ = ("failures",)

    def __init__(self, pairs: list):
        self.failures = [(label, r) for label, r in pairs if not r.is_zero()]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def first(self):
        """``label: residual`` of the first failure, or None when it passes."""
        return next((f"{label}: {r.render()}" for label, r in self.failures), None)

    @classmethod
    def cells(cls, kind: str, cells, names) -> "Check":
        """The check that every residual of the ``(indices, residual)`` pairs
        ``cells`` is zero; only a nonzero one is labelled ``kind[names[i],...]``."""
        return cls([(f"{kind}[{','.join(str(names[i]) for i in ix)}]", r)
                    for ix, r in cells if not r.is_zero()])

    @classmethod
    def grid(cls, kind: str, rows, names) -> "Check":
        """The check that every entry of ``rows`` is zero; a nonzero entry in
        row i and column j is labelled ``kind[names[i],names[j]]``."""
        return cls.cells(kind, (((i, j), e) for i, row in enumerate(rows)
                                for j, e in enumerate(row)), names)


class _Checks(_Record):
    """A report of checks (None if not made): it passes when all of them pass."""

    __slots__ = ()

    def checks(self) -> list:
        return [v for v in self._values() if isinstance(v, Check)]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks())


class SupergeoError(Exception):
    """Base class for all errors raised by supergeo."""


class InvalidArgument(SupergeoError, ValueError):
    """An argument is outside the domain of the function it was passed to."""


class PoolMismatch(SupergeoError):
    """Operands live over different generator pools."""


class ChartMismatch(SupergeoError):
    """Operands live over different charts."""


class UnknownGenerator(SupergeoError):
    """A name does not refer to a generator of the pool."""


class NonInvertible(SupergeoError):
    """Superfunction has zero body and admits no inverse."""


class InexactCoefficient(SupergeoError):
    """A value is not an exact rational function of the pool's even variables
    (a float, an irrational number, or an object of a foreign type)."""


class NotASquare(SupergeoError):
    """The body is not an exact square in the rational-function field."""


class FleshInTopCoefficient(SupergeoError):
    """Berezin extraction hit a top coefficient containing flesh generators."""


class NonInvertibleBlock(SupergeoError):
    """The odd-odd block of a supermatrix has a singular body."""


class InhomogeneousMatrix(SupergeoError):
    """Supermatrix entries do not share a single parity pattern."""


class MetricViolation(SupergeoError):
    """A bilinear form failed one of the supermetric axioms.

    The first argument names the violated axiom: 'evenness', 'supersymmetry'
    (the second is then the ``first`` of :meth:`SuperMatrix.supersymmetry`)
    or 'nondegeneracy'.  A result that fails its own certificate, such as a
    frame that does not meet its pairing, raises :class:`CertificateFailure`
    instead.
    """

    @property
    def violation(self):
        return self.args[0] if self.args else "unknown"


class UnsupportedMetric(SupergeoError):
    """The Killing solver requires polynomial metric components."""


class CertificateFailure(SupergeoError):
    """A computed result failed its own exact certificate."""


class NonPolynomialIntegrand(SupergeoError):
    """Box integration requires polynomial even parts."""


class ParityError(SupergeoError):
    """An object does not have the homogeneous parity an operation needs."""


class ParseError(SupergeoError):
    """Expression or scenario text could not be parsed."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


class ScenarioError(SupergeoError):
    """Scenario file is structurally invalid (unknown names, bad sections)."""
