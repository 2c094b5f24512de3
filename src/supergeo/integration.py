"""Volume densities, Berezin + box integration, and the harmonic action.

The integral convention: extract the coefficient of the full odd-coordinate
monomial (ascending order), then integrate the remaining polynomial over the
chart's rational box monomial by monomial.  Everything stays exact; results
are ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonPolynomialIntegrand, _Record
from .geometry import BilinearForm, Chart, MetricContext
from .morphisms import HarmonicSetup
from .scalars import Superfunction


class VolumeDensity(_Record):
    __slots__ = ("chart", "scale")

    def __init__(self, chart: Chart, scale: Superfunction):
        self.chart = chart
        self.scale = scale  # sqrt(|sdet h|)


def volume_density(h: BilinearForm) -> VolumeDensity:
    """dsvol_h = [d^n x d^m theta] * sqrt(|sdet h|).

    The body of ``Ber h`` is ``det A / det D`` for the body blocks of ``h``.
    ``det D`` is the square of a Pfaffian, as the odd block's body is
    antisymmetric, and the validated metric's body determinant has no zero
    on the closed box, so the sign of ``Ber``'s body there is ``(-1)^t`` for
    t negative even directions, and that of the root's body is constant:
    the chart's sample point decides it exactly.
    """
    chart = h.chart
    t = MetricContext.of(h).signature.t
    ber = h.berezinian()
    root = (-ber if t % 2 else ber).sqrt()
    if root.body_at(chart.sample_point()) < 0:
        root = -root
    return VolumeDensity(chart, root)


def integrate(f: Superfunction, vol: VolumeDensity) -> Fraction:
    """Berezin-extract the top odd coefficient of scale*f, then integrate its
    monomials over the box."""
    chart = vol.chart
    top = (vol.scale * f).top_part()
    if not top.is_polynomial():
        raise NonPolynomialIntegrand(
            "even part has a nonconstant denominator; box integration needs polynomials"
        )
    total = Fraction(0)
    boxes = [chart.box[name] for name in chart.pool.even_names]
    for _, exps, term in top.rational_coefficients():
        for e, (a, b) in zip(exps, boxes):
            term *= (b ** (e + 1) - a ** (e + 1)) / (e + 1)
        total += term
    return total


def action(setup: HarmonicSetup) -> Fraction:
    """A(Phi) = int dsvol_h e(Phi), with e(Phi) = 1/2 str_h(Phi* g)."""
    return integrate(setup.energy_density(), volume_density(setup.h))
