"""Volume densities, Berezin + box integration, and the harmonic action.

The integral convention: extract the coefficient of the full odd-coordinate
monomial (ascending order), then integrate the remaining polynomial over the
chart's rational box monomial by monomial.  Everything stays exact; results
are ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonPolynomialIntegrand
from .geometry import BilinearForm, Chart, MetricContext
from .morphisms import HarmonicSetup
from .scalars import Superfunction


@dataclass
class VolumeDensity:
    chart: Chart
    scale: Superfunction  # sqrt(|sdet h|)


def volume_density(h: BilinearForm) -> VolumeDensity:
    """dsvol_h = [d^n x d^m theta] * sqrt(|sdet h|).

    The absolute value and the square root each pick the sign that makes the
    body positive at the chart's sample point.
    """
    chart = h.chart
    MetricContext.of(h)
    ber = h.berezinian()
    point = chart.sample_point()
    sign = ber.body_at(point)
    if sign == 0:
        raise NonPolynomialIntegrand("superdeterminant body vanishes at the sample point")
    root = (ber if sign > 0 else -ber).sqrt()
    if root.body_at(point) < 0:
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
