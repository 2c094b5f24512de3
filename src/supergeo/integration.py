"""Volume densities, Berezin + box integration, and the harmonic action.

The integral convention: extract the coefficient of the full odd-coordinate
monomial (ascending order), then integrate the remaining polynomial over the
chart's rational box.  Everything stays exact; results are ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import sympy as sp

from .errors import NonPolynomialIntegrand
from .geometry import BilinearForm, Chart, str_with_metric, validate_metric
from .morphisms import HarmonicSetup
from .scalars import Superfunction


@dataclass
class VolumeDensity:
    chart: Chart
    scale: Superfunction  # sqrt(|sdet h|)


def volume_density(h: BilinearForm) -> VolumeDensity:
    """dsvol_h = [d^n x d^m theta] * sqrt(|sdet h|).

    The absolute value picks the sign that makes the body positive at the
    chart's sample point.
    """
    chart = h.chart
    validate_metric(h)
    ber = h.to_supermatrix().berezinian()
    body_at = sp.Rational(ber.body().subs(chart.sample_point()))
    if body_at == 0:
        raise NonPolynomialIntegrand("superdeterminant body vanishes at the sample point")
    signed = ber if body_at > 0 else -ber
    return VolumeDensity(chart, signed.sqrt())


def integrate(f: Superfunction, vol: VolumeDensity) -> Fraction:
    """Berezin-extract the top odd coefficient of scale*f, then box-integrate."""
    chart = vol.chart
    top = (vol.scale * f).berezin_top()
    num, den = sp.fraction(top)
    if den.free_symbols:
        raise NonPolynomialIntegrand(
            "even part has a nonconstant denominator; box integration needs polynomials"
        )
    expr = sp.expand(num / den)
    for name in chart.pool.even_names:
        a, b = chart.box[name]
        expr = sp.integrate(expr, (chart.pool.even_symbol(name), sp.Rational(a), sp.Rational(b)))
    val = sp.Rational(expr)
    return Fraction(val.p, val.q)


def action(setup: HarmonicSetup) -> Fraction:
    """A(Phi) = 1/2 int dsvol_h str_h(Phi* g)."""
    vol = volume_density(setup.h)
    integrand = str_with_metric(setup.pullback_metric(), setup.h, setup.frame)
    return integrate(integrand, vol) / 2
