"""Maps with flesh, tension fields and the three Noether theorems.

The conserved-current statements are verified symbolically: every residual
below is an exact zero in the Grassmann ring, not a numerical approximation.
"""

from supergeo import Chart
from supergeo.geometry import VectorField, flat_metric
from supergeo.morphisms import FieldAlongMorphism, HarmonicSetup, Morphism

source = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)}, flesh=("lam1", "lam2"))
target = Chart(["u"], ["e1", "e2"], box={"u": (-10, 10)})
p = source.pool


def residual(check):
    """The residual of a check of one residual: nonzero when it fails."""
    return check.failures[0][1].render() if check.failures else "0"


print("# a map with flesh: odd component fields need the lam generators")
phi = Morphism(source, target, {
    "u": p.even("x") + p.odd("th1") * p.odd("lam1"),
    "e1": p.odd("lam1") + p.even("x") * p.odd("th1"),
    "e2": p.odd("th2") + p.odd("lam2"),
})
setup = HarmonicSetup(phi, flat_metric(source), flat_metric(target))

tau = setup.tension()
print("tension field tau(Phi):")
for name, comp in zip(target.coordinate_names(), tau.components):
    print(f"  tau^{name} =", comp.render())
print("superharmonic?", setup.is_superharmonic())

print()
print("# the divergence identity div W_xi = div xi + <xi, tau> holds for ANY xi")
xi = FieldAlongMorphism(phi, [p.odd("th1") * p.odd("th2"),
                              p.even("x") * p.odd("th1"), p.odd("lam1")], 0)
print("residual:", setup.div_identity_residual(xi).render())

print()
print("# Noether I: a Killing field on the target gives a conserved current")
translation = VectorField(target, [target.pool.one(), 0, 0], 0)
rep = setup.check_noether_target(translation)
print("xi Killing:", rep.precondition.passed,
      "| div(phi o xi):", residual(rep.divergence),
      "| pullback Lie lemma:", rep.lemma.passed)

print()
print("# Noether III: stress-energy tensor S = e(Phi) h - Phi*g")
rho = VectorField(source, [p.even("x"), 0, 0], 0)
rep = setup.stress_energy_report(rho)
print("energy density e(Phi) =", rep.energy.render())
print("div S[xi] + <dPhi[xi], tau>  =", residual(rep.lemma))
print("div Y_xi identity residual   =", residual(rep.current))

print()
print("# sensitivity: a non-harmonic map breaks the W-current conservation")
line = Chart(["x"], [], box={"x": (0, 1)})
line_t = Chart(["y"], [], box={"y": (0, 1)})
square = Morphism(line, line_t, {"y": line.pool.even("x") ** 2})
sq = HarmonicSetup(square, flat_metric(line), flat_metric(line_t))
pulled = sq.phi.pull_target_field(VectorField(line_t, [line_t.pool.one()], 0))
print("tau(x^2) =", sq.tension().components[0].render(),
      "and div W =", sq.source_divergence(sq.noether_current(pulled)).render(),
      "(nonzero, as it must be)")
