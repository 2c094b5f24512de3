"""Supermetrics, Levi-Civita connections and exact OSp frames on a chart."""

from supergeo import Chart
from supergeo.geometry import (
    BilinearForm,
    OSpFrame,
    connection_residuals,
    flat_metric,
    levi_civita,
    validate_metric,
)

print("# a classical surface: dx^2 + x^2 dy^2 on the box [1,2]^2")
surface = Chart(["x", "y"], [], box={"x": (1, 2), "y": (1, 2)})
x = surface.pool.even("x")
h = BilinearForm(surface, [[1, 0], [0, x * x]])
print("signature:", validate_metric(h).as_tuple())
conn = levi_civita(h)
names = surface.coordinate_names()
for i in range(2):
    for j in range(2):
        for k in range(2):
            if not conn.gamma[i][j][k].is_zero():
                print(f"Gamma^{names[k]}_{names[i]}{names[j]} =",
                      conn.gamma[i][j][k].render())

torsion, metricity = connection_residuals(h, conn)
print("torsion residuals vanish:  ", torsion.passed)
print("metricity residuals vanish:", metricity.passed)

print()
print("# a nilpotent-deformed supermetric: (1 + th1 th2) dx^2 + J2 block")
chart = Chart(["x"], ["th1", "th2"], box={"x": (0, 1)})
pool = chart.pool
bump = pool.one() + pool.odd("th1") * pool.odd("th2")
g = BilinearForm(chart, [[bump, 0, 0], [0, 0, -1], [0, 1, 0]])
print("signature:", validate_metric(g).as_tuple())

frame = OSpFrame.build(g)  # certifies g(e_i, e_j) = (g0)_ij on construction
print("frame fields:")
for j, f in enumerate(frame.fields):
    print(f"  e_{j+1} =", f)
print("the even leg carries the exact factor (1 + th1 th2)^(-1/2).")
