"""The geometric view: subdivisions, gaps, and connectivity.

Length-r scenario prefixes are the 3^r cells of the r-fold chromatic
subdivision of a colored segment, so an adversary's r-round behavior
is a subcomplex of the subdivided interval and an infinite run is a
point of [0, 1].  Solvability has a clean geometric reading: the
adversary's limit realization is disconnected exactly when consensus
is solvable, the gap sitting at the limit index its excluded
scenarios vacate.
"""

import os
import tempfile
from fractions import Fraction

from twogen import adversary as adv
from twogen import topology as topo
from twogen.oracle import classify
from twogen.protocol import verify
from twogen.words import parse_lasso

FAIR_ADV = "GAMMA^w \\ { LW LB ( OK )^w }"

print("Connectivity of limit realizations")
print("-" * 50)
for text in ("S0", "C1", "S1", "R1", FAIR_ADV):
    conn = topo.limit_connectivity(adv.load(text))
    print("  %-32s connected=%-5s %s"
          % (text, conn.connected,
             "" if conn.gap is None else "gap at %s" % conn.gap))

print()
a = adv.load(FAIR_ADV)
z = topo.gap_point(classify(a))
ts = topo.build_terminating_subdivision(a, z, depth=6)
print("Terminating subdivision around the gap z = %s:" % z)
for level in sorted(ts.levels):
    cells = sorted(e.interval for e in ts.levels[level])
    print("  level %d: %s" % (level, ["[%s, %s]" % c for c in cells]))
print("  gap checked exactly: no scenario of the adversary has limit", z)

print()
print("The stable complex splits into two pieces around z:")
c = ts.stable_complex()
print("  abstract components:   ", topo.abstract_components(c))
print("  realization components:", topo.realization_components(c))

print()
print("Abstract connectivity can lie: a stable family whose cells")
print("creep up to an accumulation point has two abstract components")
print("but a connected realization.")
phi = topo.contrex(6)
print("  abstract components:   ", topo.abstract_components(phi))
print("  realization components:", topo.realization_components(phi))

print()
print("The geometric algorithm halts once its position is provably")
print("on one side of z, and verifies clean:")
rep = verify(topo.GeometricAlgorithm(ts), a, depth=4)
print("  ok=%s checks=%d" % (rep.ok, rep.checked))

out = os.path.join(tempfile.gettempdir(), "stable_complex.svg")
with open(out, "w") as fh:
    fh.write(topo.export(c, "svg"))
print()
print("SVG rendering of the stable complex written to", out)
