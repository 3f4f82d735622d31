# When is the splitting operator the average of an isometry and the identity?
#
# Exactly when the graph equals its subgraph -- for every choice of node
# subspaces. The three catalog pairs with unequal graphs each fail in their
# own way: one is not even normal, one is normal with an eigenvalue off the
# half-circle, and the ring-over-chain pair looks perfectly iso-averaged
# for full node spaces until a coordinate-product witness exposes it.

import numpy as np

from graphsplit import (
    build, full, graphs, pair, preset, product, spectral_report, witness_search,
)
from graphsplit.experiments import with_extra_edge

catalog = [
    ("chain, G = G'", pair(preset("sequential", 4))),
    ("star-down + edge over star-down", with_extra_edge(preset("parallel_down", 4), (1, 2))),
    ("biparallel over star-up", pair(preset("biparallel", 4), preset("parallel_up", 4))),
    ("ring over chain", pair(preset("ring", 4), preset("sequential", 4))),
]

d = 2
print(f"{'pair':36s} {'normal?':9s} {'iso?':7s} {'witness'}")
for label, gp in catalog:
    op = build(gp, product([full(d)] * gp.g.n))
    report = spectral_report(op.T)
    res = witness_search(gp, d)
    witness = f"node {res.index} (defect {res.defect:.3f})" if res.found else "none"
    print(f"{label:36s} {str(report.is_normal):9s} {str(report.is_iso_averaged):7s} {witness}")

print(
    "\nThe ring-over-chain operator is iso-averaged with full spaces, yet a"
    "\nwitness exists: iso-averagedness for ALL subspaces needs G = G'."
)

# The quadratic relaxation law for the normality defect, on the non-normal pair.
gp = with_extra_edge(preset("parallel_down", 4), (1, 2))
op = build(gp, product([full(1)] * 4))
base = spectral_report(op.T).normality_defect
print(f"\nnormality defect of the non-normal pair: {base:.6f}")
for theta in (0.5, 1.5):
    t_theta = theta * op.T + (1 - theta) * np.eye(op.size)
    relaxed = spectral_report(t_theta).normality_defect
    print(f"  theta={theta}: defect {relaxed:.6f} = theta^2 * base ({theta**2 * base:.6f})")
