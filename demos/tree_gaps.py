"""Weighted trees have the tidiest gap theory of all three families.

The gap is 1 / sum(1/w) over the edges, the corrected matrix B is half the
reciprocal-weight Laplacian, and the maximizing sign vector is simply the
bipartition of the tree. This script checks all three statements on random
trees and shows how the gap responds when one edge is stretched.
"""

import numpy as np

import metricgap as mg


def main() -> int:
    rng = np.random.default_rng(2)
    print("random trees: pipeline gamma vs 1 / sum(1/w)")
    for i in range(5):
        n = int(rng.integers(5, 13))
        tree = mg.gen_random_tree(n, weight_range=(0.1, 10.0), seed=60 + i)
        space = mg.path_metric(tree)
        res = mg.solve_gap(space)
        oracle = mg.gamma_tree(tree)
        half_lap = np.zeros((n, n))  # half the reciprocal-weight Laplacian
        for i, j, w in tree.edges:
            half_lap[[i, j], [j, i]] -= 0.5 / w
            half_lap[[i, j], [i, j]] += 0.5 / w
        b_gap = np.max(np.abs(mg.build_B(mg.power_matrix(space, 1.0)).B.a - half_lap))
        # The bipartition: +1 where the hop count from vertex 0 is even.
        hops = mg.path_metric(mg.gen_tree([(i, j, 1.0) for i, j, _ in tree.edges])).d.a[0]
        coloring = 1.0 - 2.0 * (hops % 2.0)
        attained = float(coloring @ half_lap @ coloring)
        print(f"  n = {n:>2}: gamma = {res.gamma:.10f}  closed = {oracle.gamma:.10f}  "
              f"|B - L/2| = {b_gap:.1e}  bipartition attains beta: "
              f"{abs(attained - res.beta) < 1e-9 * res.beta}")

    print()
    print("stretching one edge of a unit path on 6 vertices:")
    for w in (1.0, 2.0, 10.0, 100.0):
        tree = mg.gen_path(6, [1.0, 1.0, w, 1.0, 1.0])
        gamma = mg.gamma_tree(tree).gamma
        print(f"  middle weight {w:>6.1f}: gamma = {gamma:.6f} "
              f"(limit 1/4 as the edge goes to infinity)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
