"""The four ways to the same maximum, timed against each other.

The three enumeration routes share one kernel that values all 2^(n-1) sign
vectors in blocks of prefix and suffix sign tables: the sign-vector maximum
(with its maximizer) and the binary form through the split quadratic, the
operator norm through ||B s||_1.  Branch-and-bound prunes with spectral
bounds and certifies its answer, which is how sizes past the enumeration
cutoff stay reachable.
"""

import time

import metricgap as mg


def engine_table(sizes) -> None:
    print(f"{'n':>3} {'beta':>14} {'gray':>8} {'opnorm':>8} {'binary':>8} "
          f"{'bnb':>8} {'bnb nodes':>10}")
    for n in sizes:
        tree = mg.gen_random_tree(n, seed=n)
        b = mg.build_B(mg.power_matrix(mg.path_metric(tree), 1.0)).B

        t0 = time.perf_counter()
        beta, _ = mg.beta_hypercube(b)
        t_gray = time.perf_counter() - t0

        t0 = time.perf_counter()
        op = mg.beta_opnorm(b)
        t_op = time.perf_counter() - t0

        t0 = time.perf_counter()
        bi = mg.beta_binary(b)
        t_bi = time.perf_counter() - t0

        t0 = time.perf_counter()
        r = mg.branch_and_bound(b)
        t_bnb = time.perf_counter() - t0

        assert abs(op - beta) <= 1e-9 * beta and abs(bi - beta) <= 1e-9 * beta
        assert r.certified and r.beta == beta
        print(f"{n:>3} {beta:>14.9f} {t_gray:>7.3f}s {t_op:>7.3f}s {t_bi:>7.3f}s "
              f"{t_bnb:>7.3f}s {r.nodes_expanded:>10}")


def main() -> int:
    engine_table([10, 14, 18])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
