"""The four ways to the same maximum, timed against each other.

The three enumeration routes share one kernel that values all 2^(n-1) sign
vectors in blocks of prefix and suffix sign tables: the sign-vector maximum
(with its maximizer) and the binary form through the split quadratic, the
operator norm through ||B s||_1.  Their times are given in ns per sign
vector; with more than one BLAS thread on a small host, run it as
OPENBLAS_NUM_THREADS=1 python demos/enumeration_engines.py, since idle BLAS
threads spinning beside the kernel can slow it several times over.
Branch-and-bound prunes with shifted-eigenvalue bounds and certifies its
answer up to a derived rounding allowance, which is how sizes past the
enumeration cutoff stay reachable.
"""

import time

import metricgap as mg


def ns_per_sign_vector(route, b, n):
    t0 = time.perf_counter()
    value = route(b)
    return value, (time.perf_counter() - t0) * 1e9 / 2 ** (n - 1)


def engine_table(sizes) -> None:
    print(f"{'n':>3} {'beta':>14} {'maximum':>9} {'opnorm':>9} {'binary':>9} "
          f"{'bnb':>8} {'bnb nodes':>10}")
    for n in sizes:
        tree = mg.gen_random_tree(n, seed=n)
        b = mg.build_B(mg.power_matrix(mg.path_metric(tree), 1.0)).B

        (beta, _), ns_max = ns_per_sign_vector(mg.beta_hypercube, b, n)
        op, ns_op = ns_per_sign_vector(mg.beta_opnorm, b, n)
        bi, ns_bi = ns_per_sign_vector(mg.beta_binary, b, n)

        t0 = time.perf_counter()
        r = mg.branch_and_bound(b)
        t_bnb = time.perf_counter() - t0

        assert abs(op - beta) <= 1e-9 * beta and abs(bi - beta) <= 1e-9 * beta
        assert r.certified and r.beta == beta
        print(f"{n:>3} {beta:>14.9f} {ns_max:>7.1f}ns {ns_op:>7.1f}ns {ns_bi:>7.1f}ns "
              f"{t_bnb:>7.3f}s {r.nodes_expanded:>10}")


def main() -> int:
    engine_table([10, 14, 18])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
