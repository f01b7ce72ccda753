"""The four ways to the same maximum, side by side.

The three enumeration routes walk one kernel that values all 2^(n-1) sign
vectors in blocks of prefix and suffix sign tables: the sign-vector maximum
(with its maximizer) and the binary form through the split quadratic, the
operator norm through ||B s||_1.  Branch-and-bound prunes with
shifted-eigenvalue bounds and certifies its answer up to a derived rounding
allowance, which is how sizes past the enumeration cutoff stay reachable.
The table shows the four agree; benchmark/run.py times them.
"""

import metricgap as mg


def engine_table(sizes) -> None:
    print(f"{'n':>3} {'beta':>14} {'opnorm':>14} {'binary':>14} {'bnb':>14} "
          f"{'bnb nodes':>10} {'certified':>9}")
    for n in sizes:
        tree = mg.gen_random_tree(n, seed=n)
        b = mg.build_B(mg.power_matrix(mg.path_metric(tree), 1.0)).B

        beta, _ = mg.beta_hypercube(b)
        op = mg.beta_opnorm(b)
        bi = mg.beta_binary(b)
        r = mg.branch_and_bound(b)

        assert abs(op - beta) <= 1e-9 * beta and abs(bi - beta) <= 1e-9 * beta
        assert r.certified and r.beta == beta
        print(f"{n:>3} {beta:>14.9f} {op:>14.9f} {bi:>14.9f} {r.beta:>14.9f} "
              f"{r.nodes_expanded:>10} {str(r.certified):>9}")


def main() -> int:
    engine_table([10, 14, 18])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
