"""Gap constants of cycles: the exact pipeline against the closed form.

Odd cycles have gamma = n / (2 (n^2 - 2n - 1)), which decays like 1/(2n).
Even cycles sit at zero. The table prints both routes and their relative
difference; the agreement column is the whole point.
"""

import metricgap as mg


def main() -> int:
    print(f"{'n':>3} {'verdict':24s} {'gamma (pipeline)':>18} {'gamma (closed)':>16} {'rel diff':>10}")
    for n in range(3, 16):
        space = mg.path_metric(mg.gen_cycle(n))
        oracle = mg.gamma_cycle(n)
        verdict = mg.classify(mg.power_matrix(space, 1.0)).verdict
        if verdict == mg.STRICT_NEGATIVE_TYPE:
            got = mg.solve_gap(space).gamma
            diff = abs(got - oracle.gamma) / oracle.gamma
            print(f"{n:>3} {verdict:24s} {got:>18.12f} {oracle.gamma:>16.12f} {diff:>10.1e}")
        else:
            print(f"{n:>3} {verdict:24s} {0.0:>18.12f} {oracle.gamma:>16.12f} {'exact':>10}")

    print()
    print("n * gamma approaches 1/2 from below as the odd cycles grow:")
    for n in (5, 15, 51, 101):
        print(f"  n = {n:>4}: n * gamma = {n * mg.gamma_cycle(n).gamma:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
