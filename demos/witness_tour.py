"""What makes the gap constant sharp: the extremal witness.

For the 7-cycle we compute gamma, build the witness direction y0 from the
maximizing sign vector, and verify the three identities that certify
optimality:

    sum |y0_i|      equals beta
    (-A y0 | y0)    equals beta
    osc(A y0)       is at most 1

Then the randomized check: a thousand zero-sum directions never violate
the inequality at gamma, while at gamma * 1.0001 the witness itself does.
"""

import numpy as np

import metricgap as mg


def main() -> int:
    space = mg.path_metric(mg.gen_cycle(7))
    ntm = mg.power_matrix(space, 1.0)
    res = mg.solve_gap(ntm)
    a = ntm.A.a
    y0 = res.witness_y0

    print(f"7-cycle: gamma = {res.gamma:.12f}, beta = {res.beta:.12f}")
    print(f"maximizing signs: {''.join('+' if v > 0 else '-' for v in res.s_star)}")
    print(f"witness y0 = {np.round(y0, 6)}")
    print()
    l1 = float(np.sum(np.abs(y0)))
    quad = float(-y0 @ a @ y0)
    osc = mg.oscillation(a @ y0)
    print(f"  ||y0||_1    = {l1:.12f} (beta: {res.beta:.12f})")
    print(f"  (-A y0|y0)  = {quad:.12f}")
    print(f"  osc(A y0)   = {osc:.12f} (must not exceed 1)")
    residual = 0.5 * res.gamma * l1 * l1 + float(y0 @ a @ y0)
    print(f"  equality residual at gamma: {residual:.2e}")
    print()

    report = mg.verify_gap_inequality(space, 1.0, res.gamma, trials=1000, seed=0,
                                      witness=y0)
    print(f"randomized trials: {report.trials}, failures: {report.failures}, "
          f"worst normalized slack: {report.max_violation:.2e}")
    print(f"witness violates the inequality at gamma * 1.0001: "
          f"{report.maximality_violated}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
