"""Tour of the classifier: which spaces are of negative type, and how
strictly.

Five inputs, three verdicts. The interesting edge is the even cycle, whose
distance matrix is exactly singular: it is of negative type but not
strictly, so its gap constant is zero.  One zero test decides every
verdict: the top projected eigenvalue over its tolerance, the margin
``eig``, reads not of negative type above 1, strict below -1 and
non-strict in between.  A strict line also gives ``B_u``, the residual of
B u over its bound, which must stay below 1.
"""

import numpy as np

import metricgap as mg


def show(label, ntm):
    report = mg.classify(ntm)
    top = report.projected_spectrum[-1]
    print(f"{label:28s} {report.verdict:24s} top projected eigenvalue {top: .3e}")
    if report.M is not None:
        print(f"{'':28s} M = {report.M:.6g}, z = {np.round(report.z, 6)}")
    margins = "  ".join(f"{k} {v:.3g}" for k, v in report.margins.items())
    print(f"{'':28s} margins: {margins}")


def main() -> int:
    show("discrete 5-space", mg.power_matrix(mg.gen_discrete(5), 1.0))

    seven = mg.path_metric(mg.gen_cycle(7))
    show("7-cycle", mg.power_matrix(seven, 1.0))

    six = mg.path_metric(mg.gen_cycle(6))
    show("6-cycle", mg.power_matrix(six, 1.0))

    # A star with three unit legs stops being of negative type once the
    # distances are squared.
    claw = mg.path_metric(mg.gen_tree([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]))
    show("claw at exponent 2", mg.power_matrix(claw, 2.0))

    rng = np.random.default_rng(11)
    pts = rng.standard_normal((6, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    show("random point cloud", mg.power_matrix(mg.validate_metric(d), 1.0))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
