"""Audit the fiberwise variation inequality on seeded measure batteries
and check the implied regularity bound on computed invariant measures.
"""

import argparse

from skewstab.arithmetic import golden_angle
from skewstab.batteries import disintegration_battery
from skewstab.dynamics import (
    SineShift,
    SkewSystem,
    invariant_measure,
    linear_base,
    ly_check,
    precomposed_base,
    translation_family,
)
from skewstab.measures import marginal_density, var_p


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    fam = translation_family(golden_angle())
    system = SkewSystem(linear_base(2), fam)
    for n in (256, 1024):
        worst = min(
            ly_check(system, dis.scale(1.0 / float(dis.mass())), 1.0)
            for dis in disintegration_battery(args.seed, args.size, n,
                                              positive=True))
        print(f"N = {n:>4}: worst margin {worst:+.4f} over {args.size} "
              f"measures (needs >= {-2.0 / n:.4f})")

    for label, base in (("linear", linear_base(2)),
                        ("precomposed", precomposed_base(2, SineShift(0.01)))):
        sys_i = SkewSystem(base, fam)
        res = invariant_measure(sys_i, tol=1e-6, n_max=800, n_cells=256,
                                fiber_atoms=1024)
        p, a = 1.0, fam.A
        h = fam.h_hat(p) + 3 * base.branch_count * fam.alpha * base.c_h \
            * a ** (base.xi - p)
        bound = h * marginal_density(res.measure).sup_norm \
            / (1 - base.lam ** p * fam.alpha)
        v = var_p(res.measure, p, a)
        print(f"{label}: invariant var_p = {v:.5f} <= fixed-point bound "
              f"{bound:.4f} (converged = {res.converged})")


if __name__ == "__main__":
    main()
