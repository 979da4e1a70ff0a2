"""Behavior at solution singularities: the third-order scheme halts exactly
at the logarithmic barrier (its roots turn complex), while the six-point
scheme steps across poles that stop the Runge-Kutta baseline.

Formats runs of the paper examples 2-log, 4 and 5 defined in
``invdisc.cli.EXAMPLES``."""
from invdisc.cli import EXAMPLES, TAN_RECIPROCAL_POLE as POLE, run_example


def main():
    print("third-order scheme on y = log|x| toward the singularity at 0:")
    f = EXAMPLES["2-log"].solution.eval_fn
    for x0, h in ((-1.0, 1e-4), (1.0, -1e-4)):
        traj = run_example("2-log", h, x0=x0).inv
        errs = max(abs(y - f(x)) for x, y in zip(traj.xs, traj.ys) if abs(x) >= 0.01)
        print(f"  from x0={x0:+.0f}: stop={traj.stop.value} at x={traj.xs[-1]:+.6f}, "
              f"max err away from 0: {errs:.2e}")

    print("\nsix-point scheme on the exact discrete solution through its pole:")
    run = run_example("4")
    at_pole = [y for x, y in zip(run.inv.xs, run.inv.ys) if x == 0.0]
    print(f"  stop={run.inv.stop.value}, {len(run.inv)} points, "
          f"max deviation off the pole: {run.summary['max deviation from exact']:.2e}")
    if at_pole:
        print(f"  value carried across the pole at x=0: {at_pole[0]:.3e}")

    print("\nsix-point scheme on y = tan(1/x) past the pole at "
          f"x = {POLE:.5f}:")
    run = run_example("5")
    beyond = [x for x in run.inv.xs if x > POLE]
    print(f"  invariant scheme: stop={run.inv.stop.value}, "
          f"{len(beyond)} real finite points beyond the pole "
          f"(last x = {run.inv.xs[-1]:.3f})")
    base = run.base
    gap = POLE - base.xs[-1]
    print(f"  RK4 baseline (h=1e-5): stop={base.stop.value} at "
          f"x={base.xs[-1]:.6f} ({gap:.1e} before the pole)")


if __name__ == "__main__":
    main()
