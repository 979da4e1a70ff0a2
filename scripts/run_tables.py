"""Reproduce the three accuracy tables: endpoint values of the fourth-order
scheme, its deviation from a fine reference, and the third-order scheme's
deviation from the exact inverse hyperbolic tangent.

The tables format runs of the paper examples 1 and 2-arctanh defined in
``invdisc.cli.EXAMPLES``; the three example-1 runs share one fine reference
at step ``H_REF``."""
import time

from invdisc.cli import run_example

STEPS_H = (0.1, 0.01, 0.001)
#: the reference the published-table gate in tests/test_acceptance.py uses,
#: not example 1's default: Table 2's h = 0.001 row swings with 1-2 ulp
#: changes of the seed, which differ between references of equal accuracy
H_REF = 1e-5


def main():
    t0 = time.monotonic()
    first = run_example("1", STEPS_H[0], h_ref=H_REF)
    print(f"fine RK4 reference over [1, 2.5] built in {time.monotonic() - t0:.2f}s")
    ref = first.ref
    runs = {STEPS_H[0]: first}
    for h in STEPS_H[1:]:
        runs[h] = run_example("1", h, ref=ref)

    print("\nfourth-order scheme, solution values")
    print(f"{'x':>5} {'reference':>12}", end="")
    for h in STEPS_H:
        print(f" {'inv h=' + str(h):>14}", end="")
    print()
    for x in (1.5, 2.0, 2.5):
        print(f"{x:5.1f} {ref.ys[round((x - 1.0) / ref.h_nominal)]:12.6f}", end="")
        for h in STEPS_H:
            print(f" {runs[h].inv.ys[round((x - 1.0) / h)]:14.6f}", end="")
        print()

    print("\ndeviation from the fine reference (chi)")
    for h in STEPS_H:
        print(f"  h={h:<6} chi = {runs[h].summary['chi vs fine reference']:.4e}")

    print("\nthird-order scheme vs exact arctanh over [-0.9, 0.9] (chi)")
    for h in STEPS_H:
        run = run_example("2-arctanh", h)
        print(f"  h={h:<6} chi = {run.summary['chi vs exact']:.6f}   "
              f"(stop: {run.inv.stop.value}, last x = {run.inv.xs[-1]:.2f})")


if __name__ == "__main__":
    main()
