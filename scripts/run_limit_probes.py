"""Convergence of every difference invariant to its differential target,
plus the lattice-coefficient correction on the constant-cross-ratio mesh."""
from invdisc import (EXACT_SOLUTIONS, LimitProbe, arctanh_solution, jy_invariants,
                     log_abs, probe_limit, w0_sol2)


def main():
    log_jets = log_abs().jet_fn
    atanh_jets = arctanh_solution().jet_fn
    jet_exp = EXACT_SOLUTIONS["exp"]().jet_fn
    probes = [
        ("l3", log_jets, 1.0, 0.01, 0.5, 5),
        ("l4", log_jets, 1.0, 0.01, 0.5, 5),
        ("l5", log_jets, 1.0, 0.05, 0.6, 6),
        ("m3", atanh_jets, 0.3, 0.01, 0.5, 5),
        ("m4", jet_exp, 0.2, 0.01, 0.5, 5),
        ("m5", jet_exp, 0.2, 0.05, 0.6, 6),
        ("h5", log_jets, 1.0, 0.05, 0.6, 6),
    ]
    print(f"{'inv':>4} {'target':>12} {'order':>7}  errors (coarse -> fine)")
    for name, fn, x0, h0, ratio, levels in probes:
        hs = tuple(h0 * ratio ** k for k in range(levels))
        rep = probe_limit(LimitProbe(name, fn, x0, hs))
        errs = " ".join(f"{e:.1e}" for e in rep.errors)
        print(f"{name:>4} {rep.targets[0]:12.6f} {rep.estimated_order:7.2f}  {errs}")

    print("\nconstant-cross-ratio lattice x_m = 1/(lam*(m + 6)), lam -> inf:")
    A, B = 1.0, 6.0
    w0 = w0_sol2(A, B)
    print(f"  closed-form lattice coefficient W0 = {w0:+.6f}")

    def lattice(h):
        lam = A / (h * B * B)
        return [1.0 / (lam * (A * m + B)) for m in range(6)]

    hs = (0.05, 0.03, 0.02, 0.012)
    corrected = probe_limit(LimitProbe("l5", jet_exp, 0.0, hs, lattice=lattice))
    bare = probe_limit(LimitProbe(
        "l5", jet_exp, 0.0, hs, lattice=lattice,
        target_fn=lambda jet, xs: jy_invariants(jet).fifth))
    print("  errors with the W correction:   ",
          " ".join(f"{e:.2e}" for e in corrected.errors))
    print("  errors without the correction:  ",
          " ".join(f"{e:.2e}" for e in bare.errors))
    print(f"  (the uncorrected probe stalls near |W0|*J3^2 = {abs(w0) * 0.25:.2e})")


if __name__ == "__main__":
    main()
