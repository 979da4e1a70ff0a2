"""Extended-precision shadow runs of the invariant schemes (``sly4``,
``slx3`` under constant forcing and ``h5``), written from the invariant
definitions in mpmath and with no code from ``invdisc.schemes``.

A shadow run starts from the same float seed as the library and steps on
the same float lattice nodes, or for ``sly4`` on the exact lattice of the
same float step, whose windows that hold seed nodes take the x
cross-ratio of the float nodes, so its distance to a float run is the
float run's arithmetic error alone, and its distance to an exact solution
is the truncation and seed error that no arithmetic removes.
"""
import mpmath as mp


def cross_ratio(a0, a1, a2, a3):
    """((a3-a1)(a2-a0)) / ((a3-a2)(a1-a0))."""
    return (a3 - a1) * (a2 - a0) / ((a3 - a2) * (a1 - a0))


def sly4(xs, ys, h, nodes, forcing, digits=40):
    """Ordinates of the fourth-order scheme l4 = forcing(x2) from the seed
    (xs, ys) over the new abscissae ``nodes`` of the uniform lattice of step
    ``h``, seed included, as mpf values.

    On that lattice S = 4, so a window's l3 is 2/h^2 (1 - R/4) and l4 =
    forcing(x2) makes the right window's l3 the left one's plus
    h·forcing(x2), x2 = x0 + (n - 2)h for the new node n; the new ordinate t
    solves the y cross-ratio of (y1, y2, y3, t) equal to 4 - 2h^2 l3, plus
    S - 4 on the three windows that hold seed nodes, S the x cross-ratio of
    their abscissae.  The seed's l3 is 2/h^2 (1 - R/S) with S its own x
    cross-ratio.  ``forcing`` takes and returns mpf values.
    """
    with mp.workdps(digits):
        h, x0 = mp.mpf(h), mp.mpf(xs[0])
        out = [mp.mpf(y) for y in ys]
        wx = [mp.mpf(x) for x in (*xs, *nodes)]
        l3 = 2 / h ** 2 * (1 - cross_ratio(*out) / cross_ratio(*wx[:4]))
        for n in range(4, len(wx)):
            y1, y2, y3 = out[-3:]
            l3 += h * forcing(x0 + (n - 2) * h)
            k = 4 - 2 * h ** 2 * l3
            if n < 7:
                k += cross_ratio(*wx[n - 3:n + 1]) - 4
            # cross_ratio(y1, y2, y3, t) = k is linear in t
            out.append((y2 * (y3 - y1) - k * y3 * (y2 - y1)) / ((y3 - y1) - k * (y2 - y1)))
    return out


def slx3(xs, ys, nodes, c, digits=40):
    """Ordinates of the third-order scheme m3 = c from the seed (xs, ys) over
    ``nodes``, seed included, as mpf values; a run whose step has no real
    root ends there, shorter than the nodes.

    m3 of the window (y0, y1, y2, t) is 6 / ((t - y0)(y2 - y1)) * (1 - R/S),
    R and S the cross-ratios of its ordinates and abscissae.  Cleared of its
    denominators, m3 = c is the quadratic
    6 (S (t - y2)(y1 - y0) - (t - y1)(y2 - y0)) = c S (y2 - y1)(y1 - y0)(t - y0)(t - y2)
    in t, and each step keeps its real root nearest y0 - 3 y1 + 3 y2, the
    quadratic through the window at the next node of a uniform lattice.
    """
    with mp.workdps(digits):
        wx = [mp.mpf(x) for x in xs]
        out = [mp.mpf(y) for y in ys]
        for x in map(mp.mpf, nodes):
            y0, y1, y2 = out[-3:]
            s = cross_ratio(*wx, x)
            # lin1 t + lin0 = k (t - y0)(t - y2)
            lin1 = 6 * (s * (y1 - y0) - (y2 - y0))
            lin0 = 6 * ((y2 - y0) * y1 - s * (y1 - y0) * y2)
            k = c * s * (y2 - y1) * (y1 - y0)
            qa, qb, qc = k, -k * (y0 + y2) - lin1, k * y0 * y2 - lin0
            if qa == 0:
                roots = [-qc / qb]
            else:
                disc = qb * qb - 4 * qa * qc
                if disc < 0:
                    break
                roots = [(-qb - mp.sqrt(disc)) / (2 * qa), (-qb + mp.sqrt(disc)) / (2 * qa)]
            p = y0 - 3 * y1 + 3 * y2
            out.append(min(roots, key=lambda t: abs(t - p)))
            wx = wx[1:] + [x]
    return out


def h5(ys, n_steps, c, digits=40):
    """Ordinates of the six-point scheme from the five seed ordinates ``ys``
    over ``n_steps`` nodes of a uniform lattice, seed included, as mpf
    values; a run whose step has no finite solution ends there, shorter.

    R3 and R4 are the y cross-ratios of the windows (y0, y1, y2, y3) and
    (y1, y2, y3, y4).  On a uniform lattice (S = 4) the scheme is
    16 R5 + R4 (3 R4 + R5 - 32) + R3 (R4 - 5 R5 + 16) = 2c (R3-4)(R4-4)(R5-4),
    linear in R5, and the new ordinate t solves cross_ratio(y2, y3, y4, t) = R5.
    """
    with mp.workdps(digits):
        out = [mp.mpf(y) for y in ys]
        for _ in range(n_steps):
            y1, y2, y3, y4 = out[-4:]
            r3, r4 = cross_ratio(*out[-5:-1]), cross_ratio(*out[-4:])
            k = 2 * c * (r3 - 4) * (r4 - 4)
            # r5 (16 + R4 - 5 R3 - k) = -3 R4^2 + 32 R4 - R3 R4 - 16 R3 - 4k
            r5 = (-3 * r4 ** 2 + 32 * r4 - r3 * r4 - 16 * r3 - 4 * k) / (16 + r4 - 5 * r3 - k)
            # (t - y3)(y4 - y2) = r5 (t - y4)(y3 - y2) is linear in t
            den = (y4 - y2) - r5 * (y3 - y2)
            if den == 0:
                break
            out.append((y3 * (y4 - y2) - r5 * y4 * (y3 - y2)) / den)
    return out
