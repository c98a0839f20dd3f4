"""Independent kernel-based oracles for the bound evaluators.

Each oracle rebuilds the bound's entropy ledger from scratch through the
Gaussian kernel (entropies / mutual informations of explicitly constructed
variables) rather than through the closed covariance formulas, so agreement
is a genuine two-path check.  The conditional variances of the worst-noise
penalty terms come from the constructed variables too (``cond_var``).
"""

import math

from gicbounds.gaussnet import (
    COMPLEX,
    GaussianSystem,
    correlated_pair,
    entropy,
    mutual_info,
)


def build_system(channel):
    sysm = GaussianSystem(COMPLEX)
    xs = [sysm.gaussian(math.sqrt(pk)) for pk in channel.power]
    zs = [sysm.latent() for _ in range(channel.k)]
    ys = []
    for r in range(channel.k):
        y = xs[r] + zs[r]
        for t in range(channel.k):
            if t != r:
                y = y + xs[t] * complex(channel.h[r, t])
        ys.append(y)
    return sysm, xs, zs, ys


def cond_var(a, b):
    """Var(a | b) = Var(a) - |Cov(a, b)|^2 / Var(b) of two kernel variables;
    conditioning on an (almost) deterministic b is vacuous."""
    vb = b.variance
    if vb <= 1e-12:
        return a.variance
    return a.variance - abs(a.cov(b)) ** 2 / vb


def etkin_oracle(channel, sigma, rho):
    sysm, xs, zs, ys = build_system(channel)
    n2 = correlated_pair(sigma, rho, zs[1])
    s2 = xs[1] * complex(channel.h[0, 1]) + xs[2] * complex(channel.h[0, 2]) + n2
    return (mutual_info([xs[0]], [ys[0]])
            + mutual_info([xs[1]], [ys[1], s2], [xs[0]])
            + mutual_info([xs[2]], [ys[2]], [xs[0], xs[1]]))


def coi_oracle(channel, w_params):
    h, p = channel.h, channel.power
    sysm, xs, zs, ys = build_system(channel)
    ws = [correlated_pair(w.sigma, complex(w.rho), zs[i])
          for i, w in enumerate(w_params)]
    total = 0.0
    for u in range(3):
        nxt, prev = (u + 1) % 3, (u + 2) % 3
        red = xs[nxt] * complex(h[u, nxt])
        total += entropy([xs[u] + red + zs[u]]) - entropy([red + zs[u]])
        total += entropy([red + ws[u]]) - entropy([zs[u] - ws[u]])
        coeff2 = abs(h[prev, u]) ** 2
        vzw = (zs[u] - ws[u]).variance
        v_w_prev = cond_var(ws[prev], zs[prev] - ws[prev])
        vt = sysm.gaussian(math.sqrt(max(0.0, v_w_prev / coeff2 - vzw)))
        lead = xs[u] + zs[u] - ws[u]
        ucond = red + ws[u]
        total += (entropy([lead, ucond]) - entropy([ucond])
                  - (entropy([lead + vt, ucond]) - entropy([ucond]))
                  - math.log2(coeff2))
    return 0.5 * total


def hybrid_oracle(channel, cfg, branch):
    h, p = channel.h, channel.power
    sysm, xs, zs, ys = build_system(channel)
    ws = [correlated_pair(cfg.w[i].sigma, complex(cfg.w[i].rho), zs[i])
          for i in range(3)]
    ns = [correlated_pair(cfg.n[i].sigma, complex(cfg.n[i].rho), zs[i])
          for i in range(3)]
    total = 0.0
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        hab, hac, hbc = h[a, b], h[a, c], h[b, c]
        s_b = xs[b] * complex(hab) + xs[c] * complex(hac) + ns[b]
        u_c = xs[a] * complex(h[c, a]) + xs[b] * complex(h[c, b]) + ws[c]
        total += mutual_info([xs[a]], [ys[a]])
        if branch == "I0":
            cgen = hbc / hac
            neg = entropy([zs[b] - ns[b] * complex(cgen)])
            vpair = cond_var(ns[b], zs[b] - ns[b] * complex(cgen))
            coeff2 = abs(hac) ** 2
        else:
            cp = hac / hbc
            neg = entropy([ns[b] - zs[b] * complex(cp)])
            vpair = cond_var(zs[b], ns[b] - zs[b] * complex(cp))
            coeff2 = abs(hbc) ** 2
        total += entropy([s_b]) - neg
        total += entropy([ys[b], xs[a], s_b]) - entropy([xs[a], s_b])
        vzw_c = (zs[c] - ws[c]).variance
        vt = sysm.gaussian(math.sqrt(max(0.0, vpair / coeff2 - vzw_c)))
        lead = xs[c] + zs[c] - ws[c]
        total += (entropy([lead, u_c]) - entropy([u_c])
                  - (entropy([lead + vt, u_c]) - entropy([u_c]))
                  - math.log2(coeff2))
        cross = xs[a] * complex(h[c, a]) + xs[b] * complex(h[c, b])
        vwc = sysm.gaussian(math.sqrt(cond_var(ws[c], zs[c] - ws[c])))
        total += entropy([cross + ws[c]]) - entropy([cross + vwc]) \
            - entropy([zs[c] - ws[c]])
    return total / 3.0


def kuser_weak_oracle(k, g, p, cfg):
    """Direct chain I(X1;Y1) + sum I(Xm;Ym,Sm|X^{m-1}) + I(XK;YK|X^{K-1})."""
    from gicbounds.channel import make_symmetric

    ch = make_symmetric(k, g, p)
    sysm, xs, zs, ys = build_system(ch)
    val = mutual_info([xs[0]], [ys[0]])
    for m in range(1, k - 1):
        nm = correlated_pair(cfg.n[m - 1].sigma, complex(cfg.n[m - 1].rho),
                             zs[m])
        sm = nm
        for i in range(k):
            if i != m - 1:
                sm = sm + xs[i] * complex(g)
        val += mutual_info([xs[m]], [ys[m], sm], xs[:m])
    val += mutual_info([xs[k - 1]], [ys[k - 1]], xs[: k - 1])
    return val


def kuser_hybrid_oracle(k, g, p, cfg):
    """Hybrid chain with the last user's change-of-interference input and the
    tight conditional worst-noise pair."""
    from gicbounds.channel import make_symmetric

    ch = make_symmetric(k, g, p)
    sysm, xs, zs, ys = build_system(ch)
    g2 = abs(complex(g)) ** 2
    val = mutual_info([xs[0]], [ys[0]])
    for m in range(1, k - 1):
        nm = correlated_pair(cfg.n[m - 1].sigma, complex(cfg.n[m - 1].rho),
                             zs[m])
        vpair = cond_var(nm, zs[m] - nm)   # the last one pairs below
        sm = nm
        for i in range(k):
            if i != m - 1:
                sm = sm + xs[i] * complex(g)
        val += mutual_info([xs[m]], [ys[m], sm], xs[:m])
    wk = correlated_pair(cfg.wk.sigma, complex(cfg.wk.rho), zs[k - 1])
    u_k = wk
    for i in range(k - 1):
        u_k = u_k + xs[i] * complex(g)
    cross = u_k - wk
    vzw = (zs[k - 1] - wk).variance
    # the conditional worst-noise pair consumes the g X_K + V_N entropy that
    # the last chain mutual information above already subtracted
    v_n_fresh = sysm.gaussian(math.sqrt(vpair))
    val += entropy([xs[k - 1] * complex(g) + v_n_fresh])
    vt = sysm.gaussian(math.sqrt(max(0.0, vpair / g2 - vzw)))
    lead = xs[k - 1] + zs[k - 1] - wk
    val += (entropy([lead, u_k]) - entropy([u_k])
            - (entropy([lead + vt, u_k]) - entropy([u_k])) - math.log2(g2))
    vwk = sysm.gaussian(math.sqrt(cond_var(wk, zs[k - 1] - wk)))
    val += entropy([cross + wk]) - entropy([cross + vwk]) \
        - entropy([zs[k - 1] - wk])
    return val
