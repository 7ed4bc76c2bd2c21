"""Generate arbitrary-precision reference values for the special-function layer.

Desk-scale oracle script, run once and kept under version control along
with its frozen output ``tests/fixtures/specfun_fixtures.txt``.  It uses
mpmath only (never the package under test) so the fixtures stay an
independent yardstick.

Families and their meaning (each row n of a family is checked against
row n of the matching order table of ``paracasimir.specfun``):

    regular            D_n(x)                      pcf_regular_table
    regular_deriv      D_n'(x)                     pcf_regular_table(..., with_derivative)
    regular_imag       i^n D_n(ix), real valued    pcf_regular_imag_table
    regular_imag_deriv d/dx of the line above      pcf_regular_imag_table(..., with_derivative)
    outgoing           D_{-n-1}(x)                 pcf_outgoing_table
    outgoing_deriv     D_{-n-1}'(x)                pcf_outgoing_table(..., with_derivative)
    bateman            k_{-2n-1}(u)                bateman_k_table

Output format: whitespace-separated columns ``family n x value_sign
value_logmag`` with 20 significant digits, ``#`` comments allowed.

Grid points where the target value is tiny compared with the natural
magnitude scale of its three-term recurrence (i.e. near a zero of an
oscillatory family member) are skipped: no float64 evaluation scheme can
hold a relative tolerance through such cancellation, and the zeros carry
no information the recurrence-residual property tests do not already
cover.
"""

import os

import mpmath as mp

ORDERS = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200]
X_REAL = [-50.0, -20.0, -8.0, -3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0, 8.0, 20.0, 50.0]
X_IMAG = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
X_OUT = [0.0, 0.05, 0.1, 0.15, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
BATEMAN_N = [0, 1, 2, 5, 10, 20, 50, 100, 200, 400]
BATEMAN_U = [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]

# Skip a point when |value| falls below this fraction of the family's
# local magnitude envelope; below it, float64 cancellation noise would
# dominate a 1e-10 relative comparison.
CONDITION_FLOOR = mp.mpf("1e-3")


def regular_table(x, nmax):
    """D_0..D_{nmax+1}(x) by the exact order recurrence, as mpf values.

    The recurrence follows the dominant solution for the regular family
    at real argument, so precision loss over a few hundred orders stays
    negligible at working precision.
    """
    table = [mp.exp(-x * x / 4), x * mp.exp(-x * x / 4)]
    for n in range(1, nmax + 1):
        table.append(x * table[n] - n * table[n - 1])
    return table


def imag_table(x, nmax):
    """t_n(x) = i^n D_n(ix) for n = 0..nmax+1, real with sign (-1)^n.

    The literal order recurrence is t_{n+1} = -x t_n + n t_{n-1}; both
    terms carry the same sign ((-1)^{n+1}), so the magnitudes never
    cancel and the recurrence is exactly stable.
    """
    table = [mp.exp(x * x / 4), -x * mp.exp(x * x / 4)]
    for n in range(1, nmax + 1):
        table.append(-x * table[n] + n * table[n - 1])
    return table


def emit(lines, family, n, x, value, envelope=None):
    """Append one fixture record, or drop it if too close to a zero."""
    if envelope is not None and abs(value) < CONDITION_FLOOR * envelope:
        return False
    if value == 0:
        return False
    sign = 1 if value > 0 else -1
    logmag = mp.log(abs(value))
    lines.append(f"{family} {n} {x!r} {sign} {mp.nstr(logmag, 20)}")
    return True


def gen_regular(lines):
    for x_float in X_REAL:
        x = mp.mpf(x_float)
        table = regular_table(x, ORDERS[-1])
        # Envelope over the recurrence path, including the next order,
        # measures how much cancellation the value at n has survived.
        running = mp.mpf(0)
        deriv_running = mp.mpf(0)
        env = {}
        denv = {}
        for k in range(ORDERS[-1] + 1):
            running = max(running, abs(table[k]))
            deriv_running = max(deriv_running, abs(x / 2 * table[k] - table[k + 1]))
            env[k] = running
            denv[k] = deriv_running
        for n in ORDERS:
            emit(lines, "regular", n, x_float, table[n], env[n])
            deriv = x / 2 * table[n] - table[n + 1]
            emit(lines, "regular_deriv", n, x_float, deriv, denv[n])


def gen_regular_imag(lines):
    for x_float in X_IMAG:
        x = mp.mpf(x_float)
        table = imag_table(x, ORDERS[-1])
        for n in ORDERS:
            emit(lines, "regular_imag", n, x_float, table[n])
            # d/dx [i^n D_n(ix)] = -(x/2) t_n(x) - t_{n+1}(x); bound the
            # conditioning by the larger of the two terms.
            deriv = -x / 2 * table[n] - table[n + 1]
            scale = max(abs(table[n + 1]), abs(x / 2 * table[n]))
            emit(lines, "regular_imag_deriv", n, x_float, deriv, scale)


def outgoing_value(n, x):
    return mp.pcfd(-n - 1, x)


def gen_outgoing(lines):
    for x_float in X_OUT:
        x = mp.mpf(x_float)
        cache = {}
        for n in range(-1, ORDERS[-1] + 1):
            cache[n] = outgoing_value(n, x) if n >= 0 else mp.pcfd(0, x)
        # Spot-check the order recurrence on the cached values.
        for n in (1, 50, 199):
            resid = cache[n - 1] - x * cache[n] - (n + 1) * cache[n + 1]
            scale = abs(cache[n - 1]) + abs(x * cache[n]) + abs((n + 1) * cache[n + 1])
            assert resid == 0 or abs(resid) / scale < mp.mpf("1e-30"), (n, x_float)
        for n in ORDERS:
            emit(lines, "outgoing", n, x_float, cache[n])
            deriv = x / 2 * cache[n] - cache[n - 1]
            scale = max(abs(x / 2 * cache[n]), abs(cache[n - 1]))
            emit(lines, "outgoing_deriv", n, x_float, deriv, scale)


def bateman_value(n, u):
    """k_{-2n-1}(u) = e^{-u} U(n + 1/2, 0, 2u) / Gamma(1/2 - n)."""
    return mp.exp(-u) * mp.hyperu(n + mp.mpf(1) / 2, 0, 2 * u) / mp.gamma(mp.mpf(1) / 2 - n)


def gen_bateman(lines):
    for u_float in BATEMAN_U:
        u = mp.mpf(u_float)
        for n in BATEMAN_N:
            value = bateman_value(n, u)
            # The signed values alternate; their magnitudes m_n are positive.
            assert (-1) ** n * value > 0, (n, u_float)
            emit(lines, "bateman", n, u_float, value)
        # Contiguous-order residual check at the extremes of the grid:
        # (l/2 + 1) k_{l+2} + (l - 2u) k_l + (l/2 - 1) k_{l-2} = 0.
        for n in (1, 20, 399):
            ell = -2 * n - 1
            terms = [
                (mp.mpf(ell) / 2 + 1) * bateman_value(n - 1, u),
                (ell - 2 * u) * bateman_value(n, u),
                (mp.mpf(ell) / 2 - 1) * bateman_value(n + 1, u),
            ]
            resid = abs(mp.fsum(terms)) / max(abs(t) for t in terms)
            assert resid < mp.mpf("1e-30"), (n, u_float, mp.nstr(resid, 5))


def main():
    out_path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tests",
        "fixtures",
        "specfun_fixtures.txt",
    )
    lines = [
        "# Arbitrary-precision reference values for paracasimir.specfun.",
        "# Columns: family n x value_sign value_logmag (natural log).",
        "# Generated by scripts/gen_specfun_fixtures.py (mpmath, 40+ digits).",
    ]
    with mp.workdps(50):
        gen_regular(lines)
        gen_regular_imag(lines)
        gen_outgoing(lines)
    with mp.workdps(60):
        gen_bateman(lines)
    records = len(lines) - 3
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {records} records to {out_path}")


if __name__ == "__main__":
    main()
