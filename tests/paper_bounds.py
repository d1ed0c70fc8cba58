"""Three closed forms that only the tests compare against: the composed-channel
fidelity, the correction term as it enters the fidelity and the Knill-Barnum
success bound.  No pbtlab route uses them."""

from pbtlab.closedform import CORR_TRACE_SCALE, check_gamma_abs, check_n, f_corr, f_ih


def kim_fidelity(n: int, gamma_abs: float) -> float:
    """Entanglement fidelity of the composed-channel model at theta = 0."""
    check_gamma_abs(gamma_abs)
    return (2.0 * gamma_abs + 1.0) / 3.0 * f_ih(n) + (1.0 - gamma_abs) / 6.0


def f_corr_trace(n: int) -> float:
    """The correction as it enters the fidelity: (1/4) sum_i tr(Pi_i omega_i)."""
    return CORR_TRACE_SCALE * f_corr(n)


def knill_barnum_bound(n: int) -> float:
    """Success-probability lower bound from the constant 1/2 pairwise fidelity."""
    return 1.0 - (check_n(n) - 1) / 4.0
