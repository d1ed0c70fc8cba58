"""Two closed forms that only the tests compare against: the composed-channel
fidelity and the Knill-Barnum success bound.  No pbtlab route uses them."""

from pbtlab.closedform import check_gamma_abs, f_ih


def kim_fidelity(n: int, gamma_abs: float) -> float:
    """Entanglement fidelity of the composed-channel model at theta = 0."""
    check_gamma_abs(gamma_abs)
    return (2.0 * gamma_abs + 1.0) / 3.0 * f_ih(n) + (1.0 - gamma_abs) / 6.0


def knill_barnum_bound(n: int) -> float:
    """Success-probability lower bound from the constant 1/2 pairwise fidelity."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 1.0 - (n - 1) / 4.0
