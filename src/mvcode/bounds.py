"""Closed-form storage costs and lower bounds, in exact rational bits.

Every cost is a rational multiple of k_bits except lb_eq1, whose
logarithmic correction is irrational; it is returned as a float and its
rational leading term is exposed separately. Formulas are total functions
of (k_bits, nu, c); regime checks are advisory through `*_in_regime`
helpers so parameter sweeps never abort, except where a formula is
arithmetically meaningless (non-positive denominator, c < 3 for lb_thm4).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import RegimeError

CSV_COLUMNS = ("c", "nu", "cost_central", "lb_thm3", "cost_c1", "cost_c2",
               "cost_baseline", "lb_eq1", "lb_thm4", "verdict")
# the columns whose value is a Fraction (or None), also written as "num/den"
EXACT_COLUMNS = ("cost_central", "lb_thm3", "cost_c1", "cost_c2", "cost_baseline",
                 "lb_thm4")

VERDICT_GAIN = "side-info gain"
VERDICT_NO_HELP = "no-help"


def cost_centralized(k_bits: int, c: int) -> Fraction:
    """Full-information cost: one dimension-c MDS share of the latest complete."""
    if c < 1:
        raise RegimeError(f"c must be >= 1, got {c}")
    return Fraction(k_bits, c)


def cost_c1(k_bits: int, c: int) -> Fraction:
    """Two-version split scheme budget: (c+2)/c^2 of the message."""
    if c < 1:
        raise RegimeError(f"c must be >= 1, got {c}")
    return Fraction((c + 2) * k_bits, c * c)


def cost_c2(k_bits: int, nu: int, c: int) -> Fraction:
    """Local-latest scheme budget: 1/(c - 2(nu-1)) of the message."""
    denom = c - 2 * (nu - 1)
    if denom < 1:
        raise RegimeError(f"c2 cost needs c >= 2*nu-1, got c={c}, nu={nu}")
    return Fraction(k_bits, denom)


def c2_in_regime(nu: int, c: int) -> bool:
    return c >= 2 * nu - 1


def baseline_t(nu: int, c: int) -> int:
    if nu < 2:
        return c  # degenerate single-version case collapses to 1/c
    if c >= (nu - 1) ** 2:
        return -(-(c - 1) // nu) + 1
    return -(-c // (nu - 1))


def cost_baseline(k_bits: int, nu: int, c: int) -> Fraction:
    """Cost of the no-side-information scheme: max{nu/c - (nu-1)/(tc), 1/t}."""
    if c < 1:
        raise RegimeError(f"c must be >= 1, got {c}")
    t = baseline_t(nu, c)
    return max(Fraction(nu, c) - Fraction(nu - 1, t * c), Fraction(1, t)) * k_bits


def lb_eq1(k_bits: int, nu: int, c: int) -> float:
    """No-side-information lower bound, with its logarithmic correction."""
    if c < 1 or nu < 1:
        raise RegimeError(f"c and nu must be >= 1, got c={c}, nu={nu}")
    lead = nu * k_bits / (c + nu - 1)
    corr = math.log2(nu ** nu * math.comb(c + nu - 1, nu)) / (c + nu - 1)
    return lead - corr


def lb_eq1_leading(nu: int, c: int) -> Fraction:
    """Rational leading term nu/(c+nu-1); the correction vanishes with k_bits."""
    return Fraction(nu, c + nu - 1)


def lb_thm3(k_bits: int, c: int) -> Fraction:
    """Lower bound in the cw = 2h+1 = n-1, two-version regime: 2/(2c-1)."""
    if c < 1:
        raise RegimeError(f"c must be >= 1, got {c}")
    return Fraction(2 * k_bits, 2 * c - 1)


def lb_thm4(k_bits: int, c: int) -> Fraction:
    """Lower bound in the cw = cr, h <= (n-c)/4 regime:
    max{1/ceil(2c/3), 2/(2c - floor(2c/3))}."""
    if c < 3:
        raise RegimeError(f"this bound needs c >= 3, got {c}")
    up = -(-2 * c // 3)
    down = 2 * c // 3
    return max(Fraction(k_bits, up), Fraction(2 * k_bits, 2 * c - down))


def lb_thm4_sweep(k_bits: int, c: int) -> Fraction:
    """Brute-force version of lb_thm4: max over every block size l of
    min{1/(l+1), 2/(2c-l-1)}. Used as the independent oracle."""
    if c < 3:
        raise RegimeError(f"this bound needs c >= 3, got {c}")
    return max(min(Fraction(k_bits, l + 1), Fraction(2 * k_bits, 2 * c - l - 1))
               for l in range(c))


def _plain(x, missing):
    """A column value as written: a Fraction as its float, None as `missing`."""
    if x is None:
        return missing
    return float(x) if isinstance(x, Fraction) else x


@dataclass(frozen=True)
class BoundRow:
    c: int
    nu: int
    k_bits: int
    cost_central: Fraction
    lb_thm3: Fraction
    cost_c1: Fraction
    cost_c2: Fraction | None
    cost_baseline: Fraction
    lb_eq1: float
    lb_thm4: Fraction | None
    verdict: str

    def to_dict(self) -> dict:
        doc = {col: _plain(getattr(self, col), None) for col in CSV_COLUMNS}
        doc["K"] = self.k_bits
        exact = {col: getattr(self, col) for col in EXACT_COLUMNS}
        doc["exact"] = {col: None if x is None else f"{x.numerator}/{x.denominator}"
                        for col, x in exact.items()}
        return doc


def _verdict(row_c: int, nu: int, k_bits: int, c1: Fraction,
             baseline: Fraction, thm4: Fraction | None) -> str:
    # no-help: the converse already matches what is achievable with no
    # sharing at all; gain: the split scheme beats the no-sharing leading term.
    if thm4 is not None and thm4 >= baseline:
        return VERDICT_NO_HELP
    if c1 < lb_eq1_leading(nu, row_c) * k_bits:
        return VERDICT_GAIN
    return ""


def compare_report(c_lo: int, c_hi: int, nu: int, k_bits: int) -> list[BoundRow]:
    """One row per c in [c_lo, c_hi], all formulas side by side."""
    if c_lo < 1 or c_hi < c_lo:
        raise ValueError(f"bad c range [{c_lo}, {c_hi}]")
    if k_bits < 1:
        raise ValueError(f"K must be >= 1, got {k_bits}")
    rows = []
    for c in range(c_lo, c_hi + 1):
        c2 = cost_c2(k_bits, nu, c) if c2_in_regime(nu, c) else None
        thm4 = lb_thm4(k_bits, c) if c >= 3 else None
        c1 = cost_c1(k_bits, c)
        baseline = cost_baseline(k_bits, nu, c)
        rows.append(BoundRow(
            c=c, nu=nu, k_bits=k_bits,
            cost_central=cost_centralized(k_bits, c),
            lb_thm3=lb_thm3(k_bits, c),
            cost_c1=c1,
            cost_c2=c2,
            cost_baseline=baseline,
            lb_eq1=lb_eq1(k_bits, nu, c),
            lb_thm4=thm4,
            verdict=_verdict(c, nu, k_bits, c1, baseline, thm4),
        ))
    return rows


def rows_to_csv(rows: list[BoundRow]) -> str:
    import io
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([_plain(getattr(r, col), "") for col in CSV_COLUMNS])
    return buf.getvalue()


def rows_to_json(rows: list[BoundRow]) -> str:
    return json.dumps([r.to_dict() for r in rows], sort_keys=True, indent=2) + "\n"
