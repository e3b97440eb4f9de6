"""Catalog of side-length functions for the polygon spiral.

Each entry assigns a (possibly signed) side length to the n-gon and knows
its own large-argument power law, which is what the limit classifier keys
off.  The catalog is closed: classification would be undecidable for
arbitrary user functions, so only these five families exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .numerics import TWO_PI, _number, _refuse

__all__ = [
    "Asymptote",
    "LengthFunction",
    "LengthKind",
    "area_normalized",
    "circumscribed",
    "inscribed",
    "parse_length",
    "power_law",
    "telescoping",
]

_SQRT_PI = math.sqrt(math.pi)


class LengthKind(Enum):
    POWER = "power"
    INSCRIBED = "inscribed"
    CIRCUMSCRIBED = "circumscribed"
    AREA = "area"
    TELESCOPING = "telescoping"


class Asymptote(NamedTuple):
    """Leading behavior f(x) ~ scale * x**(-exponent) as x -> infinity: the
    side lengths vanish when the exponent is positive, and tend to the
    nonzero constant ``scale`` when it is 0."""

    exponent: float
    scale: float


@dataclass(frozen=True)
class LengthFunction:
    """A catalog length function, evaluable at real arguments > 1.

    power:          x^-s
    inscribed:      2 x^-s sin(pi/x)     (n-gon inscribed in radius x^-s)
    circumscribed:  2 x^-s tan(pi/x)     (singular at x = 2)
    area:           sqrt(4 x^-s tan(pi/x) / x)   (n-gon of area x^-s; x > 2)
    telescoping:    2 cos(2 pi / x)      (signed; negative on (4/3, 4))
    """

    kind: LengthKind
    s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", float(_number(self.s, "s")))
        if not math.isfinite(self.s):
            raise ValueError(f"length exponent must be finite, got {self.s}")

    def __call__(self, x: float) -> float:
        # one-off evaluations; the scalar tail's loop holds on to as_callable()
        x = _number(x, "x")
        if not x > 1.0:
            raise ValueError(f"length functions require x > 1, got {x}")
        return _formula(self.kind, self.s)(x)

    def asymptote(self) -> Asymptote:
        """Large-x power law used for convergence classification."""
        kind = self.kind
        if kind is LengthKind.POWER:
            return Asymptote(self.s, 1.0)
        if kind in (LengthKind.INSCRIBED, LengthKind.CIRCUMSCRIBED):
            e = 1.0 + self.s
            return Asymptote(e, TWO_PI)
        if kind is LengthKind.AREA:
            e = 1.0 + 0.5 * self.s
            return Asymptote(e, 2.0 * _SQRT_PI)
        return Asymptote(0.0, 2.0)

    def as_callable(self) -> Callable[[float], float]:
        """The float formula without per-call dispatch, for the scalar tail's loop.

        It skips the x > 1 check; the family's own singularities still raise.
        """
        return _formula(self.kind, self.s)

    def spec(self) -> str:
        """CLI spelling, e.g. "power:1" or "telescoping"."""
        if self.kind is LengthKind.TELESCOPING:
            return "telescoping"
        return f"{self.kind.value}:{self.s:g}"

    def __str__(self) -> str:
        return self.spec()


def _formula(kind: LengthKind, s: float, xp=math) -> Callable:
    """The side-length formula of one family at exponent s, written once for a
    float (xp = math) and a float array (xp = _arrays._ARRAY, entry for entry
    the float's bits); a singular x raises at both.  At s = 0 (or -0.0) the
    pow is left out: x^-0 is 1.0 at every x, and 1.0 times a float is that
    float, so power:0 is 1.0 and the other families keep their bits."""
    flat = s == 0.0
    if kind is LengthKind.POWER:
        if flat:
            return lambda x: 1.0
        return lambda x: xp.pow(x, -s)
    if kind is LengthKind.INSCRIBED:
        if flat:
            return lambda x: 2.0 * xp.sin(math.pi / x)
        return lambda x: 2.0 * xp.pow(x, -s) * xp.sin(math.pi / x)
    if kind is LengthKind.CIRCUMSCRIBED:

        def circumscribed_side(x):
            _refuse(x == 2.0, x, "circumscribed length is singular at x = 2")
            return (2.0 if flat else 2.0 * xp.pow(x, -s)) * xp.tan(math.pi / x)

        return circumscribed_side
    if kind is LengthKind.AREA:

        def area_side(x):
            # tan(pi/x) < 0 on (1, 2): no regular polygon of positive area.
            _refuse(x <= 2.0, x, "area-normalized length requires x > 2, got {}")
            return xp.sqrt((4.0 if flat else 4.0 * xp.pow(x, -s)) * xp.tan(math.pi / x) / x)

        return area_side
    return lambda x: 2.0 * xp.cos(TWO_PI / x)


def power_law(s: float) -> LengthFunction:
    return LengthFunction(LengthKind.POWER, s)


def inscribed(s: float) -> LengthFunction:
    return LengthFunction(LengthKind.INSCRIBED, s)


def circumscribed(s: float) -> LengthFunction:
    return LengthFunction(LengthKind.CIRCUMSCRIBED, s)


def area_normalized(s: float) -> LengthFunction:
    return LengthFunction(LengthKind.AREA, s)


def telescoping() -> LengthFunction:
    return LengthFunction(LengthKind.TELESCOPING)


def parse_length(text: str) -> LengthFunction:
    """Parse the CLI spelling: power:S, inscribed:S, circumscribed:S,
    area:S, or telescoping."""
    body = text.strip().lower()
    if body == "telescoping":
        return telescoping()
    name, sep, arg = body.partition(":")
    kinds = {
        "power": power_law,
        "inscribed": inscribed,
        "circumscribed": circumscribed,
        "area": area_normalized,
    }
    if not sep or name not in kinds:
        raise ValueError(
            f"unrecognized length spec {text!r}; expected one of "
            "power:S, inscribed:S, circumscribed:S, area:S, telescoping"
        )
    try:
        s = float(arg)
    except ValueError:
        raise ValueError(f"bad exponent in length spec {text!r}") from None
    return kinds[name](s)
