"""Run-wide tuning knobs shared by the library pipeline and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UsageError

SMOOTH_MEAN = "mean"
SMOOTH_EXPONENTIAL = "exponential"
# Largest accepted max_order. A monomial least-squares fit's numerical rank
# stops growing below it (at degree 100: 50 for n=200, 44 for n=60k).
MAX_TREND_ORDER = 50


@dataclass(frozen=True)
class RunConfig:
    """Pipeline configuration, checked once here for every stage that uses it.

    alpha          period validation strictness in (0, 1)
    max_order      largest candidate trend order, 1..MAX_TREND_ORDER
    smooth_radius  window radius; None picks max(1, round(l/8)) per series
    smooth_kind    "mean" or "exponential"
    exp_alpha      center weight for exponential smoothing
    channel_filter channels to process; None means all
    """

    alpha: float = 0.8
    max_order: int = 30
    smooth_radius: int | None = None
    smooth_kind: str = SMOOTH_MEAN
    exp_alpha: float = 0.5
    channel_filter: list[str] | None = field(default=None)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise UsageError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.max_order >= 1:
            raise UsageError(f"max_order must be >= 1, got {self.max_order}")
        if self.max_order > MAX_TREND_ORDER:
            raise UsageError(f"max_order must be <= {MAX_TREND_ORDER}, got {self.max_order}")
        if self.smooth_radius is not None and not self.smooth_radius >= 0:
            raise UsageError(f"smooth_radius must be >= 0, got {self.smooth_radius}")
        if self.smooth_radius == float("inf"):
            raise UsageError("smooth_radius must be finite, got inf")
        # The stages count and slice with these, so they are held as ints.
        for name in ("max_order", "smooth_radius"):
            value = getattr(self, name)
            if value is not None and value % 1:
                raise UsageError(f"{name} must be a whole number, got {value}")
            object.__setattr__(self, name, None if value is None else int(value))
        if self.smooth_kind not in (SMOOTH_MEAN, SMOOTH_EXPONENTIAL):
            raise UsageError(f"unknown smooth_kind {self.smooth_kind!r}")
        if self.smooth_kind == SMOOTH_EXPONENTIAL and self.smooth_radius == 0:
            raise UsageError("smooth_radius must be >= 1 for exponential smoothing, got 0")
        if not 0.0 < self.exp_alpha <= 1.0:
            raise UsageError(f"exp_alpha must lie in (0, 1], got {self.exp_alpha}")
        if isinstance(self.channel_filter, str):
            raise UsageError(f"channel_filter must be a list of channel names, got {self.channel_filter!r}")
