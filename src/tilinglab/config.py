"""Absorber configuration, the errors of the absorbing layers, and the
checks of JSON values.

`AbsorberConfig` holds the constants that drive absorber construction:
`asymptotic` binds two of them to the others as the theory does, and
`desk_scale` sets each one, as every build in the package does.  The
exceptions are the ones the absorber, absorbing-set and absorption modules
raise.  `load_json_text`, `refuse_unknown_keys`, `is_json_int`,
`json_int` and `is_json_number` are the one check each of a JSON text,
object keys, integers and numbers, which the config, the generator grid,
the sweep spec and the document loaders share.  This module imports nothing from the package, so
every layer can import it without a cycle.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import IO, Any


class StageFailure(RuntimeError):
    """A build stage ran out of candidates or failed its check; carries the
    stage name and, when known, the blocking vertices."""

    def __init__(self, stage: str, detail: str = "", blocking: tuple | None = None):
        self.stage = stage
        self.detail = detail
        self.blocking = blocking
        msg = f"stage '{stage}' failed"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class CertificateBugError(RuntimeError):
    """A property certified at build time failed at use time."""


def load_json_text(source: str | IO[str], what: str) -> Any:
    """The JSON value of `source`, a string or an open text file; a
    ValueError naming `what` if it does not decode (not JSON, or a file
    that is not in its encoding)."""
    import json  # here, so that `import tilinglab` loads no json

    try:
        return json.loads(source if isinstance(source, str) else source.read())
    except ValueError as exc:
        raise ValueError(f"{what} is not JSON: {exc}") from None


def refuse_unknown_keys(obj: dict, known, what: str) -> None:
    """ValueError naming the keys of `obj` that `known` lacks, if any."""
    unknown = obj.keys() - known
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(sorted(unknown))}")


def is_json_int(value: Any) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_int(value: Any, what: str, lo: int | None = None) -> int:
    """`value` if it is a JSON integer, and at least `lo` when given; else
    ValueError naming `what`."""
    if not is_json_int(value) or (lo is not None and value < lo):
        import json  # here, so that `import tilinglab` loads no json

        want = "an integer" if lo is None else f"an integer >= {lo}"
        raise ValueError(f"{what} must be {want}, not {json.dumps(value)}")
    return value


def is_json_number(value: Any) -> bool:
    """True for a finite JSON number: an int or float, not a bool, within
    the largest float either way.  Comparisons, unlike math.isfinite, refuse
    an int too large for a float instead of raising."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


# ---------------------------------------------------------------------------
# configuration

# most samples of the buffer and of the partition
SAMPLE_RETRIES = 50
PARTITION_RETRIES = 20


@dataclass(frozen=True)
class AbsorberConfig:
    """Constants driving absorber construction.

    `asymptotic` binds sample_prob = absorber_frac/(500*h*t) and
    surplus_ratio = sample_prob**(h-1)*absorber_frac/4 as the theory does;
    `desk_scale` sets both directly, as every build in the package does.
    A config is a build's input only: the structure it builds keeps none
    of it, and absorbs up to its template's surplus, ceil(surplus_ratio),
    over h-1 remainder vertices.  This class is the
    only place that lists the fields; `from_overrides` reads them from
    `fields()`.
    """

    h: int
    t: int
    absorber_frac: float      # required disjoint-absorber family density per core set
    sample_prob: float        # buffer sampling probability
    surplus_ratio: float      # buffer surplus of the one template round: |buffer| = 1+ceil(ratio)
    degree_frac: float = 0.1       # minimum-degree fraction for hypothesis checks
    threshold_frac: float = 0.2    # clique-free / traversing threshold fraction
    pool_size: int | None = None         # neighbor-pool size per core vertex
    m_cap: int | None = None             # 0 refuses; None or any value >= 1 builds one round

    def __post_init__(self):
        # fields arrive from JSON, so every type and range is checked here
        for f in fields(self):
            x = getattr(self, f.name)
            if f.type == "float":
                ok = is_json_number(x)
            else:  # "int" or "int | None", never negative
                ok = (is_json_int(x) and x >= 0) or (x is None and f.type == "int | None")
            if not ok:
                raise ValueError(f"AbsorberConfig.{f.name} must be a non-negative "
                                 f"{f.type}, not {x!r}")
        for name in ("absorber_frac", "sample_prob", "degree_frac", "threshold_frac"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"AbsorberConfig.{name} must lie in [0, 1]")
        if self.surplus_ratio <= 0:
            raise ValueError("AbsorberConfig.surplus_ratio must be positive")
        for name, low in dict(h=2, t=1).items():
            if getattr(self, name) < low:
                raise ValueError(f"AbsorberConfig.{name} must be at least {low}")

    @classmethod
    def asymptotic(cls, h: int, t: int, absorber_frac: float) -> "AbsorberConfig":
        """The config with sample_prob and surplus_ratio as the theory binds
        them; absorber_frac must lie in (0, 1), as the theory's does."""
        if not 0 < absorber_frac < 1:
            raise ValueError("asymptotic absorber_frac must lie in (0, 1)")
        q = absorber_frac / (500 * h * t)
        return cls(h=h, t=t, absorber_frac=absorber_frac, sample_prob=q,
                   surplus_ratio=q ** (h - 1) * absorber_frac / 4)

    @classmethod
    def desk_scale(
        cls,
        h: int,
        t: int = 1,
        absorber_frac: float = 0.05,
        sample_prob: float = 0.08,
        surplus_ratio: float = 6.0,
        **kw,
    ) -> "AbsorberConfig":
        """Desk-scale constants; `kw` sets any further field."""
        return cls(h=h, t=t, absorber_frac=absorber_frac, sample_prob=sample_prob,
                   surplus_ratio=surplus_ratio, **kw)

    @classmethod
    def from_overrides(cls, h: int, obj) -> "AbsorberConfig":
        """The desk_scale config for pattern size h with the fields set in
        `obj`, the JSON object given to `--config` or as a sweep spec's
        `config`.  `obj` may set any field except h, which the pattern
        fixes; anything else raises a ValueError naming it."""
        if not isinstance(obj, dict):
            raise ValueError(f"--config must be a JSON object, not {type(obj).__name__}")
        if "h" in obj:
            raise ValueError("config may not set h: the pattern fixes it")
        refuse_unknown_keys(obj, {f.name for f in fields(cls)}, "AbsorberConfig")
        return cls.desk_scale(h=h, **obj)
