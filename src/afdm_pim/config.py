"""Validated system configuration, constellations, and seeded random streams."""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_UINT64_MASK = (1 << 64) - 1


def default_c1(n_subcarriers: int, max_doppler: int) -> float:
    """Post-chirp parameter that separates delay-Doppler paths: (2*a_max + 1) / (2*N)."""
    if n_subcarriers < 1:
        raise ValueError("n_subcarriers must be >= 1")
    return (2 * max_doppler + 1) / (2 * n_subcarriers)


@dataclass(frozen=True)
class SystemConfig:
    """Frame geometry, chirp parameters, and channel bounds.

    ``post_chirp`` defaults to (2*max_doppler + 1)/(2*n_subcarriers), which keeps
    every path's cyclic placement offset integral. It may be overridden to study
    configurations that give up that property.
    """

    n_subcarriers: int
    n_groups: int
    alphabet_size: int
    constellation_order: int = 2
    constellation_kind: str = "PSK"
    max_delay: int = 0
    max_doppler: int = 0
    cpp_length: int = 0
    post_chirp: float | None = None

    def __post_init__(self) -> None:
        n, g = self.n_subcarriers, self.n_groups
        if n < 1 or g < 1:
            raise ValueError("n_subcarriers and n_groups must be positive")
        if n % g != 0:
            raise ValueError(f"n_groups={g} does not divide n_subcarriers={n}")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        m = self.constellation_order
        if m < 2 or (m & (m - 1)) != 0:
            raise ValueError(f"constellation_order={m} is not a power of two >= 2")
        kind = self.constellation_kind.upper()
        if kind not in ("PSK", "QAM"):
            raise ValueError(f"unknown constellation_kind {self.constellation_kind!r}")
        object.__setattr__(self, "constellation_kind", kind)
        if kind == "QAM" and math.isqrt(m) ** 2 != m:
            raise ValueError(f"QAM order {m} is not a perfect square")
        if self.max_delay < 0 or self.max_doppler < 0:
            raise ValueError("max_delay and max_doppler must be non-negative")
        if self.cpp_length < 0:
            raise ValueError("cpp_length must be non-negative")
        if self.cpp_length < self.max_delay:
            raise ValueError(
                f"cpp_length={self.cpp_length} shorter than max_delay={self.max_delay}"
            )
        if self.cpp_length > n:
            # the chirp-periodic prefix extends the frame by at most one period
            raise ValueError(f"cpp_length={self.cpp_length} longer than n_subcarriers={n}")
        if self.post_chirp is None:
            object.__setattr__(
                self, "post_chirp", default_c1(n, self.max_doppler)
            )
        elif not (math.isfinite(self.post_chirp) and self.post_chirp >= 0):
            raise ValueError(
                f"post_chirp={self.post_chirp} must be finite and non-negative"
            )

    @property
    def group_size(self) -> int:
        """Subcarriers per group, N_c = N/G."""
        return self.n_subcarriers // self.n_groups

    @property
    def bits_per_symbol(self) -> int:
        return self.constellation_order.bit_length() - 1

    @property
    def placement_capacity(self) -> int:
        """Number of distinct (delay, Doppler) cells, (d_max+1)*(2*a_max+1)."""
        return (self.max_delay + 1) * (2 * self.max_doppler + 1)

    @property
    def placement_capacity_ok(self) -> bool:
        """Whether the delay-Doppler grid fits in one frame (capacity <= N)."""
        return self.placement_capacity <= self.n_subcarriers


def _gray(k: int) -> int:
    return k ^ (k >> 1)


@dataclass(frozen=True, eq=False)
class Constellation:
    """Unit-average-energy constellation with Gray bit labeling.

    ``points[label]`` is the complex point whose Gray label equals ``label``.
    """

    kind: str
    order: int
    points: np.ndarray

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1


@lru_cache(maxsize=None)
def make_constellation(kind: str, order: int) -> Constellation:
    """Build an M-PSK or square M-QAM constellation normalized to unit average energy."""
    kind = kind.upper()
    m = order
    if m < 2 or (m & (m - 1)) != 0:
        raise ValueError(f"order {m} is not a power of two >= 2")
    points = np.zeros(m, dtype=complex)
    if kind == "PSK":
        for k in range(m):
            points[_gray(k)] = np.exp(2j * np.pi * k / m)
    elif kind == "QAM":
        side = math.isqrt(m)
        if side * side != m:
            raise ValueError(f"QAM order {m} is not a perfect square")
        half = side.bit_length() - 1
        scale = math.sqrt(2.0 * (m - 1) / 3.0)
        for i in range(side):
            for q in range(side):
                label = (_gray(i) << half) | _gray(q)
                points[label] = complex(2 * i - side + 1, 2 * q - side + 1) / scale
    else:
        raise ValueError(f"unknown constellation kind {kind!r}")
    energy = np.mean(np.abs(points) ** 2)
    if abs(energy - 1.0) > 1e-12:
        raise AssertionError(f"constellation energy {energy} != 1")
    return Constellation(kind=kind, order=m, points=points)


def constellation_for(cfg: SystemConfig) -> Constellation:
    return make_constellation(cfg.constellation_kind, cfg.constellation_order)


@dataclass(frozen=True)
class RandomSource:
    """Deterministic random-stream handle: the seed identifies the draws."""

    seed: int

    def generator(self, *extra_ids: int) -> np.random.Generator:
        """Independent generator keyed by (seed, *extra_ids)."""
        # the 0 is part of every seeded stream's key: dropping it would change all draws
        key = [self.seed & _UINT64_MASK, 0]
        key.extend(int(i) & _UINT64_MASK for i in extra_ids)
        return np.random.default_rng(key)


# --- key = value configuration files -------------------------------------

_SYSTEM_INT_FIELDS = (
    "n_subcarriers",
    "n_groups",
    "alphabet_size",
    "constellation_order",
    "max_delay",
    "max_doppler",
    "cpp_length",
)


def read_config_file(path: str) -> dict[str, dict[str, str]]:
    """Parse a sectioned key = value file into {section: {key: value}}.

    A relative ``[alphabet] file`` path is resolved against the directory of
    the config file, not the working directory.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    sections = {s: dict(parser.items(s)) for s in parser.sections()}
    alphabet = sections.get("alphabet", {})
    if "file" in alphabet:
        alphabet["file"] = os.path.join(os.path.dirname(path), alphabet["file"])
    return sections


def system_config_from_items(items: dict[str, str]) -> SystemConfig:
    """Build a SystemConfig from a [system] section; keys map 1:1 onto fields."""
    kwargs: dict[str, object] = {}
    for key, raw in items.items():
        if key in _SYSTEM_INT_FIELDS:
            kwargs[key] = int(raw)
        elif key == "constellation_kind":
            kwargs[key] = raw.strip()
        elif key == "post_chirp":
            kwargs[key] = float(raw)
        else:
            raise ValueError(f"unknown [system] key {key!r}")
    return SystemConfig(**kwargs)
