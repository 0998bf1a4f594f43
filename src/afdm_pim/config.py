"""Validated system configuration, constellation points, and seeded random streams."""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from typing import Callable, Mapping

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
        # the codebook's one pattern table: each of a group's subcarriers has its
        # own pre-chirp, or every subcarrier has the one pre-chirp
        if self.alphabet_size not in (1, n // g):
            raise ValueError(
                "pattern mapping requires alphabet_size == group_size (or 1), "
                f"got alphabet_size={self.alphabet_size}, group_size={n // g}"
            )
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


def _gray(k: int) -> int:
    return k ^ (k >> 1)


@lru_cache(maxsize=None)
def _constellation(kind: str, order: int) -> np.ndarray:
    """The (M,) points of M-PSK or square M-QAM at unit average energy (cached,
    read-only); points[label] is the point whose Gray label is label. kind and
    order come validated from a `SystemConfig`."""
    points = np.zeros(order, dtype=complex)
    if kind == "PSK":
        for k in range(order):
            points[_gray(k)] = np.exp(2j * np.pi * k / order)
    else:
        side = math.isqrt(order)
        half = side.bit_length() - 1
        scale = math.sqrt(2.0 * (order - 1) / 3.0)
        for i in range(side):
            for q in range(side):
                label = (_gray(i) << half) | _gray(q)
                points[label] = complex(2 * i - side + 1, 2 * q - side + 1) / scale
    energy = np.mean(np.abs(points) ** 2)
    if abs(energy - 1.0) > 1e-12:
        raise AssertionError(f"constellation energy {energy} != 1")
    points.flags.writeable = False  # shared by every caller of the cache
    return points


def constellation_for(cfg: SystemConfig) -> np.ndarray:
    """The config's Gray-labelled unit-energy constellation points (M,) (cached, read-only)."""
    return _constellation(cfg.constellation_kind, cfg.constellation_order)


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


def floats(raw: str) -> tuple[float, ...]:
    """A list of numbers separated by spaces or commas."""
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def boolean(raw: str) -> bool:
    """true/yes/on/1 or false/no/off/0, in any case."""
    word = raw.strip().lower()
    if word not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(word)
    return configparser.ConfigParser.BOOLEAN_STATES[word]


# every key of every section: key -> (field it sets, how its text is read)
SECTION_KEYS: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {
    "system": {
        "n_subcarriers": ("n_subcarriers", int),
        "n_groups": ("n_groups", int),
        "alphabet_size": ("alphabet_size", int),
        "constellation_order": ("constellation_order", int),
        "constellation_kind": ("constellation_kind", str.strip),
        "max_delay": ("max_delay", int),
        "max_doppler": ("max_doppler", int),
        "cpp_length": ("cpp_length", int),
        "post_chirp": ("post_chirp", float),
    },
    "alphabet": {"values": ("values", floats), "file": ("file", str)},
    "channel": {"paths": ("p_paths", int)},
    "simulation": {
        "name": ("name", str),
        "snr_db": ("snr_grid_db", floats),
        "snr_db_start": ("start", float),
        "snr_db_stop": ("stop", float),
        "snr_db_step": ("step", float),
        "min_bits": ("min_bits", int),
        "min_errors": ("min_errors", int),
        "seed": ("seed", int),
        "include_theory": ("include_theory", boolean),
    },
    "pso": {
        "particles": ("n_particles", int),
        "iterations": ("max_iterations", int),
        "inertia": ("inertia", float),
        "global_coeff": ("global_coeff", float),
        "local_coeff": ("local_coeff", float),
        "v_max": ("velocity_max", float),
    },
}


def read_items(
    items: Mapping[str, str],
    keys: Mapping[str, tuple[str, Callable[[str], object]]],
    label: str,
) -> dict[str, object]:
    """{field: value} of key = text items, each read as `keys` says.

    An unknown key or an unreadable value raises ValueError naming the key.
    """
    fields = {}
    for key, raw in items.items():
        if key not in keys:
            raise ValueError(f"unknown {label} {key!r}; choices: {sorted(keys)}")
        field, cast = keys[key]
        try:
            fields[field] = cast(raw)
        except ValueError:
            raise ValueError(
                f"{label} {key}: cannot read {raw.strip()!r} as {cast.__name__}"
            ) from None
    return fields


def read_section(items: Mapping[str, str], name: str) -> dict[str, object]:
    """Read the items of config-file section `name` through its `SECTION_KEYS` table."""
    return read_items(items, SECTION_KEYS[name], f"[{name}] key")


def read_config_file(path: str) -> dict[str, dict[str, str]]:
    """Parse a sectioned key = value file into {section: {key: value}}.

    A malformed file or a section outside `SECTION_KEYS` raises ValueError. A
    relative ``[alphabet] file`` path is resolved against the directory of
    the config file, not the working directory.
    """
    # no header names the empty section, so [DEFAULT] is an ordinary (unknown) section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        sections = {s: dict(parser.items(s)) for s in parser.sections()}
    except configparser.MissingSectionHeaderError as exc:
        raise ValueError(
            f"{path}, line {exc.lineno}: {exc.line.strip()!r} comes before any [section]"
        ) from None
    except configparser.InterpolationError as exc:
        raise ValueError(f"[{exc.section}] key {exc.option}: {exc.message}") from None
    except configparser.Error as exc:
        raise ValueError(" ".join(str(exc).split())) from None
    for name in sections:
        if name not in SECTION_KEYS:
            raise ValueError(f"unknown section [{name}]; choices: {sorted(SECTION_KEYS)}")
    alphabet = sections.get("alphabet", {})
    if "file" in alphabet:
        alphabet["file"] = os.path.join(os.path.dirname(path), alphabet["file"])
    return sections


def system_config_from_items(items: Mapping[str, str]) -> SystemConfig:
    """Build a SystemConfig from a [system] section; keys map 1:1 onto fields, and
    one ValueError names every field without a default that the section lacks."""
    values = read_section(items, "system")
    required = [f.name for f in fields(SystemConfig) if f.default is MISSING]
    missing = [name for name in required if name not in values]
    if missing:
        raise ValueError(f"[system] section is missing {', '.join(missing)}")
    return SystemConfig(**values)
