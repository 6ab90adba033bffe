r"""Run configuration: a JSON document with sections, schema-checked.

Numbers may be written as JSON numbers or as exact fraction strings
"p/q"; the exact backend keeps them rational end to end.  Unknown keys
are rejected so that typos fail loudly before any computation starts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .fuchsian import SurfaceError, fuchsian_invariants, genus2_surface
from .pants import HitchinParams, PantsInvariants, chain_decomposition, internal_labels, xi_forward


class ConfigError(ValueError):
    """Malformed configuration or parameter file."""


_TOP_KEYS = {
    "n",
    "genus",
    "backend",
    "surface",
    "decomposition",
    "parameters",
    "scan",
    "tracer",
    "output",
}
_KINDS = ("tau", "tau_prime", "sigma")
_SECTION_KEYS = {
    "surface": {"a1", "b1", "twist"},
    "decomposition": {"standard_genus"},
    "parameters": {"boundary", "internal", "gluing", "invariants", "fuchsian"},
    "scan": {"direction", "steps"},
    "tracer": {"depth_cap", "word"},
    "output": {"path"},
}


def parse_scalar(value, exact=False):
    """A config number: JSON numeric, or a string like "3/7" or "0.25".

    Python's JSON reader accepts NaN and Infinity, which are no numbers a
    coordinate can take, so they are rejected here.
    """
    if isinstance(value, bool):
        raise ConfigError(f"boolean is not a number: {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"number must be finite, got {value!r}")
    if isinstance(value, (int, float)):
        return Fraction(value) if exact else float(value)
    if isinstance(value, str):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse number {value!r}") from exc
        return frac if exact else float(frac)
    raise ConfigError(f"cannot parse number {value!r}")


def _integer(value, what):
    """A config integer: a JSON integer, never a float, string or boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _string(value, what):
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def format_scalar(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return float(value)


def _label_str(kind, idx):
    """``"kind:x,y,z"``, or the index ``"x,y,z"`` alone when ``kind`` is None."""
    text = f"{idx[0]},{idx[1]},{idx[2]}"
    return f"{kind}:{text}" if kind else text


def _parse_label(text, kind=None):
    """The inverse of :func:`_label_str`: ``(kind, (x, y, z))``.  Given
    ``kind``, ``text`` is an invariant index ``"x,y,z"`` of that kind."""
    try:
        head, idx = (kind, text) if kind else text.split(":")
        parts = tuple(int(p) for p in idx.split(","))
        if head not in _KINDS or len(parts) != 3:
            raise ValueError
    except ValueError as exc:
        what = "invariant index" if kind else "coordinate label"
        raise ConfigError(f"bad {what} {text!r}") from exc
    return head, parts


def _curve_id(key, section):
    """A curve id written as a JSON object key in [parameters].<section>."""
    try:
        return int(key)
    except ValueError as exc:
        raise ConfigError(f"[parameters].{section} key {key!r} is not a curve id") from exc


def _json(value, kind, what):
    """``value`` if it is a JSON object (``kind`` dict) or list (``kind`` list)."""
    if not isinstance(value, kind):
        article = "an object" if kind is dict else "a list"
        raise ConfigError(f"{what} must be {article}, got {value!r}")
    return value


def _matrix2(value, what):
    """A 2 x 2 matrix of exact config numbers, written as a list of rows."""
    rows = [_json(row, list, f"{what}[{i}]") for i, row in enumerate(_json(value, list, what))]
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise ConfigError(f"{what} must be a 2 x 2 matrix, got {value!r}")
    return [[parse_scalar(x, exact=True) for x in row] for row in rows]


def _check_keys(section, data, allowed):
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")


@dataclass
class RunConfig:
    n: int = 3
    genus: int = 2
    backend: str = "float64"
    depth_cap: int = 64
    word: str = ""
    steps: int = 10
    direction: dict = field(default_factory=dict)
    output_path: str = ""
    raw: dict = field(default_factory=dict)

    @property
    def exact(self):
        return self.backend == "exact"

    def config_hash(self):
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- constructors ---------------------------------------------------------

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        _check_keys("root", data, _TOP_KEYS)
        for section, keys in _SECTION_KEYS.items():
            if section in data:
                if not isinstance(data[section], dict):
                    raise ConfigError(f"[{section}] must be an object")
                _check_keys(section, data[section], keys)
        cfg = cls(raw=data)
        cfg.n = _integer(data.get("n", 3), "n")
        if not 2 <= cfg.n <= 8:
            raise ConfigError(f"n must be in 2..8, got {cfg.n}")
        cfg.genus = _integer(data.get("genus", 2), "genus")
        if cfg.genus < 2:
            raise ConfigError("genus must be at least 2")
        decomp_genus = data.get("decomposition", {}).get("standard_genus", cfg.genus)
        if _integer(decomp_genus, "[decomposition].standard_genus") != cfg.genus:
            raise ConfigError("decomposition genus disagrees with [genus]")
        cfg.backend = data.get("backend", "float64")
        if cfg.backend not in ("exact", "float64"):
            raise ConfigError(f"unknown backend {cfg.backend!r}")
        tracer = data.get("tracer", {})
        cfg.depth_cap = _integer(tracer.get("depth_cap", 64), "[tracer].depth_cap")
        if cfg.depth_cap < 1:
            raise ConfigError(f"[tracer].depth_cap must be at least 1, got {cfg.depth_cap}")
        cfg.word = _string(tracer.get("word", ""), "[tracer].word")
        scan = data.get("scan", {})
        cfg.steps = _integer(scan.get("steps", 10), "[scan].steps")
        if cfg.steps < 0:
            raise ConfigError(f"[scan].steps must be non-negative, got {cfg.steps}")
        cfg.direction = {
            _parse_label(k): parse_scalar(v, exact=False)
            for k, v in _json(scan.get("direction", {}), dict, "[scan].direction").items()
        }
        labels = set(internal_labels(cfg.n))
        for label in cfg.direction:
            if label not in labels:
                raise ConfigError(
                    f"[scan].direction label {_label_str(*label)!r} is not an "
                    f"internal coordinate at n={cfg.n}"
                )
        fuchsian = data.get("parameters", {}).get("fuchsian", False)
        if not isinstance(fuchsian, bool):
            raise ConfigError(f"[parameters].fuchsian must be true or false, got {fuchsian!r}")
        cfg.output_path = _string(data.get("output", {}).get("path", ""), "[output].path")
        return cfg

    # -- derived objects ------------------------------------------------------

    def decomposition(self):
        return chain_decomposition(self.genus)

    def surface(self):
        spec = self.raw.get("surface", {})
        kwargs = {}
        for name in ("a1", "b1"):
            if name in spec:
                kwargs[name] = _matrix2(spec[name], f"[surface].{name}")
        if "twist" in spec:
            kwargs["twist"] = parse_scalar(spec["twist"], exact=True)
        if self.genus != 2:
            raise ConfigError("the built-in Fuchsian surface has genus 2")
        try:
            return genus2_surface(**kwargs)
        except SurfaceError as exc:
            raise ConfigError(f"bad [surface]: {exc}") from exc

    @property
    def is_fuchsian(self):
        """The run's point is the surface's Fuchsian point: ``fuchsian: true``,
        or no point given."""
        params = self.raw.get("parameters", {})
        return params.get("fuchsian", False) or not {"boundary", "invariants"} & params.keys()

    def fuchsian_point(self, n=None):
        """The configured surface's Fuchsian point as invariants in dimension
        ``n`` (the run's by default)."""
        return fuchsian_invariants(self.surface(), n or self.n)

    def invariants(self):
        """PantsInvariants list from [parameters].invariants or the surface."""
        params = self.raw.get("parameters", {})
        if params.get("fuchsian"):
            return self.fuchsian_point()
        blocks = params.get("invariants")
        if blocks is None:
            raise ConfigError("[parameters].invariants is missing")
        num_pants = self.decomposition().num_pants
        if len(_json(blocks, list, "[parameters].invariants")) != num_pants:
            raise ConfigError(f"expected {num_pants} invariant blocks, got {len(blocks)}")
        out = []
        for j, block in enumerate(blocks):
            where = f"[parameters].invariants[{j}]"
            _check_keys(f"invariants[{j}]", _json(block, dict, where), set(_KINDS))
            try:
                values = {
                    kind: {
                        _parse_label(k, kind)[1]: parse_scalar(v, self.exact)
                        for k, v in _json(block[kind], dict, f"{where}.{kind}").items()
                    }
                    for kind in _KINDS
                }
            except KeyError as exc:
                raise ConfigError(f"invariant block {j} missing {exc}") from exc
            out.append(PantsInvariants(n=self.n, **values))
        return out

    def gluing(self):
        params = self.raw.get("parameters", {})
        raw = params.get("gluing")
        if raw is None:
            zero = parse_scalar(0, self.exact)
            return {c: (zero,) * (self.n - 1) for c in range(self.decomposition().num_curves)}
        out = {}
        for key, vals in _json(raw, dict, "[parameters].gluing").items():
            vals = _json(vals, list, f"[parameters].gluing[{key!r}]")
            out[_curve_id(key, "gluing")] = tuple(parse_scalar(v, self.exact) for v in vals)
        return out

    def hitchin_params(self):
        params = self.raw.get("parameters", {})
        if self.is_fuchsian or "boundary" not in params:
            invs = self.fuchsian_point() if self.is_fuchsian else self.invariants()
            return xi_forward(self.decomposition(), invs, self.gluing())
        boundary = {
            _curve_id(k, "boundary"): tuple(
                parse_scalar(v, self.exact)
                for v in _json(vals, list, f"[parameters].boundary[{k!r}]")
            )
            for k, vals in _json(params["boundary"], dict, "[parameters].boundary").items()
        }
        internal_raw = params.get("internal")
        if internal_raw is None:
            raise ConfigError("[parameters].internal is missing")
        internal = []
        for j, block in enumerate(_json(internal_raw, list, "[parameters].internal")):
            block = _json(block, dict, f"[parameters].internal[{j}]")
            internal.append(
                {_parse_label(k): parse_scalar(v, self.exact) for k, v in block.items()}
            )
        return HitchinParams(
            n=self.n,
            decomp=self.decomposition(),
            boundary=boundary,
            internal=tuple(internal),
            gluing=self.gluing(),
        )


# -- serialization helpers -----------------------------------------------------


def invariants_to_dict(invariants):
    return [
        {
            kind: {
                _label_str(None, k): format_scalar(v)
                for k, v in sorted(getattr(inv, kind).items())
            }
            for kind in _KINDS
        }
        for inv in invariants
    ]


def params_to_dict(params):
    return {
        "boundary": {
            str(c): [format_scalar(v) for v in gaps]
            for c, gaps in sorted(params.boundary.items())
        },
        "internal": [
            {_label_str(*k): format_scalar(v) for k, v in sorted(block.items())}
            for block in params.internal
        ],
        "gluing": {
            str(c): [format_scalar(v) for v in vals]
            for c, vals in sorted(params.gluing.items())
        },
    }
