"""Plain-text experiment configs: [section] headers and key = value lines.

Errors carry the offending line number (or the missing field's name and
section) so configs can be fixed without reading the parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ConfigError(ValueError):
    pass


_REQUIRED = object()


def _parse_bool(text: str) -> bool:
    val = text.lower()
    if val in ("true", "yes", "1", "on"):
        return True
    if val in ("false", "no", "0", "off"):
        return False
    raise ValueError(text)


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


@dataclass
class ExperimentConfig:
    path: str
    sections: dict[str, dict[str, tuple[str, int]]] = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str, path: str = "<string>") -> "ExperimentConfig":
        cfg = cls(path=path)
        section = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                if not line.endswith("]") or len(line) < 3:
                    raise ConfigError(f"{path}:{lineno}: malformed section header {raw.strip()!r}")
                section = line[1:-1].strip()
                cfg.sections.setdefault(section, {})
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            if section is None:
                raise ConfigError(f"{path}:{lineno}: key before any [section] header")
            key, value = (s.strip() for s in line.split("=", 1))
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in cfg.sections[section]:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} in [{section}]")
            cfg.sections[section][key] = (value, lineno)
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read(), path=str(path))

    def _get(self, section: str, key: str, default, parse, noun: str):
        """`parse` of the field's text, or `default` when the field is absent;
        a ValueError from `parse` becomes a ConfigError saying the field must
        be `noun`."""
        sec = self.sections.get(section)
        if sec is None or key not in sec:
            if default is _REQUIRED:
                raise ConfigError(
                    f"{self.path}: missing required field {key!r} in [{section}]"
                )
            return default
        text, lineno = sec[key]
        try:
            return parse(text)
        except ValueError:
            raise ConfigError(
                f"{self.path}:{lineno}: field {key!r} in [{section}] must be {noun}, got {text!r}"
            )

    def get_str(self, section: str, key: str, default=_REQUIRED) -> str | None:
        return self._get(section, key, default, str, "a string")

    def get_int(self, section: str, key: str, default=_REQUIRED) -> int | None:
        return self._get(section, key, default, int, "an integer")

    def get_float(self, section: str, key: str, default=_REQUIRED) -> float | None:
        return self._get(section, key, default, float, "a number")

    def get_bool(self, section: str, key: str, default=_REQUIRED) -> bool | None:
        return self._get(section, key, default, _parse_bool, "a boolean")

    def get_floats(self, section: str, key: str, default=_REQUIRED) -> list[float] | None:
        return self._get(section, key, default, _parse_floats, "a list of numbers")

    def invalid(self, section: str, key: str, must: str, got) -> ConfigError:
        """The one-line error for a field whose value is not `must`."""
        return ConfigError(f"{self.path}: field {key!r} in [{section}] must be {must}, got {got}")

    def positive(self, value, section: str, key: str):
        """`value`, a number or a list of numbers, once each one is positive."""
        if bad := [v for v in (value if isinstance(value, list) else [value]) if not v > 0]:
            raise self.invalid(section, key, "positive", bad[0])
        return value

    def at_least(self, value, least: float, section: str, key: str):
        """`value`, a number or a list of numbers, once none is below `least`."""
        if bad := [v for v in (value if isinstance(value, list) else [value]) if not v >= least]:
            raise self.invalid(section, key, f"at least {least}", bad[0])
        return value
