"""Exception hierarchy shared across the engine."""


class EngineError(Exception):
    """Base class for all engine errors."""


class SchemaError(EngineError):
    """Schema violation: bad attribute names, length mismatches, type issues."""


class DomainError(EngineError):
    """Coordinates or boxes outside the legal domain."""


class ConfigError(EngineError):
    """Invalid configuration value."""


class FormatError(EngineError):
    """Corrupt or truncated chunk file."""


class ShapeError(EngineError):
    """Mismatched array shapes/boxes between operands."""


class CatalogError(EngineError):
    """Unknown array or chunk referenced through the catalog."""


class PlanError(EngineError):
    """Plan script syntax or validation failure."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DependencyError(EngineError):
    """A benchmark phase was requested before its prerequisite data exists."""
