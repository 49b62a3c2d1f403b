"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical failures with 3, output problems with 4.
"""


class InvalidArgumentError(ValueError):
    """An operation was called with arguments outside its contract."""


class InsufficientDataError(RuntimeError):
    """A signal does not contain enough structure for the requested extraction."""


class NumericFailureError(RuntimeError):
    """A numerical routine failed to converge or produced unusable output."""


class ConfigurationError(ValueError):
    """A config file or flag set could not be turned into a valid experiment."""

    def __init__(self, message, key=None, line=None):
        parts = [message]
        if key is not None:
            parts.append(f"(key: {key})")
        if line is not None:
            parts.append(f"(line {line})")
        super().__init__(" ".join(parts))
        self.key = key
        self.line = line


class OutputError(OSError):
    """Writing a result file failed."""

    def __init__(self, message, path=None):
        if path is not None:
            message = f"{message}: {path}"
        super().__init__(message)
        self.path = path
