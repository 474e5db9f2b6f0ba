"""The three failures a command reports, one class per exit code; any other
exception is a bug. Code raises these three themselves, never a subclass, and
puts what a caller needs to know, such as an achievable range, in the message."""


class ConfigError(ValueError):
    """A flag, setting or config file a command cannot run with (exit 2)."""


class DataError(Exception):
    """An input file or corpus a command cannot use (exit 3)."""


class NumericError(Exception):
    """A non-finite or diverging computation (exit 4)."""


def read_input(path, error: type[Exception] = DataError) -> bytes:
    """The bytes of the file at ``path``; a missing or unreadable path raises ``error``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None
