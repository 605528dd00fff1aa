"""Exception hierarchy, and the checked file reads and writes, shared across the package."""

import contextlib
import os


class DemolError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DemolError):
    """Malformed molecule input (XYZ or JSON)."""


class UnknownElementError(DemolError):
    """Element symbol not present in the active covalent-radii table."""


class GeometryError(DemolError):
    """Degenerate geometry (zero-length bond, coincident atoms, ...)."""


class ShapeError(DemolError):
    """Tensor operation received incompatible shapes."""


class NonFiniteError(DemolError):
    """A tensor operation produced NaN or Inf."""


class MissingTargetError(DemolError):
    """A supervised loss was requested for a molecule without a target."""


class CheckpointError(DemolError):
    """Checkpoint file is corrupt, truncated, or version-incompatible."""


class TrainingError(DemolError):
    """Optimization aborted (non-finite loss or gradients)."""


class FileAccessError(DemolError):
    """A file could not be opened, decoded as UTF-8 text, or written."""


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of ``path``; ``what`` names the file in the error message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FileAccessError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise FileAccessError(
            f"{what} {path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


class SizeLimitError(DemolError):
    """An input exceeds an explicit size limit of a dense code path."""


def temp_path(path: str) -> str:
    """The temp file ``write_file`` fills before renaming it over ``path``."""
    return f"{path}.{os.getpid()}.tmp"


def write_file(path: str, data: bytes, what: str = "") -> None:
    """Write a temp file next to ``path``, fsync it, then rename it over ``path``.

    A failed write raises ``FileAccessError`` and leaves any old file intact and
    no temp file behind; ``what`` names the file in the error message. A symlink
    (``/dev/stdout`` is one), device or pipe is written in place: renaming over it
    would replace the link or the device node, not what it points to.
    """
    tmp = temp_path(path)
    try:
        if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
            with open(path, "wb") as fh:
                fh.write(data)
            return
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        subject = f"{what} {path}" if what else path
        raise FileAccessError(f"cannot write {subject}: {exc.strerror or exc}") from None
