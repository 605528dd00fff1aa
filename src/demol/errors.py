"""Exception hierarchy shared across the package."""


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
