"""Exception and warning types shared across the package."""


class Lane3DKitError(Exception):
    """Base class for all errors raised by lane3d-kit."""


class MissingLidarExtrinsics(Lane3DKitError):
    """An operation needs the ground-to-LiDAR transform but the rig has none."""


class InvalidRig(Lane3DKitError):
    """Camera rig violates its structural invariants."""


class ShapeMismatch(Lane3DKitError):
    """Array dimensions do not match what an operation expects."""

    def __init__(self, what, expected, actual):
        super().__init__(f"{what}: expected {expected}, got {actual}")
        self.what = what
        self.expected = expected
        self.actual = actual


class LengthMismatch(Lane3DKitError):
    """Two per-point sequences that must align have different lengths."""


class AllInvisible(Lane3DKitError):
    """A ground-truth lane has no visible points, so distances are undefined."""


class DegenerateSegment(Lane3DKitError):
    """Two consecutive y-samples coincide; lane direction is undefined there."""


class FileFormatError(Lane3DKitError):
    """A lane/config/tensor file is malformed.

    ``location`` is a byte offset for binary files and a JSON-pointer-style
    path for text files.
    """

    def __init__(self, path, location, message):
        super().__init__(f"{path}: at {location}: {message}")
        self.path = str(path)
        self.location = location
        self.message = message


class PipelineStageError(Lane3DKitError):
    """Wraps an error raised inside one refinement stage with its index."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


class ProbabilityUnderflow(UserWarning):
    """An assigned-class probability fell below 1e-30 and was clamped."""
