"""Exception types shared across the package, each with the CLI exit code it
maps to: 1 theorem hypotheses fail, 2 input error, 3 resource limit, 4 ghost
vertex, 5 anything else (a bug)."""


class MachhError(Exception):
    """Base class for all machh errors."""

    exit_code = 5


class ParseError(MachhError):
    """Malformed input document or command-line argument."""

    exit_code = 2


class VertexOutOfRange(MachhError):
    """A vertex label falls outside 1..m."""

    exit_code = 2


class GhostVertex(MachhError):
    """A ground-set vertex appears in no facet."""

    exit_code = 4

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} appears in no facet")


class NotAVertex(MachhError):
    """A wedge point is not a vertex of its complex."""

    exit_code = 2


class FaceAlreadyPresent(MachhError):
    """Attempt to glue a simplex that is already a face."""

    exit_code = 2


class BoundaryMissing(MachhError):
    """A proper face of the glued simplex is absent."""

    exit_code = 2


class BadSigma(MachhError):
    """Invalid sigma for the gluing theorem checker."""

    exit_code = 2


class NotApplicable(MachhError):
    """Theorem hypotheses do not hold for the given input."""

    exit_code = 1


class ResourceLimit(MachhError):
    """Input exceeds the configured size cap."""

    exit_code = 3


class InternalInconsistency(MachhError):
    """A mathematically impossible state; indicates a bug."""
