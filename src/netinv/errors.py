"""Exception types shared across the package."""


class NetworkError(ValueError):
    """A network violates a structural invariant."""


class NetworkFormatError(NetworkError):
    """Malformed network text; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class InteriorNotGrounded(NetworkError):
    """The interior block K(I,I) is singular, so the DtN map is undefined
    (the CLI's exit 3, not the 2 of other NetworkErrors): Network raises
    it when some interior component has no boundary vertex, dtn and
    harmonic_extension when conductivities spanning more than float
    precision leave the block of a grounded network numerically singular."""


class RankDeficient(RuntimeError):
    """The plan's rows fall short of full rank: a fault of the
    topology. RecoveryPlan.apply raises it with the plan's rank and
    unresolved edges before it reads any minor of the map.

    `rank` is the achieved rank; `columns` the unresolved edge ids.
    """

    def __init__(self, rank, columns):
        super().__init__(f"rank {rank}, unresolved columns {sorted(columns)}")
        self.rank = rank
        self.columns = tuple(sorted(columns))


class ExpansionMismatch(RuntimeError):
    """Disjoint-path expansion disagrees with the determinant;
    signals an enumeration or sign bug and is never swallowed."""


class TooManySystems(RuntimeError):
    """The path search ran out of budget: more than paths.MAX_SYSTEMS
    systems for one pair, or deeper than the recursion limit."""


class AllRowsDegenerate(RuntimeError):
    """A fault of the data, not the topology: the topology's rows reach
    full rank, but RecoveryPlan.system dropped rows for the map's minors
    (zero determinant, or a sign against the path system's) until the
    rest fell short of it, and the map is within the round trip's
    threshold of symmetric with zero row sums (else a ValueError says
    which rule it breaks, as for any fault of apply's solve or round
    trip). RecoveryPlan.apply alone raises it, and the message lists
    the reasons."""


class RoundTripFailure(RuntimeError):
    """Recovered conductivities do not reproduce the given DtN map."""

    def __init__(self, roundtrip_error, threshold):
        super().__init__(
            f"roundtrip error {roundtrip_error:.3e} exceeds {threshold:.3e}"
        )
        self.roundtrip_error = roundtrip_error
        self.threshold = threshold


class InconsistentDataWarning(UserWarning):
    """Least-squares residual too large for exact DtN data."""
