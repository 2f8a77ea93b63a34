"""Exception types shared across the package.

ValidationError covers malformed inputs and contract violations; the CLI
maps it to exit code 2.  PrecisionError covers numeric failures (exhausted
working precision, non-convergence, snapping residuals above tolerance);
the CLI maps it and its subclasses to exit code 3.  The helpers at the
end turn malformed text into ValidationError for every file reader.
"""

# The largest vertex count a graph or spoly file header may declare; a
# one-edge spoly file of this size reconstructs in under a second.  The
# readers refuse a larger n before any work that grows with n.
MAX_VERTICES = 2_000_000

# The largest bit size of a level weight q^(|1-r| a) that simulation may
# build.  spectra.simulate_spectrum reads it off the window, q and the
# largest label, and refuses a larger one before building any weight.  At
# the cap, P3 and K3 each take about 7 s of CPU to simulate at q = 101 over
# [0, 1], and 16 and 20 s at q = 3 over [0, 2] (one core of a 2 vCPU host,
# Python 3.11); the cost grows about fourfold per doubling of the weights,
# and further with the vertices that have edges.  The game solver's
# powers-of-two labels stay below it up to 17 edges for n <= 13 (7
# vertices and 17 edges is a 58 s game) and 16 edges for larger n.
MAX_WEIGHT_BITS = 1 << 19


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class PrecisionError(ArithmeticError):
    """A numeric stage could not deliver the requested accuracy."""


class AmbiguousClusteringError(PrecisionError):
    """Spectrum values could not be attributed to levels; retry with a larger prime."""


class RealizationError(ValidationError):
    """No graph realizes the given forest family."""


def parse_ints(tokens, where):
    """Tokens as ints; a non-integer token is a ValidationError."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ValidationError(f"non-integer token in {where!r}") from None


def parse_fields(tokens, where):
    """'key=value' tokens as a dict; a token without '=' is a ValidationError."""
    fields = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep:
            raise ValidationError(f"field {tok!r} in {where!r} lacks '='")
        fields[key] = value
    return fields


def check_vertex_count(n, where):
    """A header's vertex count n above MAX_VERTICES is a ValidationError."""
    if n > MAX_VERTICES:
        raise ValidationError(f"{n} vertices in {where!r} exceed the cap of "
                              f"{MAX_VERTICES}")
