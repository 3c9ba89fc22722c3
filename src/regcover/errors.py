"""Exception types shared across the package."""


class GraphError(ValueError):
    """Malformed or unsupported graph input."""


class ParseError(GraphError):
    """Text format violation; carries the 1-based line number."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", col {column}"
            where += ": "
        super().__init__(where + message)


class SizeLimitError(RuntimeError):
    """Input exceeds a configured desk-scale limit."""


class InternalError(RuntimeError):
    """A result failed its own correctness check: a bug, not bad input."""


def size_limit(phase, seen, limit, g, limit_name="max_order"):
    """The error for a search that `seen` has taken past `limit`."""
    return SizeLimitError(
        f"{phase}: {seen}, over {limit_name}={limit} "
        f"(|V|={g.n_vertices}, {g.n_darts} darts)")
