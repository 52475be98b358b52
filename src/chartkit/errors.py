"""Exception types shared across the package."""


class ChartKitError(Exception):
    """Base class for every package-specific error."""


class RaggedInput(ChartKitError):
    """Input rows do not all have the same number of cells."""


class EmptyTable(ChartKitError):
    """No data rows survived parsing or filtering."""


class NoNumericColumn(ChartKitError):
    pass


class NoCategoricalColumn(ChartKitError):
    pass


class CanvasTooSmall(ChartKitError):
    """The canvas leaves less than the minimum usable plot area."""


class MalformedSvg(ChartKitError):
    pass


class MalformedJsonl(ChartKitError, ValueError):
    """A JSONL line that ends in a newline but does not parse.

    Also a ``ValueError``, as the ``json.JSONDecodeError`` it replaces was.
    """


class MalformedTable(ChartKitError, ValueError):
    """Cells that do not form a ``DataTable``: a flattened table that does
    not parse, a chart-ready piece whose series would repeat a column name,
    or a chart sidecar that does not record a chart.

    Also a ``ValueError``, as the error ``DataTable`` raised in its place was.
    """


class NoMarksFound(ChartKitError):
    """No element in the document matched a mark selector."""


class InsufficientTicks(ChartKitError):
    """Fewer than two axis ticks carry numeric labels."""


class NonLinearAxis(ChartKitError):
    """Tick labels cannot be explained by a linear pixel-to-value map."""


class ScaleRequired(ChartKitError):
    """Marks carry no value labels and no axis scale is available."""


class UnsupportedChartType(ChartKitError):
    pass


class InvalidCostMatrix(ChartKitError, ValueError):
    """A cost matrix ``hungarian`` cannot solve: not square, or a cost that
    is not a finite number in its way.

    Also a ``ValueError``, as the errors it replaces were.
    """


class BackendTimeout(ChartKitError):
    pass


class BackendUnreachable(ChartKitError):
    pass


class RateLimited(ChartKitError):
    pass


class ParseFailure(ChartKitError):
    pass


class LengthMismatch(ChartKitError):
    pass


class InvalidConfig(ChartKitError):
    pass
