"""Sample ingestion, order statistics and threshold excesses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

__all__ = ["DataFormatError", "SortedSample", "ExcessSet", "load_sample", "excesses", "excess_matrix"]


class DataFormatError(ValueError):
    """Raised when input data cannot be parsed or violates positivity."""


@dataclass(frozen=True)
class SortedSample:
    """Ascending order statistics of a strictly positive sample.

    The constructor accepts observations in any order, sorts them and
    freezes the resulting array. At least two positive, finite values
    are required.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("sample must be one-dimensional")
        if arr.size < 2:
            raise ValueError("need at least 2 observations")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample contains non-finite values")
        if np.any(arr <= 0.0):
            raise ValueError("all observations must be positive")
        arr = np.sort(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def threshold(self, k: int) -> float:
        """The (k+1)-th largest value, over which the k largest are excesses; k must be in [1, n-1]."""
        if not 1 <= k <= self.n - 1:
            raise ValueError(f"k must be in [1, {self.n - 1}], got {k}")
        return float(self.values[self.n - k - 1])


@dataclass(frozen=True)
class ExcessSet:
    """The k relative excesses over the (k+1)-th largest observation.

    ``y`` holds the ratios of the k largest observations to the threshold,
    in descending order; every entry is >= 1. Ties with the threshold
    produce excesses exactly equal to 1.
    """

    y: np.ndarray
    k: int
    threshold: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.y, dtype=float)
        if arr.size != self.k or self.k < 1:
            raise ValueError("k must match the number of excesses and be >= 1")
        if self.threshold <= 0.0:
            raise ValueError("threshold must be positive")
        if (arr < 1.0).any():
            raise ValueError("excesses must be >= 1")
        if (arr[:-1] < arr[1:]).any():
            raise ValueError("excesses must be non-increasing")
        arr = np.array(arr, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "y", arr)


def excesses(s: SortedSample, k: int) -> ExcessSet:
    """Form the k relative excesses of ``s`` over its (k+1)-th largest value.

    Exact ratios are taken, so the result is invariant under rescaling of
    the raw data. This is ``excess_matrix`` on one sample.
    """
    threshold, y = excess_matrix(s.values[None], k)
    return ExcessSet(y=y[0], k=k, threshold=float(threshold[0]))


def excess_matrix(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The thresholds and relative excesses at k of samples of one size, by the array.

    ``values`` holds the ascending values of each sample as a row (lanes x
    n). Returns each row's (k+1)-th largest value and its k excesses over
    it in descending order (lanes x k, C-contiguous): row by row, what
    ``excesses`` returns, with the checks of ``SortedSample.threshold`` and
    ``ExcessSet`` made on the whole array.
    """
    n = values.shape[1]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    threshold = values[:, n - k - 1]
    if not (threshold > 0.0).all():
        raise ValueError("threshold must be positive")
    y = values[:, :n - k - 1:-1] / threshold[:, None]
    if (y < 1.0).any():
        raise ValueError("excesses must be >= 1")
    if (y[:, :-1] < y[:, 1:]).any():
        raise ValueError("excesses must be non-increasing")
    return threshold, y


def _open_text(source: str | Path | bytes | IO[str] | IO[bytes]) -> Iterable[str]:
    # the lines of UTF-8 text, less a byte-order mark (Excel, Notepad); other bytes are a DataFormatError
    try:
        if isinstance(source, (str, Path)):
            data = Path(source).read_bytes()
        else:
            data = source if isinstance(source, bytes) else source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"not UTF-8 text ({exc.reason} at offset {exc.start})") from None
    return data.removeprefix("\ufeff").splitlines()


def load_sample(
    source: str | Path | bytes | IO[str] | IO[bytes],
    column: int | None = None,
) -> SortedSample:
    """Read positive observations from CSV or plain text.

    One numeric value per record, or the value at ``column`` (0-based; a
    negative column is a ValueError) when records are comma-separated. A
    single leading header line is detected automatically: if the first
    non-blank line does not parse as a number it is skipped. A line that
    parses as inf or nan is data, not a header, and is rejected.

    Raises
    ------
    DataFormatError
        On unparsable records, non-finite or nonpositive values (all
        reported with their 1-based line number) or fewer than two usable
        values.
    """
    if column is not None and column < 0:
        raise ValueError(f"column must be >= 0, got {column}")
    values: list[float] = []
    first_data_line = True
    for lineno, raw in enumerate(_open_text(source), start=1):
        line = raw.strip()
        if not line:
            continue
        if column is not None:
            fields = line.split(",")
            if column >= len(fields):
                raise DataFormatError(f"missing column {column} at line {lineno}")
            field = fields[column].strip()
        else:
            field = line
        try:
            value = float(field)
        except ValueError:
            if first_data_line:
                first_data_line = False  # header line
                continue
            raise DataFormatError(f"cannot parse value at line {lineno}: {field!r}") from None
        first_data_line = False
        if not math.isfinite(value):
            raise DataFormatError(f"non-finite value at line {lineno}: {field!r}")
        if value <= 0.0:
            raise DataFormatError(f"nonpositive value at line {lineno}")
        values.append(value)
    if len(values) < 2:
        raise DataFormatError("need at least 2 positive values")
    return SortedSample(np.asarray(values))
