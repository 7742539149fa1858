"""Exception types shared across the package.

Two families matter for the CLI exit-code contract: DataError (bad input
files, bad configuration, violated data invariants) maps to exit code 2,
ProviderError (a remote generator or embedding endpoint failed) maps to
exit code 3.
"""

from __future__ import annotations


class DataError(Exception):
    """Invalid input data, configuration, or a violated data contract."""


class ProviderError(Exception):
    """A generation or embedding provider failed to produce a usable result."""


class MalformedRecord(DataError):
    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason


class MissingField(DataError):
    def __init__(self, name: str, path: str | None = None, line_no: int | None = None):
        where = f"{path}:{line_no}: " if path is not None else ""
        super().__init__(f"{where}missing field {name!r}")
        self.name = name


class DuplicateId(DataError):
    """A repeated passage id; a collection file also names where it repeats."""

    def __init__(self, passage_id: str, path: str | None = None, line_no: int | None = None,
                 first_line: int | None = None):
        where = f"{path}:{line_no}: " if path is not None else ""
        first = f" (first on line {first_line})" if first_line is not None else ""
        super().__init__(f"{where}duplicate passage id {passage_id!r}{first}")
        self.passage_id = passage_id


class EmptyCollection(DataError):
    pass


class EmptyInput(DataError):
    pass


class GoldMissingFromCollection(DataError):
    def __init__(self, ids):
        self.ids = sorted(ids)
        super().__init__(f"gold passage ids missing from collection: {self.ids}")


class MalformedTrajectory(DataError):
    pass


class MissingScriptEntry(DataError):
    def __init__(self, kind: str, fingerprint: str, attempt: int):
        super().__init__(
            f"no scripted response for kind={kind!r} attempt={attempt} "
            f"fingerprint={fingerprint!r}"
        )
        self.kind = kind
        self.fingerprint = fingerprint
        self.attempt = attempt


class ProviderMismatch(DataError):
    pass


class UnknownKey(DataError):
    def __init__(self, key: str):
        super().__init__(f"unknown config key {key!r}")
        self.key = key


class TypeMismatch(DataError):
    def __init__(self, key: str, reason: str):
        super().__init__(f"config key {key!r}: {reason}")
        self.key = key
        self.reason = reason


class MissingRequired(DataError):
    def __init__(self, name: str):
        super().__init__(f"missing required setting {name!r}")
        self.name = name


class ProviderUnavailable(ProviderError):
    pass


class DimensionMismatch(ProviderError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"provider returned vector of length {got}, expected {expected}")
        self.expected = expected
        self.got = got

