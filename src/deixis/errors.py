"""Shared exception hierarchy."""


class DeixisError(Exception):
    """Base class for all errors raised by this package."""


class UnboundedSection(DeixisError):
    """The cone does not cut the plane in a bounded (elliptical) section."""


class OffPlane(DeixisError):
    """A 3D point expected to lie on a plane does not."""


class UnknownSupport(DeixisError):
    """A placement position overlaps multiple supports ambiguously."""


class NoStablePlacement(DeixisError):
    """The stable region is empty."""


class EmptyScene(DeixisError):
    """A referential query requires at least one object."""


class UnknownObject(DeixisError):
    """No object in the scene has the requested id."""


class TypeMismatch(DeixisError):
    """A shown outcome does not match the resolution kind."""


class InvalidCount(DeixisError):
    """A sample or trial count violates its divisibility contract."""


class DegenerateTable(DeixisError):
    """A contingency table has a zero marginal or wrong shape for a test."""


class InvalidCounts(DeixisError):
    """Success/total counts for a proportion test are inconsistent."""


class SchemaError(DeixisError):
    """A corpus file has an unknown schema or a malformed record."""


class EmptyInput(DeixisError):
    """An aggregation or comparison received no records."""
