"""Tests for the exception hierarchy."""

import inspect

import pytest

from repro import errors


def all_error_classes():
    return [
        obj for _, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, Exception)
    ]


class TestHierarchy:
    def test_single_root(self):
        """Every library error derives from MediaModelError."""
        for cls in all_error_classes():
            assert issubclass(cls, errors.MediaModelError), cls

    def test_specific_parentage(self):
        assert issubclass(errors.BlobBoundsError, errors.BlobError)
        assert issubclass(errors.StreamConstraintError, errors.StreamError)
        assert issubclass(errors.ContainerFormatError, errors.StorageError)
        assert issubclass(errors.ResourceError, errors.EngineError)
        assert issubclass(errors.CatalogError, errors.QueryError)
        assert issubclass(errors.TransientBlobError, errors.BlobError)
        assert issubclass(errors.BlobCorruptionError, errors.BlobError)
        assert issubclass(errors.PlaybackAbortError, errors.EngineError)

    def test_authorization_error_in_query_family(self):
        from repro.query.authorization import AuthorizationError

        assert issubclass(AuthorizationError, errors.QueryError)
        assert issubclass(AuthorizationError, errors.MediaModelError)

    def test_catchable_as_root(self):
        with pytest.raises(errors.MediaModelError):
            raise errors.CodecError("boom")

    def test_count_is_stable(self):
        """The hierarchy is part of the public API; additions are fine
        but should be deliberate (update this count when extending)."""
        assert len(all_error_classes()) == 34
