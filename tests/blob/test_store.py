"""Tests for the BLOB catalog."""

import pytest

from repro.blob.pages import FilePager, MemoryPager, PageStore
from repro.blob.store import BlobStore
from repro.errors import BlobError


class TestBlobStore:
    def test_create_get(self):
        store = BlobStore()
        blob = store.create("movie")
        blob.append(b"data")
        assert store.get("movie").read_all() == b"data"
        assert "movie" in store

    def test_duplicate_rejected(self):
        store = BlobStore()
        store.create("x")
        with pytest.raises(BlobError, match="already exists"):
            store.create("x")

    def test_unknown_lists_names(self):
        store = BlobStore()
        store.create("a")
        with pytest.raises(BlobError, match="a"):
            store.get("b")

    def test_delete_frees_pages(self):
        store = BlobStore(PageStore(MemoryPager(page_size=16)))
        blob = store.create("x")
        blob.append(b"z" * 64)
        store.delete("x")
        assert "x" not in store
        assert store.pages.free_pages == 4

    def test_names_sorted(self):
        store = BlobStore()
        store.create("b")
        store.create("a")
        assert store.names() == ["a", "b"]

    def test_stats(self):
        store = BlobStore(PageStore(MemoryPager(page_size=16)))
        store.create("a").append(b"x" * 20)
        stats = store.stats()
        assert stats["blobs"] == 1
        assert stats["total_bytes"] == 20
        assert stats["pages_allocated"] == 2
        assert stats["page_size"] == 16

    def test_file_backed(self, tmp_path):
        path = tmp_path / "store.dat"
        with BlobStore.file_backed(path) as store:
            store.create("x").append(b"persisted")
            assert store.get("x").read_all() == b"persisted"
        assert path.exists()


class TestLifecycle:
    def test_close_releases_file_handle(self, tmp_path):
        path = tmp_path / "store.dat"
        store = BlobStore.file_backed(path)
        store.create("x").append(b"payload")
        store.close()
        assert store.pages.pager._file.closed
        # Close is idempotent.
        store.close()

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "store.dat"
        with BlobStore.file_backed(path, page_size=16) as store:
            store.create("x").append(b"y" * 40)
        assert store.pages.pager._file.closed
        # Reopening sees the persisted pages.
        with BlobStore.file_backed(path, page_size=16) as reopened:
            assert reopened.pages.allocated_pages == 3

    def test_flush_persists_without_closing(self, tmp_path):
        path = tmp_path / "store.dat"
        with BlobStore.file_backed(path, page_size=16) as store:
            store.create("x").append(b"z" * 16)
            store.flush()
            assert path.stat().st_size == 16
            assert not store.pages.pager._file.closed

    def test_memory_store_close_is_noop(self):
        store = BlobStore()
        store.create("x").append(b"data")
        store.close()
        with BlobStore() as ctx_store:
            ctx_store.create("y")
