"""Tests for disk-resident streaming Apriori."""

import pytest

from repro.core.apriori import Apriori
from repro.core.streaming import StreamingApriori
from repro.data.io import stream_dat, write_dat


class TestStreamingApriori:
    def test_rejects_bad_max_k(self):
        with pytest.raises(ValueError):
            StreamingApriori(0.3, max_k=0)

    @pytest.mark.parametrize("kernel", ["fast-np"])
    def test_rejects_bitmap_kernels(self, kernel):
        # Streaming counts one transaction at a time: tree kernels only.
        with pytest.raises(
            ValueError, match="unsupported kernel .*'reference', 'fast'$"
        ):
            StreamingApriori(0.3, kernel=kernel)

    def test_matches_in_memory_on_tiny_db(self, tiny_db):
        in_memory = Apriori(0.3).mine(tiny_db)
        streamed = StreamingApriori(0.3).mine(lambda: iter(tiny_db))
        assert streamed.frequent == in_memory.frequent
        assert streamed.num_transactions == len(tiny_db)

    def test_matches_in_memory_on_quest_db(self, medium_quest_db):
        in_memory = Apriori(0.05).mine(medium_quest_db)
        streamed = StreamingApriori(0.05).mine(
            lambda: iter(medium_quest_db)
        )
        assert streamed.frequent == in_memory.frequent

    def test_mines_from_file_without_loading(self, tmp_path, medium_quest_db):
        path = tmp_path / "db.dat"
        write_dat(medium_quest_db, path)
        streamed = StreamingApriori(0.05).mine(lambda: stream_dat(path))
        in_memory = Apriori(0.05).mine(medium_quest_db)
        assert streamed.frequent == in_memory.frequent

    def test_mines_from_gzip_file(self, tmp_path, tiny_db):
        path = tmp_path / "db.dat.gz"
        write_dat(tiny_db, path)
        streamed = StreamingApriori(0.3).mine(lambda: stream_dat(path))
        assert streamed.frequent == Apriori(0.3).mine(tiny_db).frequent

    def test_max_k_respected(self, tiny_db):
        streamed = StreamingApriori(0.3, max_k=2).mine(lambda: iter(tiny_db))
        assert all(len(s) <= 2 for s in streamed.frequent)

    def test_unstable_source_detected(self, tiny_db):
        scans = []

        def shrinking_source():
            scans.append(None)
            transactions = list(tiny_db)
            # Second and later scans silently lose a transaction.
            if len(scans) > 1:
                transactions = transactions[:-1]
            return iter(transactions)

        with pytest.raises(ValueError, match="not stable"):
            StreamingApriori(0.3).mine(shrinking_source)

    def test_empty_source(self):
        streamed = StreamingApriori(0.5).mine(lambda: iter(()))
        assert streamed.frequent == {}
        assert streamed.num_transactions == 0

    def test_pass_traces_recorded(self, tiny_db):
        streamed = StreamingApriori(0.3).mine(lambda: iter(tiny_db))
        assert streamed.passes[0].k == 1
        assert streamed.passes[1].tree_shape is not None
