"""Tests for the container-inspection CLI."""

import pytest

from repro.blob.blob import MemoryBlob
from repro.engine.recorder import Recorder
from repro.media import frames
from repro.media.objects import video_object
from repro.storage.container import write_container
from repro.tools.inspect import main


@pytest.fixture(scope="module")
def container_path(tmp_path_factory):
    video = video_object(frames.scene(32, 24, 6, "orbit"), "video1")
    movie = Recorder(MemoryBlob()).record([video])
    path = tmp_path_factory.mktemp("inspect") / "movie.rmf"
    write_container(movie, path)
    return str(path)


class TestInspectCli:
    def test_describe(self, container_path, capsys):
        assert main([container_path]) == 0
        out = capsys.readouterr().out
        assert "video1" in out
        assert "media type" in out

    def test_placement_table(self, container_path, capsys):
        assert main([container_path, "--table", "video1"]) == 0
        out = capsys.readouterr().out
        assert "placement table" in out

    def test_play(self, container_path, capsys):
        assert main([container_path, "--play", "2000000"]) == 0
        out = capsys.readouterr().out
        assert "playback at" in out
        assert "elements" in out

    def test_play_with_obs_prints_metric_table(self, container_path, capsys):
        assert main([container_path, "--play", "2000000", "--obs"]) == 0
        out = capsys.readouterr().out
        assert "engine.play.runs" in out
        assert "counter" in out

    def test_obs_without_play_is_quiet(self, container_path, capsys):
        assert main([container_path, "--obs"]) == 0
        out = capsys.readouterr().out
        assert "engine.play.runs" not in out

    def test_verify_clean_container(self, container_path, capsys):
        assert main([container_path, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s), 0 error(s)" in out

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.rmf")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_health_prints_status_and_slo(self, container_path, capsys):
        assert main([container_path, "--health", "3"]) == 0
        out = capsys.readouterr().out
        assert "status:" in out
        assert "sessions: 3" in out
        assert "slo startup-latency" in out
        assert "pipeline stage profile" in out

    def test_health_default_client_count(self, container_path, capsys):
        assert main([container_path, "--health"]) == 0
        out = capsys.readouterr().out
        assert "sessions: 2" in out

    def test_timeline_writes_valid_trace(self, container_path, tmp_path,
                                         capsys):
        import json

        trace_path = tmp_path / "trace.json"
        assert main([container_path, "--timeline", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote Chrome trace" in out
        document = json.loads(trace_path.read_text())
        assert document["traceEvents"]
        names = {row["name"] for row in document["traceEvents"]}
        assert "vod.session" in names


class TestWalInspection:
    @pytest.fixture
    def wal_dir(self, tmp_path):
        from repro.durability import WriteAheadLog

        directory = str(tmp_path / "wal")
        with WriteAheadLog(directory) as wal:
            txn = wal.begin()
            wal.log_write(txn, 0, b"\x42" * 64)
            wal.commit(txn)
        return directory

    def test_wal_summary(self, wal_dir, capsys):
        assert main([wal_dir, "--wal"]) == 0
        out = capsys.readouterr().out
        assert "write-ahead log" in out
        assert "committed txns: 1" in out
        assert "torn tail     : no" in out

    def test_missing_wal_directory_fails(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent"), "--wal"]) == 1
        assert "error" in capsys.readouterr().err


class TestIndexCensus:
    def test_index_census_output(self, container_path, capsys):
        assert main([container_path, "--index"]) == 0
        out = capsys.readouterr().out
        assert "temporal index census" in out
        assert "writes" in out
        table = out[out.index("temporal index census"):].splitlines()
        first_column = [line.split("|")[0].strip()
                        for line in table if "|" in line]
        assert [name for name in first_column[1:]
                if not name.startswith("(")] == [
            "attributes", "composition", "objects"]
        assert [line for line in table if line.startswith("indexes:")] == [
            "indexes: idx_attributes_kv, idx_comp_obj, idx_comp_path,"
            " idx_comp_window"]


class TestDashboard:
    def test_dash_renders_sections(self, container_path, capsys):
        assert main([container_path, "--dash", "3"]) == 0
        out = capsys.readouterr().out
        assert "telemetry dashboard" in out
        assert "series (sparkline per scrape)" in out
        assert "shard heat" in out

    def test_dash_default_client_count(self, container_path, capsys):
        assert main([container_path, "--dash"]) == 0
        out = capsys.readouterr().out
        assert "telemetry dashboard" in out


class TestCfgDump:
    def test_cfg_dump_prints_the_graph(self, tmp_path, capsys):
        source = tmp_path / "mod.py"
        source.write_text(
            "class Pool:\n"
            "    def grab(self, page):\n"
            "        if page:\n"
            "            return self.pin(page)\n"
            "        return None\n"
        )
        assert main([str(source), "--cfg", "Pool.grab"]) == 0
        out = capsys.readouterr().out
        assert "cfg mod.py::Pool.grab" in out
        assert "(true)" in out and "(exc)" in out

    def test_unknown_qualname_lists_what_exists(self, tmp_path, capsys):
        source = tmp_path / "mod.py"
        source.write_text("def only():\n    return 1\n")
        assert main([str(source), "--cfg", "missing"]) == 1
        err = capsys.readouterr().err
        assert "no function 'missing'" in err
        assert "only" in err

    def test_cfg_on_unparseable_file_fails_cleanly(self, tmp_path, capsys):
        source = tmp_path / "broken.py"
        source.write_text("def broken(:\n")
        assert main([str(source), "--cfg", "broken"]) == 1
        assert "error:" in capsys.readouterr().err
