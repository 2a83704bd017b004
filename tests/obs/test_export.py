"""Unit tests for the JSONL / Chrome trace exporters."""

import json

from repro.obs import export
from repro.obs.trace import Span


def _tree():
    root = Span("query", start_s=1.0, duration_s=0.5,
                attrs={"engine": "accurate-raster"})
    tiles = Span("tiles", start_s=1.1, duration_s=0.3,
                 attrs={"concurrent": True})
    tile0 = Span("tile", start_s=1.1, duration_s=0.2, attrs={"tile": 0})
    tile1 = Span("tile", start_s=1.15, duration_s=0.1, attrs={"tile": 1})
    pp = Span("point-pass", start_s=1.12, duration_s=0.05)
    tile0.children.append(pp)
    tiles.children.extend([tile0, tile1])
    root.children.append(tiles)
    return root


class TestJsonl:
    def test_append_jsonl_flattens_with_parent_links(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        export.append_jsonl(_tree(), str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in rows] == [
            "query", "tiles", "tile", "point-pass", "tile",
        ]
        by_id = {r["id"]: r for r in rows}
        assert rows[0]["parent"] is None
        for row in rows[1:]:
            assert by_id[row["parent"]]["name"] in ("query", "tiles", "tile")

    def test_append_is_append(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        export.append_jsonl(_tree(), str(path))
        export.append_jsonl(_tree(), str(path))
        assert len(path.read_text().splitlines()) == 10


class TestChromeTrace:
    def test_complete_events_in_microseconds(self):
        doc = export.chrome_trace(_tree())
        events = doc["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        query = next(e for e in events if e["name"] == "query")
        assert query["ts"] == 1.0e6 and query["dur"] == 0.5e6

    def test_tile_subtrees_get_their_own_track(self):
        events = export.chrome_trace(_tree())["traceEvents"]
        tids = {e["name"]: e["tid"] for e in events if e["name"] != "tile"}
        assert tids["query"] == 0 and tids["tiles"] == 0
        # point-pass lives inside tile 0's subtree -> track tile+1 == 1.
        assert tids["point-pass"] == 1
        tile_tids = sorted(e["tid"] for e in events if e["name"] == "tile")
        assert tile_tids == [1, 2]

    def test_write_chrome_trace_roundtrips(self, tmp_path):
        path = tmp_path / "trace.json"
        export.write_chrome_trace(_tree(), str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 5
